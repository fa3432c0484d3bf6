"""Self-tests of the benchmark: ``python3 bench/selftest.py`` (about half a minute).

- a tiny run of each workload, untraced and traced, prints every metric
  with its unit and a correct result line;
- exact counts repeat between two traced runs with one seed, and
  ``structure.relint.tests`` is 0 off the ``structure`` workload;
- an mld off by one makes ``failed_ratio`` positive;
- traced and untraced operations print byte-identical stdout;
- without the package sources the benchmark exits non-zero, printing no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

FAILURES = []


def expect(cond, message):
    if not cond:
        FAILURES.append(message)
        print(f"FAIL {message}")


def bench(workload, trace, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_and_units():
    for workload in run.WORKLOADS:
        for trace, names in ((0, run.metric_units("end_to_end")), (1, run.metric_units("per_layer"))):
            proc = bench(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode} {proc.stderr[-300:]}")
            if proc.returncode:
                continue
            lines, res = result_of(proc)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} trace {trace}: {res['failed']} of {res['attempted']} failed")
            expect(set(res["metrics"]) == set(names), f"{workload} trace {trace}: metric names")
            for name, unit in names.items():
                expect(res["metrics"].get(name, {}).get("unit") == unit, f"{name} has unit {unit}")
                expect(any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines[:-1]),
                       f"{workload}: {name} is printed with its unit")
            expect(any(ln.startswith("failed_ratio") for ln in lines[:-1]), "failed_ratio is printed")


def test_counts_repeat():
    counts = {k for k, unit in run.metric_units("per_layer").items() if unit == "count"}
    for workload in run.WORKLOADS:
        first, second = (result_of(bench(workload, 1))[1]["metrics"] for _ in range(2))
        same = all(first[k]["value"] == second[k]["value"] for k in counts)
        expect(same, f"{workload}: exact counts differ between two traced runs")
        if workload != "structure":
            expect(first["structure.relint.tests"]["value"] == 0, f"{workload}: in_relint was called")


def failed_ratio(ops, expect_list):
    _, outputs = worker.run_ops(ops)
    bad = sum(check.check_op(e, *o) is not None for e, o in zip(expect_list, outputs))
    return bad / len(ops), outputs


def test_wrong_answer_and_trace_identity():
    import tracer
    from toricmld import invariants

    tiny = {w: gen.generate(w, 1, tiny=True) for w in run.WORKLOADS}
    plain = {}
    for workload, (ops, exp) in tiny.items():
        ratio, plain[workload] = failed_ratio(ops, exp)
        expect(ratio == 0, f"{workload}: failed_ratio {ratio} on the unchanged program")

    t = tracer.Tracer()
    t.install()
    for workload, (ops, exp) in tiny.items():
        _, outputs = failed_ratio(ops, exp)
        expect([o[1] for o in outputs] == [o[1] for o in plain[workload]],
               f"{workload}: traced stdout differs from untraced stdout")

    real_mld = invariants.mld

    def off_by_one(*args, **kwargs):
        r = real_mld(*args, **kwargs)
        return invariants.MldResult(r.value + 1, r.minimizers, r.search_bound)

    modules = [m for n, m in sys.modules.items() if n.startswith("toricmld")]
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is real_mld:
                setattr(m, attr, off_by_one)
    ops, exp = tiny["query"]
    ratio, _ = failed_ratio(ops, exp)
    expect(ratio > 0, "an mld off by one is not detected")


def test_fails_without_sources():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("query", 0, cwd=bare)
        expect(proc.returncode != 0, "a checkout without sources exits 0")
        expect(not proc.stdout.strip(), "a checkout without sources prints a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for test in (test_smoke_and_units, test_counts_repeat,
                 test_wrong_answer_and_trace_identity, test_fails_without_sources):
        before = len(FAILURES)
        test()
        print(f"{'PASS' if len(FAILURES) == before else 'FAIL'} {test.__name__}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
