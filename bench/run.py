"""toricmld benchmark.

    python3 bench/run.py --workload {query,scan,structure} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The seed fixes the inputs, which a
separate interpreter generates, with their reference answers, before any
timing (``gen.py``).  Every repetition then runs the whole fixed list of
operations in a fresh interpreter (``worker.py``), so no repetition
inherits warm ``lru_cache``s from another.

``--trace 0`` repeats until the operations have been timed for S
seconds (at least three repetitions) and reports the median over
repetitions of each end-to-end metric; peak RSS is the maximum over the
repetitions and this process.  ``--trace 1`` runs the list once
untraced and once traced, reports the per-layer metrics of the traced
run and their overhead, and fails the run if the two print different
stdout.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, ``failed_ratio`` included.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("query", "scan", "structure")
MIN_REPS = 3
MAX_REPS = 30
REP_BUDGET_S = 120  # no new repetition starts after this much wall time
CHILD_TIMEOUT_S = 60


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def percentile(samples, q: int) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def child(args, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run(
        [sys.executable, "-I", *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited {proc.returncode}: {proc.stderr[-2000:]}")


def repetition(rundir: Path, index: int, spans: Path | None = None) -> dict:
    result = rundir / f"rep{index}.json"
    args = [HERE / "worker.py", rundir, result, repr(time.monotonic())]
    child(args + ([spans] if spans else []))
    return json.loads(result.read_text())


def timed_run(rundir: Path, seconds: int) -> tuple[dict, list, list]:
    start = time.monotonic()
    reps, measured = [], 0.0
    while len(reps) < MIN_REPS or (
        measured < seconds and len(reps) < MAX_REPS and time.monotonic() - start < REP_BUDGET_S
    ):
        reps.append(repetition(rundir, len(reps)))
        measured += sum(reps[-1]["latencies"])
    # a command's latency is its median over the repetitions
    per_op = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in reps))]
    q = tail_percentile(len(per_op))
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "throughput_ops_s": statistics.median(sum(r["instances"]) / sum(r["latencies"]) for r in reps),
        "latency_p50_ms": statistics.median(per_op) * 1000,
        "latency_tail_ms": percentile(per_op, q) * 1000,
        "peak_rss_mb": max([own_rss] + [r["rss_mb"] for r in reps]),
    }
    info = [f"repetitions {len(reps)}, timed {measured:.2f} s, latency_tail_ms is p{q}"]
    return metrics, reps, info


def traced_run(rundir: Path, spans: Path) -> tuple[dict, list, list]:
    plain = repetition(rundir, 0)
    traced = repetition(rundir, 1, spans)
    for i, (a, b) in enumerate(zip(plain["stdout_digests"], traced["stdout_digests"])):
        if a != b:
            traced["failures"].append(f"op {i}: stdout differs when traced")
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    info = [f"spans written to {spans.relative_to(ROOT)}"]
    return layers, [plain, traced], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="a few operations only (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toricmld" / "cli.py").is_file():
        print(f"error: no toricmld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        gen_args = [HERE / "gen.py", args.workload, args.seed, rundir] + (["--tiny"] if args.tiny else [])
        child(gen_args, timeout=120)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, reps, info = traced_run(rundir, spans)
        else:
            metrics, reps, info = timed_run(rundir, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(len(r["latencies"]) for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(reps[0]['latencies'])} operations; " + "; ".join(info))
    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name:34} {'absent' if value is None else format(value, '.6g'):>12} {unit}")
        out[name] = {"value": 0 if value is None else value, "unit": unit}
    print(f"{'failed_ratio':34} {format(len(failures) / attempted, '.6g'):>12} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
