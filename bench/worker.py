"""One repetition in a fresh interpreter:
``python3 -I bench/worker.py RUNDIR RESULT SPAWN_TIME [SPANS]``.

Loads ``RUNDIR/inputs.json``, drives ``toricmld.cli.main`` in-process on
every operation in order (one closed-loop client: the next command is
sent when the previous one returns), then checks every answer against
``RUNDIR/expect.json`` and writes the per-operation latencies, the set-up
time, the peak RSS and the failures to RESULT.  With SPANS, the layers
are traced and the spans are written there.  SPAWN_TIME is the
``time.monotonic()`` reading of the parent just before it started this
interpreter, so set-up covers interpreter start, imports and loading the
inputs.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from toricmld import cli  # noqa: E402


def run_ops(ops, tracer=None):
    """Run every operation; returns (latencies, outputs)."""
    latencies, outputs = [], []
    clock = time.perf_counter
    stdin = sys.stdin
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(op["stdin"])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    rc = cli.main(op["argv"])
                except Exception as exc:  # an uncaught exception is a failed operation
                    rc = f"uncaught {type(exc).__name__}: {exc}"
                latencies.append(clock() - start)
            outputs.append((rc, out.getvalue(), err.getvalue()))
    finally:
        sys.stdin = stdin
    return latencies, outputs


def main(argv) -> int:
    rundir, result_path, spawn_time = Path(argv[0]), Path(argv[1]), float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = json.loads((rundir / "inputs.json").read_text())
    setup_s = time.monotonic() - spawn_time
    latencies, outputs = run_ops(ops, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import check

    expect = json.loads((rundir / "expect.json").read_text())
    failures = []
    for i, (exp, (rc, stdout, stderr)) in enumerate(zip(expect, outputs)):
        reason = check.check_op(exp, rc, stdout, stderr)
        if reason is not None:
            failures.append(f"op {i} {' '.join(ops[i]['argv'])}: {reason}")
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "instances": [op["instances"] for op in ops],
        "rss_mb": rss_mb,
        "failures": failures,
        "stdout_digests": [hashlib.sha1(o[1].encode()).hexdigest()[:16] for o in outputs],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
