"""One workload in one fresh process; started by run.py, never by hand.

With --setup-only the process builds the workload's inputs, prints its set-up
time and exits.  Otherwise it then runs whole cycles of ops until --seconds
have passed, checks every op's output after its clock stops, and prints one
JSON object of raw measurements as its last line.  With --trace 1 the
library's public functions are wrapped by the span recorder in spans.py.

Before the timed ops, warm-up ops run for about a second: they are checked
but not timed, so first-use costs do not land on the first timed op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MAX_REPORTED_FAILURES = 5
WARMUP_S = 1.0


def tail(latencies: list[float]) -> dict | None:
    """Latency in ms at the highest percentile of the ladder that still has
    at least ten samples beyond it, with that percentile and the counts."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        beyond = int(len(ordered) * (100.0 - pct) / 100.0)
        if beyond >= 10:
            value = 1e3 * ordered[len(ordered) - beyond - 1]
            return {"value": value, "percentile": pct, "beyond": beyond, "samples": len(ordered)}
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True, help="scratch directory, removed by run.py")
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    clock = time.perf_counter
    t0 = clock()
    if tracer:
        tracer.begin_op()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if tracer:
        tracer.end_op(clock() - t0)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []
    failures: list[str] = []
    attempted = failed = work = 0

    def run_op(op) -> tuple[float, bool]:
        """Run, time and check one op: its seconds and whether it passed."""
        nonlocal attempted, failed
        attempted += 1
        error = None
        t0 = clock()
        if tracer:
            tracer.begin_op()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer:
            tracer.end_op(t1 - t0)
        if error is None:
            error = op.check(result)
        if error is not None:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(error)
        return t1 - t0, error is None

    warm_until = clock() + WARMUP_S
    for op in workload.cycle():
        run_op(op)
        if clock() >= warm_until:
            break

    start = clock()
    cycles = 0
    while clock() - start < args.seconds:
        for op in workload.cycle():
            seconds, passed = run_op(op)
            if passed:
                work += op.work
            latencies.append(seconds)
        cycles += 1
    if tracer:
        tracer.remove()

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cycles": cycles,
        "unit": workload.unit,
        "work_per_s": work / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "tail": tail(latencies),
        "names": workload.names,
        "extra": workload.summary(),
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, workload)
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, workload) -> dict[str, float]:
    """Per-layer totals of the traced run, named <module>.<name>.<stat>."""
    import spans

    metrics: dict[str, float] = {}
    for name in tracer.layers:
        if name in (spans.ROOT, spans.CALIBRATE):
            continue
        i = tracer.layer(name)
        metrics[f"{name}.calls"] = int(tracer.calls[i])
        metrics[f"{name}.self_s"] = float(tracer.self_s[i])
    pieces = tracer.items[tracer.layer("fibonacci.linear_pieces")]
    points = tracer.items[tracer.layer("cutproject.enumerate_model_set")]
    tests = metrics["cutproject.contains_star.calls"]
    metrics["fibonacci.linear_pieces.pieces"] = int(pieces)
    metrics["cutproject.points_materialised"] = int(points)
    metrics["cutproject.accept_ratio"] = float(points) / tests if tests else 0.0
    metrics["fibonacci.context_regrowths"] = tracer.regrowths
    metrics["cli.bytes_out"] = workload.bytes_out
    cost = spans.span_cost()
    spent = tracer.spans * cost
    metrics["bench.unattributed_s"] = float(tracer.self_s[tracer.layer(spans.ROOT)])
    metrics["bench.trace_overhead_frac"] = spent / max(tracer.wall_s - spent, 1e-12)
    metrics["bench.ops"] = tracer.ops
    metrics["bench.spans"] = tracer.spans
    metrics["bench.max_coverage_gap_s"] = tracer.max_gap_s
    return metrics


if __name__ == "__main__":
    sys.exit(main())
