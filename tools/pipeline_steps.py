"""Time each step of one error-bound pipeline in process.

The pipeline is the one the benchmark's discretize op and the error-bound
report run: a path of --passes segments, its data points at refinement --n,
the strip-projection oracle and their comparison, error_estimate, and both
quadratures.  Each step is run --repeat times on the same inputs, and the
best time of each is printed in milliseconds, with their sum.  Only the
standard library is used; from the repository root:

    PYTHONPATH=src python3 tools/pipeline_steps.py --n 81 --passes 800

By default one lift serves every repeat, as one lift serves every op of the
benchmark, so after the first repeat error_estimate and cell_quadrature read
the eps_n and cell sum kept for it.  With --lift fresh each repeat makes a
new lift, as each error-bound report does, and both are computed again.
data_quadrature reads a fresh local function each repeat, as both do.
"""

from __future__ import annotations

import argparse
import time

import fibfourier as ff

FUNCTIONS = {"nearest": ff.nearest_distance, "interval": ff.interval_sign}


def step_times(n: int, passes: int, function: str, fresh_lift: bool, repeat: int) -> dict[str, float]:
    """The best time in seconds of each step over `repeat` runs."""
    best: dict[str, float] = {}

    def timed(name, call, *args):
        start = time.perf_counter()
        result = call(*args)
        elapsed = time.perf_counter() - start
        best[name] = min(best.get(name, elapsed), elapsed)
        return result

    make = FUNCTIONS[function]
    lift = ff.TorusLift(make().rule)
    for _ in range(repeat):
        if fresh_lift:
            lift = ff.TorusLift(make().rule)
        path = timed("path_decomposition", ff.path_decomposition, passes)
        data = timed("data_points", ff.data_points, n, path)
        oracle = timed("strip_projection_oracle", ff.strip_projection_oracle, n, path)
        timed("compare_data_points", ff.compare_data_points, data, oracle)
        timed("error_estimate", ff.error_estimate, lift, n, path)
        timed("cell_quadrature", ff.cell_quadrature, lift, n)
        timed("data_quadrature", ff.data_quadrature, make(), data)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=81)
    parser.add_argument("--passes", type=int, default=800)
    parser.add_argument("--function", choices=sorted(FUNCTIONS), default="nearest")
    parser.add_argument("--lift", choices=("kept", "fresh"), default="kept")
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("need --repeat >= 1")
    best = step_times(args.n, args.passes, args.function, args.lift == "fresh", args.repeat)
    print(f"n={args.n} passes={args.passes} function={args.function} lift={args.lift}, best of {args.repeat} (ms)")
    for name, seconds in best.items():
        print(f"{name:24s} {seconds * 1e3:9.3f}")
    print(f"{'total':24s} {sum(best.values()) * 1e3:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
