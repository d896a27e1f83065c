"""fibfourier benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Each workload runs in a fresh single-threaded child process (no pools) with
OMP/OpenBLAS/MKL thread counts capped at nproc.  Set-up time is the median
over several extra children, started before and after the measured one,
that only start, import fibfourier and build the seeded inputs.  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics from the span recorder instead.  The line before it
describes the run: commit, machine, the workload's own metric names and its
tail latency.  Workloads, metrics and their layers are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
#: the whole invocation must end well within three minutes
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(nproc: int) -> dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: argparse.Namespace, env: dict[str, str], deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(args.workdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the measured run")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_block(spec_metrics: list[dict], values: dict[str, float]) -> dict[str, dict]:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    args.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "fibfourier" / "__init__.py").is_file():
            raise BenchError(f"no fibfourier sources under {ROOT / 'src'}")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        nproc = len(os.sched_getaffinity(0))
        env = child_env(nproc)
        # set-up samples taken before and after the measured run span the
        # machine's speed over the whole invocation, not just its start
        setup_runs = 0 if args.trace else SETUP_RUNS
        before = (setup_runs + 1) // 2
        setups = [run_child(args, env, deadline, True)["setup_s"] for _ in range(before)]
        run = run_child(args, env, deadline, False)
        setups += [run_child(args, env, deadline, True)["setup_s"] for _ in range(setup_runs - before)]
        if args.trace:
            metrics = metric_block(spec["per_layer"], run["layers"])
        else:
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": run["peak_rss_mb"],
                "work_per_s": run["work_per_s"],
                "op_p50_ms": run["op_p50_ms"],
            }
            metrics = metric_block(spec["end_to_end"], values)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    names = run["names"]
    named = {
        names["work_per_s"]: {"value": run["work_per_s"], "unit": f"{run['unit']}/s"},
        names["op_p50_ms"]: {"value": run["op_p50_ms"], "unit": "ms"},
    }
    if run["tail"]:
        named[names["op_tail_ms"]] = {"unit": "ms", **run["tail"]}
    named["failed_frac"] = {"value": run["failed"] / run["attempted"], "unit": "1"}
    for key, (value, unit) in run["extra"].items():
        named[key] = {"value": value, "unit": unit}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(nproc),
        "cycles": run["cycles"],
        "setup_samples_s": setups,
        "workload_metrics": named,
        "failures": run["failures"],
    }
    if args.trace:
        info["layer_shares"] = layer_shares(run["layers"])
    for failure in run["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_shares(layers: dict[str, float]) -> dict[str, float]:
    """Share of traced op time spent in each module's own code."""
    totals: dict[str, float] = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            module = key.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + value
    totals["bench"] = layers["bench.unattributed_s"]
    whole = sum(totals.values()) or 1.0
    return {module: round(t / whole, 4) for module, t in sorted(totals.items())}


if __name__ == "__main__":
    sys.exit(main())
