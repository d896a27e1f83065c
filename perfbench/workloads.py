"""Benchmark workloads: seeded inputs, timed ops and their output checks.

Every workload is a closed loop with one caller on one thread.  The
benchmark asks a workload for one cycle of ops at a time and stops at a
cycle boundary, so each run times whole cycles.  An op's `run` is timed;
its `check` runs after the clock stops and returns a failure reason, or
None when the output is correct.

The library is always reached through module attributes at call time
(``fibfourier.cli.main``, ``ff.build_approximant``), so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import fibfourier as ff
import fibfourier.cli

HERE = Path(__file__).resolve().parent
PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Op(NamedTuple):
    run: Callable[[], object]
    work: int  # work units the op completes: reports, coefficients, ...
    check: Callable[[object], str | None]


class MirroredDraws:
    """Seeded integers in [lo, hi] that alternate between a draw and its
    mirror image lo + hi - draw.

    Draws follow the golden-ratio (Kronecker) sequence with a seeded offset:
    each is uniform on [lo, hi], and consecutive draws cover the range
    evenly, so a short run sees the same spread of inputs whatever the seed.
    With the mirror images every two ops have the same mean input, the
    inputs of a run are symmetric about the middle of the range, and its
    median op is close to the middle input.  That keeps run-to-run spread
    small.
    """

    def __init__(self, rng: random.Random, lo: int, hi: int) -> None:
        self._u = rng.random()
        self._lo, self._hi = lo, hi
        self._mirror: int | None = None

    def next(self) -> int:
        if self._mirror is not None:
            value, self._mirror = self._mirror, None
            return value
        self._u = (self._u + PHI) % 1.0
        value = self._lo + int(self._u * (self._hi - self._lo + 1))
        self._mirror = self._lo + self._hi - value
        return value


class Workload:
    """Seeded inputs are built in __init__; `cycle` hands out the next ops."""

    unit: str  # what one unit of an op's `work` is
    #: the workload's own names for work_per_s, op_p50_ms and op_tail_ms
    names: dict[str, str]
    #: CSV bytes the ops wrote, reported by the traced run as cli.bytes_out
    bytes_out = 0

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def summary(self) -> dict[str, tuple[float, str]]:
        """Workload-specific results as name -> (value, unit)."""
        return {}


# -- paper ------------------------------------------------------------------

#: Paper-size invocations of all 11 subcommands: n in {3, 7, 9}, --range in
#: the paper's 20-40 band, compare grids offset within +-500, singularity
#: and error-bound at their defaults.
MENU: list[list[str]] = [
    ["points", "--lo", "0", "--hi", "40"],
    ["points", "--lo=-480", "--hi=-440", "--window", "shifted"],
    ["frequencies", "--n", "3"],
    ["frequencies", "--n", "9"],
    ["data-points", "--n", "7", "--range", "23.3"],
    ["data-points", "--n", "9", "--range", "38"],
    ["coeffs", "--n", "3", "--estimator", "all", "--range", "21.64"],
    ["coeffs", "--n", "7", "--function", "interval", "--estimator", "all", "--range", "30"],
    ["coeffs", "--n", "9", "--estimator", "sum", "--range", "40"],
    ["table1"],
    ["table1", "--n", "7", "--range", "34"],
    ["table2"],
    ["table2", "--n", "9", "--range", "27"],
    ["table3"],
    ["table4"],
    ["compare"],
    ["compare", "--n", "7", "--range", "30", "--grid", "200:215:600"],
    ["compare", "--n", "9", "--function", "interval", "--range", "40", "--grid=-480:-465:600"],
    ["compare", "--n", "3", "--range", "35", "--grid", "485:500:300"],
    ["singularity"],
    ["error-bound"],
]

HASHES = HERE / "paper_sha256.json"


def menu_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_report(argv: list[str], out: Path) -> int:
    """One in-process CLI invocation writing its CSV to `out`."""
    out.unlink(missing_ok=True)
    return fibfourier.cli.main(argv + ["--out", str(out)])


def take_report(out: Path) -> bytes:
    """The bytes a report wrote, removing the file."""
    data = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return data


class Paper(Workload):
    """Each cycle runs the whole menu once, in an order drawn from the seed."""

    unit = "report"
    names = {"work_per_s": "reports_per_s", "op_p50_ms": "report_p50_ms", "op_tail_ms": "report_tail_ms"}

    def __init__(self, seed: int, workdir: Path) -> None:
        self._rng = random.Random(seed)
        self._out = workdir / "report.csv"
        self._hashes = json.loads(HASHES.read_text())
        missing = [menu_key(argv) for argv in MENU if menu_key(argv) not in self._hashes]
        if missing:
            raise RuntimeError(f"no captured SHA-256 for {missing}")

    def cycle(self) -> list[Op]:
        order = list(MENU)
        self._rng.shuffle(order)
        return [Op(partial(run_report, argv, self._out), 1, partial(self._check, argv)) for argv in order]

    def _check(self, argv: list[str], code: int) -> str | None:
        data = take_report(self._out)
        self.bytes_out += len(data)
        if code != 0:
            return f"{menu_key(argv)}: exit code {code}"
        if hashlib.sha256(data).hexdigest() != self._hashes[menu_key(argv)]:
            return f"{menu_key(argv)}: CSV bytes differ from the captured SHA-256"
        return None


# -- spectrum ---------------------------------------------------------------

SPECTRUM_N = 27
#: worst |estimate - coeff_exact| accepted at n=27 and 150-400 passes; the
#: worst at the seed commit is 0.0415 (integral, interval_sign, 161 passes)
SPECTRUM_TOL = 0.05
_DESCRIPTORS = {"nearest": "nearest_distance", "interval": "interval_sign"}


def local_function(name: str):
    return ff.nearest_distance() if name == "nearest" else ff.interval_sign()


class Spectrum(Workload):
    """Each op computes the coefficient tables at n=27, over all 729
    frequencies, of both functions by all three estimators (exact, integral,
    sum): six approximants at one drawn passes.  A cycle is one op.

    Grouping the six builds into one op keeps the op latency steady: single
    builds take 4 ms (exact) to 1.4 s (integral), and a nearest_distance
    table takes about 1.3 times an interval_sign one, so with smaller ops
    the median fell between two groups of ops and jumped between them.
    """

    unit = "coefficient"
    names = {"work_per_s": "coeffs_per_s", "op_p50_ms": "tables_p50_ms", "op_tail_ms": "tables_tail_ms"}
    KINDS = ("exact", "integral", "sum")
    FUNCTIONS = ("nearest", "interval")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.freqs = ff.frequency_representatives(SPECTRUM_N)
        self._passes = MirroredDraws(random.Random(seed), 150, 400)
        self._reference: dict[str, dict] = {}
        self.max_err = {"integral": 0.0, "sum": 0.0}

    def cycle(self) -> list[Op]:
        work = len(self.FUNCTIONS) * len(self.KINDS) * len(self.freqs)
        return [Op(partial(self._tables, self._passes.next()), work, self._check)]

    def _tables(self, passes: int):
        # the path and data-point work the estimators need is part of the op
        freqs = self.freqs
        path = ff.path_decomposition(passes=passes)
        data = ff.data_points(SPECTRUM_N, path)
        tables = {}
        for fn in self.FUNCTIONS:
            exact = ff.build_approximant("exact", freqs, lift=ff.torus_lift(_DESCRIPTORS[fn]))
            integral = ff.build_approximant("integral", freqs, f=local_function(fn), r=path.r)
            total = ff.build_approximant("sum", freqs, f=local_function(fn), data=data)
            tables[fn] = (exact, integral, total)
        return tables

    def _check(self, tables) -> str | None:
        for fn, approximants in tables.items():
            for kind, ap in zip(self.KINDS, approximants):
                error = self._check_one(kind, fn, ap)
                if error:
                    return error
        return None

    def _check_one(self, kind: str, fn: str, ap) -> str | None:
        values = {c.k: c.value for c in ap.coeffs}
        if len(values) != len(self.freqs) or set(values) != set(self.freqs.reps):
            return f"{kind}/{fn}: coefficients do not cover the frequency set"
        asym = [k.label for k, v in values.items() if values[-k] != v.conjugate()]
        if asym:
            return f"{kind}/{fn}: a(-k) != conj(a(k)) at {asym[:3]}"
        exact = self._exact(fn)
        err = max(abs(v - exact[k]) for k, v in values.items())
        if kind in self.max_err:
            self.max_err[kind] = max(self.max_err[kind], err)
        if err > SPECTRUM_TOL:
            return f"{kind}/{fn}: max |a - a_exact| = {err:.3g} > {SPECTRUM_TOL}"
        return None

    def _exact(self, fn: str) -> dict:
        if fn not in self._reference:
            lift = ff.torus_lift(_DESCRIPTORS[fn])
            self._reference[fn] = {k: ff.coeff_exact(k, lift) for k in self.freqs}
        return self._reference[fn]

    def summary(self) -> dict[str, tuple[float, str]]:
        return {
            "sum_max_err": (self.max_err["sum"], "1"),
            "int_max_err": (self.max_err["integral"], "1"),
        }


# -- discretize -------------------------------------------------------------

DISCRETIZE_N = 81


class Discretize(Workload):
    """Each cycle is one error-bound pipeline at n=81."""

    unit = "data point"
    names = {"work_per_s": "data_points_per_s", "op_p50_ms": "pipeline_p50_ms", "op_tail_ms": "pipeline_tail_ms"}

    def __init__(self, seed: int, workdir: Path) -> None:
        self._passes = MirroredDraws(random.Random(seed), 600, 1000)
        self._lift = ff.torus_lift("nearest_distance")

    def cycle(self) -> list[Op]:
        return [Op(partial(self._pipeline, self._passes.next()), DISCRETIZE_N**2, self._check)]

    def _pipeline(self, passes: int):
        lift, n = self._lift, DISCRETIZE_N
        path = ff.path_decomposition(passes=passes)
        data = ff.data_points(n, path)
        mismatched = ff.compare_data_points(data, ff.strip_projection_oracle(n, path))
        est = ff.error_estimate(lift, n, path)
        exact = lift.cell_integral()
        cell_err = abs(exact - ff.cell_quadrature(lift, n))
        pipe_err = abs(exact - ff.data_quadrature(ff.nearest_distance(), data))
        return len(data), mismatched, est, cell_err, pipe_err

    @staticmethod
    def _check(result) -> str | None:
        count, mismatched, est, cell_err, pipe_err = result
        if count != DISCRETIZE_N**2:
            return f"{count} data points, expected {DISCRETIZE_N**2}"
        if mismatched:
            return f"data_points and the strip oracle disagree at {len(mismatched)} points"
        if not cell_err <= math.sqrt(5.0) * est.eps_n:
            return f"cell quadrature error {cell_err:.3g} exceeds sqrt5*eps_n"
        if not pipe_err < est.bound:
            return f"pipeline error {pipe_err:.3g} exceeds the bound {est.bound:.3g}"
        return None


WORKLOADS = {"paper": Paper, "spectrum": Spectrum, "discretize": Discretize}
