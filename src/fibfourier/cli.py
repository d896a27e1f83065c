"""Deterministic CSV reports over the library, one subcommand per report.

Exit codes: 0 success, 1 usage error, 2 numeric capacity exceeded.
Identical invocations produce byte-identical files: headers carry the
serialized configuration and the artifact version, never timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from . import __version__
from .cutproject import (
    AnyWindow,
    ApproxWindow,
    Window,
    check_position,
    count_model_set,
    enumerate_model_set,
    frequency_representatives,
)
from .discretize import (
    PathDecomposition,
    cell_quadrature,
    data_points,
    data_quadrature,
    error_estimate,
    path_decomposition,
)
from .fibonacci import LocalFunction, TorusLift, interval_sign, nearest_distance
from .fourier import (
    Approximant,
    build_approximant,
    # unused here; bound only because perfbench/test_spans.py checks that
    # the span recorder wraps these bindings in cli too
    coeff_exact,
    coeff_integral,
    coeff_sum,
    cos_baseline,
    evaluator,
    sup_error,
    sup_errors,
)
from .ztau import SQRT5, TAU, ArithmeticCapacityError, QTau

#: reference positions for the side-by-side value tables
REFERENCE_XS: list[float] = [
    -100.0,
    -50.0,
    -15.0,
    -3.0 - 5.0 * TAU,
    0.0,
    TAU,
    0.25 + TAU,
    0.5 + TAU,
    1.0 + TAU,
    1.0 + 1.25 * TAU,
    1.0 + 2.5 * TAU,
    1.0 + 2.75 * TAU,
    50.0,
    100.0,
    500.0,
]

_SUMMARY_WINDOWS = ((0.0, 15.0), (200.0, 215.0), (-115.0, -100.0))

#: `points` enumerates its range in slices this long, so its memory does not
#: grow with the range
_POINTS_CHUNK = 1.0e4

_FUNCTIONS = ("nearest", "interval")
_ESTIMATORS = ("exact", "integral", "sum")


@dataclass
class RunConfig:
    """Validated, serializable invocation parameters."""

    command: str
    n: int | None = None
    passes: int | None = None
    range_r: float | None = None
    function: str | None = None
    window: str | None = None
    cosine_n: int | None = None
    cosine_dc_halved: bool | None = None
    grid: str | None = None
    lo: float | None = None
    hi: float | None = None
    estimator: str | None = None
    samples: int | None = None

    def validate(self) -> None:
        if self.n is not None and self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.passes is not None and self.passes < 1:
            raise ValueError("--passes must be >= 1")
        if self.passes is not None and self.range_r is not None:
            raise ValueError("give only one of --passes and --range")
        # checked here for every estimator, since the exact one reads no path
        # and JSON has no NaN or Infinity for the header
        if self.range_r is not None and not math.isfinite(self.range_r):
            raise ValueError("--range must be finite")
        if self.function is not None and self.function not in _FUNCTIONS:
            raise ValueError(f"--function must be one of {_FUNCTIONS}")
        if self.cosine_n is not None and self.cosine_n < 0:
            raise ValueError("--cosine-n must be >= 0")
        if self.samples is not None and self.samples < 2:
            raise ValueError("--samples must be >= 2")

    def header_json(self) -> str:
        data = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(data, sort_keys=True)


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _write_report(
    out: TextIO,
    cfg: RunConfig,
    extra: dict[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    out.write(f"# fibfourier {__version__}\n")
    out.write(f"# config: {cfg.header_json()}\n")
    for key in sorted(extra):
        out.write(f"# {key}: {extra[key]}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow(list(row))


def parse_window(spec: str) -> AnyWindow:
    if spec == "default":
        return Window.default()
    if spec == "shifted":
        return Window.default().shifted(QTau(Fraction(1, 2)))
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError("window must be 'default', 'shifted', or LO:HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad window endpoints in {spec!r}") from exc
    return ApproxWindow(lo, hi)


def parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be LO:HI:COUNT")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}") from exc
    if count < 2 or not lo < hi:
        raise ValueError("grid needs lo < hi and count >= 2")
    return lo, hi, count


def _resolve_path(cfg: RunConfig, default_passes: int | None = None) -> PathDecomposition:
    if cfg.passes is not None:
        return path_decomposition(passes=cfg.passes)
    if cfg.range_r is not None:
        return path_decomposition(range_r=cfg.range_r)
    if default_passes is None:
        raise ValueError("give one of --passes and --range")
    return path_decomposition(passes=default_passes)


def _path_extra(path: PathDecomposition) -> dict[str, object]:
    return {"effective_range": _fmt(path.r), "segments": path.m}


def _function(name: str, window: AnyWindow | None = None) -> LocalFunction:
    return nearest_distance(window) if name == "nearest" else interval_sign(window)


Report = tuple[dict[str, object], Sequence[str], Iterable[Sequence[object]]]


def _approximants(
    estimators: Sequence[str],
    n: int,
    function: str,
    path: PathDecomposition | None,
    window: AnyWindow | None = None,
) -> tuple[LocalFunction, list[Approximant]]:
    """The local function and one approximant per named estimator over the
    n^2 frequency representatives, each built by build_approximant from
    what its estimator reads: the lift, the path's range or its data points."""
    freqs = frequency_representatives(n)
    f = _function(function, window)
    aps = []
    for estimator in estimators:
        if estimator == "exact":
            inputs: dict[str, object] = {"lift": TorusLift(f.rule, window)}
        elif estimator == "integral":
            inputs = {"f": f, "r": path.r}
        else:
            inputs = {"f": f, "data": data_points(n, path)}
        aps.append(build_approximant(estimator, freqs, **inputs))
    return f, aps


def _point_slices(lo: float, hi: float) -> Iterator[tuple[float, float, bool]]:
    """Slices (start, end, closed) of at most _POINTS_CHUNK covering
    [lo, hi] in order: [start, end), and [start, hi] when closed (the last)."""
    start = lo
    while True:
        end = start + _POINTS_CHUNK
        if not end < hi:
            yield start, hi, True
            return
        yield start, end, False
        start = end


def cmd_points(cfg: RunConfig) -> Report:
    window = parse_window(cfg.window)
    if cfg.hi < cfg.lo:
        raise ValueError("need --lo <= --hi")
    # the header carries the count, so one pass counts (and meets every
    # error before a byte is written) and a second formats, slice by slice
    count = sum(
        count_model_set(window, start, end, closed)
        for start, end, closed in _point_slices(cfg.lo, cfg.hi)
    )
    rows = (
        (p.algebraic.a, p.algebraic.b, _fmt(p.value), _fmt(p.algebraic.conj().embed().x), p.tile)
        for start, end, closed in _point_slices(cfg.lo, cfg.hi)
        for p in enumerate_model_set(window, start, end).points
        if closed or p.value < end
    )
    return {"count": count}, ("a", "b", "x", "x_star", "tile"), rows


def cmd_data_points(cfg: RunConfig) -> Report:
    path = _resolve_path(cfg)
    data = data_points(cfg.n, path)
    rows = [
        (j, _fmt(p.u), str(p.s.a), str(p.s.b), p.translate.a, p.translate.b, _fmt(p.residual))
        for j, p in enumerate(data.points)
    ]
    columns = ("j", "u", "s_a", "s_b", "t_a", "t_b", "internal_residual")
    return _path_extra(path), columns, rows


def cmd_frequencies(cfg: RunConfig) -> Report:
    rows = [
        (k.half_a, k.half_b, _fmt(k.value), _fmt(k.value_star))
        for k in frequency_representatives(cfg.n)
    ]
    return {"count": len(rows)}, ("half_a", "half_b", "k_value", "k_star"), rows


def cmd_coeffs(cfg: RunConfig) -> Report:
    estimators = [cfg.estimator] if cfg.estimator != "all" else list(_ESTIMATORS)
    path = _resolve_path(cfg) if estimators != ["exact"] else None
    window = parse_window(cfg.window)
    _, aps = _approximants(estimators, cfg.n, cfg.function, path, window)
    rows = [
        (c.k.half_a, c.k.half_b, _fmt(c.k.value), _fmt(c.value.real), _fmt(c.value.imag), ap.kind)
        for ap in aps
        for c in ap.coeffs
    ]
    extra: dict[str, object] = {"count": len(rows)}
    if path is not None:
        extra.update(_path_extra(path))
    return extra, ("half_a", "half_b", "k_value", "re", "im", "estimator"), rows


def cmd_coeff_table(cfg: RunConfig) -> Report:
    """Tables 1 and 3: every estimator's coefficient side by side."""
    path = _resolve_path(cfg)
    _, aps = _approximants(_ESTIMATORS, cfg.n, cfg.function, path)
    rows = [
        (cs[0].k.label, *(_fmt(x) for c in cs for x in (c.value.real, c.value.imag)))
        for cs in zip(*(ap.coeffs for ap in aps))
    ]
    columns = ("k", "exact_re", "exact_im", "int_re", "int_im", "sum_re", "sum_im")
    return _path_extra(path), columns, rows


def cmd_values(cfg: RunConfig) -> Report:
    """Tables 2 and 4 at the reference positions; with a grid, the compare
    report with sup errors over the summary windows."""
    if cfg.grid is not None:
        lo, hi, count = parse_grid(cfg.grid)
        step = (hi - lo) / (count - 1)
        xs: Iterable[float] = (lo + i * step for i in range(count))
    else:
        xs = REFERENCE_XS
    path = _resolve_path(cfg)
    f, aps = _approximants(_ESTIMATORS, cfg.n, cfg.function, path)
    aps.append(cos_baseline(f, cfg.cosine_n, bool(cfg.cosine_dc_halved)))
    if cfg.grid is not None:
        # the rows are made while they are written, so a position error must
        # come first; lo + i*step is monotone in i, so the ends are enough
        for i in (0, count - 1):
            check_position(lo + i * step)
    values = evaluator(aps)
    rows = ((_fmt(x), _fmt(f(x)), *map(_fmt, values(x))) for x in xs)
    extra = _path_extra(path)
    if cfg.grid is not None:
        for w_lo, w_hi in _SUMMARY_WINDOWS:
            errors = sup_errors(aps, f, w_lo, w_hi, samples=1000)
            for name, error in zip(("exact", "integral", "sum", "cosine"), errors):
                extra[f"sup_error_{name}_[{_fmt(w_lo)},{_fmt(w_hi)}]"] = _fmt(error)
    return extra, ("x", "f", "f_exact", "f_int", "f_sum", "f_cos"), rows


def cmd_singularity(cfg: RunConfig) -> Report:
    path = _resolve_path(cfg, default_passes=27)
    lo, hi = -TAU * TAU, 0.0
    errors = {}
    for name in ("default", "shifted"):
        f, (ap,) = _approximants(("sum",), cfg.n, "nearest", path, parse_window(name))
        errors[name] = sup_error(ap, f, lo, hi, samples=cfg.samples)
    extra = {
        **_path_extra(path),
        "interval": f"[{_fmt(lo)},{_fmt(hi)}]",
        "improvement": _fmt(errors["default"] / errors["shifted"]),
    }
    return extra, ("window", "sup_error"), [(name, _fmt(e)) for name, e in errors.items()]


def cmd_error_bound(cfg: RunConfig) -> Report:
    path = _resolve_path(cfg, default_passes=17)
    f = _function(cfg.function)
    lift = TorusLift(f.rule)
    est = error_estimate(lift, cfg.n, path)
    exact = lift.cell_integral()
    cell_err = abs(exact - cell_quadrature(lift, cfg.n))
    pipe_err = abs(exact - data_quadrature(f, data_points(cfg.n, path)))
    row = (
        _fmt(est.eps_n),
        _fmt(est.eps_n_prime),
        _fmt(est.bound),
        _fmt(cell_err),
        _fmt(pipe_err),
        cell_err <= SQRT5 * est.eps_n,
        pipe_err < est.bound,
    )
    columns = (
        "eps_n",
        "eps_n_prime",
        "bound",
        "cell_error",
        "pipeline_error",
        "cell_within_bound",
        "pipeline_within_bound",
    )
    return {**_path_extra(path), "cell_integral": _fmt(exact)}, columns, [row]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_path_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--passes", type=int, default=None, help="number of complete passes")
    p.add_argument(
        "--range",
        dest="range_r",
        type=float,
        default=None,
        help="path length; truncated down to the last complete pass",
    )


def _add_cosine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cosine-n", type=int, default=50)
    p.add_argument(
        "--cosine-dc-halved",
        action="store_true",
        default=None,
        help="conventional cosine-series weights (harmonics doubled)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fibfourier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="model-set slice as CSV")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--window", default="default", help="default | shifted | LO:HI")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("data-points", help="discretization data points as CSV")
    p.add_argument("--n", type=int, required=True)
    _add_path_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_data_points)

    p = sub.add_parser("frequencies", help="minimal frequency representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_frequencies)

    p = sub.add_parser("coeffs", help="coefficient estimates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", choices=_FUNCTIONS, default="nearest")
    p.add_argument("--estimator", choices=(*_ESTIMATORS, "all"), default="exact")
    p.add_argument("--window", default="default")
    _add_path_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_coeffs)

    for name, function, dn, dr in (
        ("table1", "nearest", 3, 21.64),
        ("table3", "interval", 7, 23.30),
        ("table2", "nearest", 3, 21.64),
        ("table4", "interval", 7, 23.30),
    ):
        values = name in ("table2", "table4")
        p = sub.add_parser(
            name,
            help="function value comparison table" if values else "coefficient comparison table",
        )
        p.add_argument("--n", type=int, default=dn)
        _add_path_flags(p)
        if values:
            _add_cosine_flags(p)
        p.set_defaults(
            func=cmd_values if values else cmd_coeff_table, function=function, default_range=dr
        )
        p.add_argument("--out", default="-")

    p = sub.add_parser("compare", help="grid comparison of all estimators")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--function", choices=_FUNCTIONS, default="nearest")
    _add_path_flags(p)
    _add_cosine_flags(p)
    p.add_argument("--grid", default="0:15:600", help="LO:HI:COUNT")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_values, default_range=21.64)

    p = sub.add_parser("singularity", help="sum estimator on both windows")
    p.add_argument("--n", type=int, default=9)
    _add_path_flags(p)
    p.add_argument("--samples", type=int, default=800)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_singularity)

    p = sub.add_parser("error-bound", help="sampled oscillation bounds")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--function", choices=_FUNCTIONS, default="nearest")
    _add_path_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_error_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "default_range", None) is not None:
        if args.passes is None and args.range_r is None:
            args.range_r = args.default_range
    cfg = RunConfig(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
    try:
        cfg.validate()
        extra, columns, rows = args.func(cfg)
        with _open_out(args.out) as out:
            _write_report(out, cfg, extra, columns, rows)
    except ArithmeticCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: numeric capacity exceeded: out of memory", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
