"""Fourier-Bohr coefficients and trigonometric approximants.

A local function f on the Fibonacci set expands over the dual frequencies
k in (1/2)Z[tau] as f(t) = sum_k a_k exp(2 pi i 2 DELTA k t).  Three
estimators for a_k are provided:

* exact: the closed-form integral of the lift against
  exp(-4 pi i (k x DELTA + k' y DELTA_STAR)) over its two support
  rectangles, divided by sqrt5 (separable, so products of interval
  transforms of boxes and tents);
* integral: the line average (1/R) int_0^R f(t) exp(-2 pi i 2 DELTA k t) dt,
  evaluated piecewise exactly since f is piecewise linear;
* sum: the data-point average (1/N^2) sum_j f(u_j) exp(-2 pi i 2 DELTA k u_j).

The integral and sum estimators stay one call per frequency, but the work
that depends only on the function is done once: the sum reads f at each data
point once per DataPointSet (DataPointSet.samples), and the integral reads
the pieces over [lo, hi] once per function and range, as rows (mid, half,
A, B) that each frequency then walks.  A frequency costs one complex
exponential per data point (sum) or one sine, cosine and complex exponential
per piece (integral).  Both memos are keyed weakly by the function, so they
vanish with it, and the row memo keeps only the last range.  Every sum adds the same terms in the same order as the
one-term-at-a-time formulas, so the coefficients are bit-identical to them.

A periodic cosine baseline fitted on [0, 2] is included for comparison:
a_j = (1/2) int_0^2 f(x) cos(j pi x / 2) dx for every j including j = 0,
summed as f_cos(x) = sum_j a_j cos(j pi x / 2).
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from .cutproject import Frequency, FrequencySet
from .discretize import DataPointSet
from .fibonacci import INTERVAL, INV_TAU, INV_TAU2, NEAREST, LocalFunction, TorusLift
from .ztau import DELTA, DELTA_STAR, SQRT5, TAU

_TWO_PI = 2.0 * math.pi

_PieceRow = tuple[float, float, float, complex]  # (mid, half, A, B)
#: per live local function, the piece rows of the last range it was integrated over
_ROWS: weakref.WeakKeyDictionary[LocalFunction, tuple[float, float, list[_PieceRow]]] = (
    weakref.WeakKeyDictionary()
)


def _sinc(z: float) -> float:
    if abs(z) < 1e-12:
        return 1.0
    return math.sin(z) / z


def _box_transform(y0: float, y1: float, w: float) -> complex:
    """int_{y0}^{y1} exp(i w y) dy, stable for all w."""
    d = y1 - y0
    return d * _sinc(0.5 * w * d) * cmath.exp(0.5j * w * (y0 + y1))


def _tent_transform(length: float, w: float) -> complex:
    """int_0^L tent(x) exp(i w x) dx for the tent peaking at L/2."""
    s = _sinc(0.25 * w * length)
    return 0.25 * length * length * s * s * cmath.exp(0.5j * w * length)


def coeff_exact(k: Frequency, lift: TorusLift) -> complex:
    """Closed-form coefficient of a built-in lift."""
    wx = -2.0 * _TWO_PI * DELTA * k.value
    wy = -2.0 * _TWO_PI * DELTA_STAR * k.value_star
    y_short = _box_transform(-INV_TAU, 0.0, wy)
    y_long = _box_transform(-INV_TAU, INV_TAU2, wy)
    if lift.descriptor == NEAREST:
        x_short = cmath.exp(-1j * wx) * _tent_transform(1.0, wx)
        x_long = _tent_transform(TAU, wx)
    elif lift.descriptor == INTERVAL:
        x_short = -_box_transform(-1.0, 0.0, wx)
        x_long = _box_transform(0.0, TAU, wx)
    else:
        raise ValueError("closed-form coefficients need a built-in lift")
    return (x_short * y_short + x_long * y_long) / SQRT5


def _piece_rows(f: LocalFunction, lo: float, hi: float) -> list[_PieceRow]:
    """The pieces of f clipped to [lo, hi] as rows (mid, half, A, B), taken
    once per function and range."""
    memo = _ROWS.get(f)
    if memo is None or memo[0] != lo or memo[1] != hi:
        rows = []
        for x0, x1, c, m in f.linear_pieces(lo, hi):
            mid = 0.5 * (x0 + x1)
            half = 0.5 * (x1 - x0)
            rows.append((mid, half, (c + m * mid) * 2.0 * half, 2.0j * m * half * half))
        memo = _ROWS[f] = (lo, hi, rows)
    return memo[2]


def line_integral(f: LocalFunction, w: float, lo: float, hi: float) -> complex:
    """int_lo^hi f(x) exp(-i w x) dx, exact on the piecewise-linear parts.

    Per piece, int (c + m x) exp(-i w x) dx over mid +- half is
    (A sinc(z) - B h(z)) exp(-i w mid) with z = w*half,
    h(z) = (sin z - z cos z)/z^2 (series z/3 - z^3/30 near 0).
    """
    sin, cos, exp = math.sin, math.cos, cmath.exp
    nw = -1j * w
    terms = []
    for mid, half, a, b in _piece_rows(f, lo, hi):
        z = w * half
        if abs(z) < 1e-4:
            sinc = 1.0 if abs(z) < 1e-12 else sin(z) / z
            h = z / 3.0 - z * z * z / 30.0
        else:
            s = sin(z)
            sinc = s / z
            h = (s - z * cos(z)) / (z * z)
        terms.append((a * sinc - b * h) * exp(nw * mid))
    return sum(terms, start=0j)


def coeff_integral(k: Frequency, f: LocalFunction, r: float) -> complex:
    """Line-average estimator (1/R) int_0^R f exp(-2 pi i 2 DELTA k t) dt."""
    if r <= 0:
        raise ValueError("need r > 0")
    w = 2.0 * _TWO_PI * DELTA * k.value
    return line_integral(f, w, 0.0, r) / r


def coeff_sum(k: Frequency, f: LocalFunction, data: DataPointSet) -> complex:
    """Data-point estimator (1/N^2) sum_j f(u_j) exp(-2 pi i 2 DELTA k u_j)."""
    nw = -1j * (2.0 * _TWO_PI * DELTA * k.value)
    exp = cmath.exp
    total = sum(fu * exp(nw * u) for fu, u in zip(data.samples(f), data.values))
    return total / (data.n * data.n)


class Coefficient(NamedTuple):
    k: Frequency
    value: complex


@dataclass
class Approximant:
    """Finite trigonometric sum, either over dual frequencies or the cosine
    baseline (period 4)."""

    kind: str  # exact | integral | sum | cosine
    coeffs: list[Coefficient] = field(default_factory=list)
    cosine: list[float] = field(default_factory=list)

    def evaluate_complex(self, x: float) -> complex:
        if self.kind == "cosine":
            return complex(self.evaluate(x))
        return sum(
            (c.value * cmath.exp(1j * _TWO_PI * c.k.phase(x)) for c in self.coeffs),
            start=0j,
        )

    def evaluate(self, x: float) -> float:
        if self.kind == "cosine":
            return sum(
                a * math.cos(0.5 * math.pi * j * x) for j, a in enumerate(self.cosine)
            )
        return self.evaluate_complex(x).real

    def __call__(self, x: float) -> float:
        return self.evaluate(x)


def build_approximant(
    kind: str,
    freqs: FrequencySet,
    *,
    lift: TorusLift | None = None,
    f: LocalFunction | None = None,
    r: float | None = None,
    data: DataPointSet | None = None,
) -> Approximant:
    """Assemble the finite Fourier sum for one estimator kind."""
    if kind == "exact":
        if lift is None:
            raise ValueError("exact approximant needs a lift")
        coeffs = [Coefficient(k, coeff_exact(k, lift)) for k in freqs]
    elif kind == "integral":
        if f is None or r is None:
            raise ValueError("integral approximant needs f and r")
        coeffs = [Coefficient(k, coeff_integral(k, f, r)) for k in freqs]
    elif kind == "sum":
        if f is None or data is None:
            raise ValueError("sum approximant needs f and data")
        coeffs = [Coefficient(k, coeff_sum(k, f, data)) for k in freqs]
    else:
        raise ValueError(f"unknown approximant kind {kind!r}")
    return Approximant(kind, coeffs)


def cos_baseline(f: LocalFunction, n: int, conventional: bool = False) -> Approximant:
    """Cosine series fitted on [0, 2]: a_j = (1/2) int_0^2 f cos(j pi x/2) dx.

    By default every coefficient uses the same 1/2-integral weight, so the
    constant term equals the mean of f on [0, 2] but the j >= 1 harmonics
    carry half their usual weight.  With conventional=True the harmonics are
    doubled, giving the standard cosine series of f on [0, 2] (mirror-even,
    period 4).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    coeffs = []
    for j in range(n + 1):
        w = 0.5 * math.pi * j
        a = 0.5 * line_integral(f, w, 0.0, 2.0).real
        if conventional and j > 0:
            a *= 2.0
        coeffs.append(a)
    return Approximant("cosine", cosine=coeffs)


def sup_error(
    ap: Approximant, f: LocalFunction, lo: float, hi: float, samples: int = 1000
) -> float:
    """Largest |ap - f| over an inclusive equispaced grid."""
    if samples < 2 or not lo < hi:
        raise ValueError("need lo < hi and samples >= 2")
    step = (hi - lo) / (samples - 1)
    return max(abs(ap.evaluate(lo + i * step) - f(lo + i * step)) for i in range(samples))
