"""Fourier-Bohr coefficients and trigonometric approximants.

A local function f on the Fibonacci set expands over the dual frequencies
k in (1/2)Z[tau] as f(t) = sum_k a_k exp(2 pi i 2 DELTA k t).  Three
estimators for a_k are provided:

* exact: the closed-form integral of any lift against
  exp(-4 pi i (k x DELTA + k' y DELTA_STAR)) over its support rectangles,
  divided by sqrt5; on each rectangle the lift is the tile rule, so the
  integral is the transform of the rule's linear pieces times that of the
  rectangle's internal extent;
* integral: the line average (1/R) int_0^R f(t) exp(-2 pi i 2 DELTA k t) dt,
  evaluated piecewise exactly since f is piecewise linear;
* sum: the data-point average (1/N^2) sum_j f(u_j) exp(-2 pi i 2 DELTA k u_j).

One per-piece transform (_transform, over rows (mid, half, A, B) of linear
pieces) serves line integrals, the lift's pieces and the rectangles'
internal extents (one constant piece each).  The estimators stay one call
per frequency, but the work that depends only on the function is done once:
the exact estimator takes a lift's rows once per lift, the sum reads f at
each data point once per DataPointSet (DataPointSet.samples), and the
integral reads the pieces over [lo, hi] once per function and range, as rows
that each frequency then walks.  A frequency costs one complex exponential
per data point (sum) or one complex exponential per piece and one sine and
cosine per distinct piece width (integral, exact).  The memos are keyed
weakly by the function or lift, so they vanish with it, and a function's row
memo keeps only its last range.  Every sum adds the same terms in the same
order as the one-term-at-a-time formulas, so the coefficients are
bit-identical to them.

The functions and lifts are real, so a_{-k} = conj(a_k), and a pair k, -k
costs one pass of the kernel: computing a_k (k != 0) leaves
complex(re, 0.0 - im) in the memo as a_{-k}, and the next call at -k takes it
out instead of summing.  The mirror is bit-identical to a direct computation
at -k: k.value and k.value_star negate exactly, so every angle does; sin is
odd and cos even, so each term is conjugated exactly and the sum of the
terms too.  A direct sum starts at zero, so its imaginary part is never -0.0,
and 0.0 - im keeps it so where conj() would give -0.0.

A periodic cosine baseline fitted on [0, 2] is included for comparison:
a_j = (1/2) int_0^2 f(x) cos(j pi x / 2) dx for every j including j = 0,
summed as f_cos(x) = sum_j a_j cos(j pi x / 2).
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .cutproject import Frequency, FrequencySet
from .discretize import DataPointSet
from .fibonacci import LinearPiece, LocalFunction, TorusLift
from .ztau import DELTA, DELTA_STAR, SQRT5

_TWO_PI = 2.0 * math.pi

_PieceRow = tuple[float, float, float, complex]  # (mid, half, A, B)
_Partners = dict[Frequency, complex]  # a_{-k} left by the computation of a_k
#: per live local function, the piece rows of the last range it was
#: integrated over and the partners of the coefficients on [0, range]
_ROWS: weakref.WeakKeyDictionary[
    LocalFunction, tuple[float, float, list[_PieceRow], _Partners]
] = weakref.WeakKeyDictionary()
#: per live lift, the rows of its support rectangles and the partners
_LIFT_ROWS: weakref.WeakKeyDictionary[
    TorusLift, tuple[list[tuple[float, list[_PieceRow], list[_PieceRow]]], _Partners]
] = weakref.WeakKeyDictionary()


def _rows(pieces: Iterable[LinearPiece]) -> list[_PieceRow]:
    """Pieces (x0, x1, c, m) as rows (mid, half, A, B) for _transform."""
    rows = []
    for x0, x1, c, m in pieces:
        mid = 0.5 * (x0 + x1)
        half = 0.5 * (x1 - x0)
        rows.append((mid, half, (c + m * mid) * 2.0 * half, 2.0j * m * half * half))
    return rows


def _transform(rows: list[_PieceRow], w: float) -> complex:
    """int (c + m x) exp(-i w x) dx summed over the pieces given as rows.

    Per piece, the integral over mid +- half is
    (A sinc(z) - B h(z)) exp(-i w mid) with z = w*half,
    h(z) = (sin z - z cos z)/z^2 (series z/3 - z^3/30 near 0).
    """
    sin, cos, exp = math.sin, math.cos, cmath.exp
    nw = -1j * w
    shapes: dict[float, tuple[float, float]] = {}  # half -> (sinc, h)
    terms = []
    for mid, half, a, b in rows:
        shape = shapes.get(half)
        if shape is None:
            z = w * half
            if abs(z) < 1e-4:
                sinc = 1.0 if abs(z) < 1e-12 else sin(z) / z
                h = z / 3.0 - z * z * z / 30.0
            else:
                s = sin(z)
                sinc = s / z
                h = (s - z * cos(z)) / (z * z)
            shape = shapes[half] = (sinc, h)
        sinc, h = shape
        terms.append((a * sinc - b * h) * exp(nw * mid))
    return sum(terms, start=0j)


def _keep_partner(partners: _Partners, k: Frequency, value: complex) -> complex:
    """Leave conj(value) for the next call at -k and return value."""
    if k.half_a or k.half_b:
        partners[-k] = complex(value.real, 0.0 - value.imag)
    return value


def _lift_rows(
    lift: TorusLift,
) -> tuple[list[tuple[float, list[_PieceRow], list[_PieceRow]]], _Partners]:
    """Per support rectangle of the lift, its midpoint abscissa, the rows of
    the rule's centred pieces and the row of the internal extent (a constant
    piece), taken once per lift, and the lift's partners."""
    memo = _LIFT_ROWS.get(lift)
    if memo is None:
        rows = [
            (sup.mid, _rows(sup.pieces), _rows([(sup.rect[2], sup.rect[3], 1.0, 0.0)]))
            for sup in lift.supports
        ]
        memo = _LIFT_ROWS[lift] = (rows, {})
    return memo


def coeff_exact(k: Frequency, lift: TorusLift) -> complex:
    """Closed-form coefficient of any lift.

    The integral of the lift against exp(-4 pi i (k x DELTA + k' y DELTA_STAR))
    over each support rectangle is the x-transform of the rule's pieces,
    centred on the tile and moved to the rectangle's midpoint by a phase,
    times the y-transform of the rectangle's internal extent; the sum over
    the rectangles is divided by sqrt5, the cell area.
    """
    rows, partners = _lift_rows(lift)
    value = partners.pop(k, None)
    if value is not None:
        return value
    wx = 2.0 * _TWO_PI * DELTA * k.value
    wy = 2.0 * _TWO_PI * DELTA_STAR * k.value_star
    nwx = -1j * wx
    terms = [
        cmath.exp(nwx * mid) * _transform(x_rows, wx) * _transform(y_rows, wy)
        for mid, x_rows, y_rows in rows
    ]
    return _keep_partner(partners, k, sum(terms, start=0j) / SQRT5)


def _range_rows(f: LocalFunction, lo: float, hi: float) -> tuple[list[_PieceRow], _Partners]:
    """The pieces of f clipped to [lo, hi] as rows (mid, half, A, B), taken
    once per function and range, and the partners of that range."""
    memo = _ROWS.get(f)
    if memo is None or memo[0] != lo or memo[1] != hi:
        memo = _ROWS[f] = (lo, hi, _rows(f.linear_pieces(lo, hi)), {})
    return memo[2], memo[3]


def line_integral(f: LocalFunction, w: float, lo: float, hi: float) -> complex:
    """int_lo^hi f(x) exp(-i w x) dx, exact on the piecewise-linear parts."""
    return _transform(_range_rows(f, lo, hi)[0], w)


def coeff_integral(k: Frequency, f: LocalFunction, r: float) -> complex:
    """Line-average estimator (1/R) int_0^R f exp(-2 pi i 2 DELTA k t) dt."""
    if r <= 0:
        raise ValueError("need r > 0")
    rows, partners = _range_rows(f, 0.0, r)
    value = partners.pop(k, None)
    if value is not None:
        return value
    w = 2.0 * _TWO_PI * DELTA * k.value
    return _keep_partner(partners, k, _transform(rows, w) / r)


def _sample_sum(samples: list[float], values: list[float], w: float) -> complex:
    """sum_j f(u_j) exp(-i w u_j) over the samples f(u_j) at the values u_j."""
    nw = -1j * w
    exp = cmath.exp
    return sum(fu * exp(nw * u) for fu, u in zip(samples, values))


def coeff_sum(k: Frequency, f: LocalFunction, data: DataPointSet) -> complex:
    """Data-point estimator (1/N^2) sum_j f(u_j) exp(-2 pi i 2 DELTA k u_j)."""
    partners = data.partners(f)
    value = partners.pop(k, None)
    if value is not None:
        return value
    total = _sample_sum(data.samples(f), data.values, 2.0 * _TWO_PI * DELTA * k.value)
    return _keep_partner(partners, k, total / (data.n * data.n))


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
