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

One per-piece transform (_transform) serves line integrals, the lift's
pieces and the rectangles' internal extents (one constant piece each).  It
reads the pieces as columns (_Pieces): the distinct half-widths, and per
piece its midpoint, the slot of its half-width, A and B.  The estimators stay
one call per frequency, but the work that does not depend on k is done once,
in one memo keyed weakly by the lift (its pieces), the function (its pieces
over [lo, hi]) or the data-point set (f at each point).  A slot holds the
input its work was done for and is replaced when asked for another, so a
function keeps only its last range and a data-point set its last function.

A frequency costs one cos and one sin per data point (sum) or per piece, and
one sinc and h per distinct half-width (integral, exact), summed in plain
float loops from 0.0 with t = (-w) u:

* sum: re += f(u) cos t and im += f(u) sin t over the data points u;
* transform: with ar = A sinc and bh = B h, re += ar cos t + bh sin t and
  im += ar sin t - bh cos t over the pieces, t = (-w) mid;

and complex(re, im) is the result.  These are the bits of the per-term
complex formulas, f(u) exp(-i w u) and (A sinc - i B h) exp(-i w mid) added
in order from 0j.  Python multiplies complex numbers as
(a + ib)(c + id) = (ac - bd) + i(ad + bc), with a float read as (x, 0.0), and
-1j * w is complex(+-0.0, -w), so the exponent -1j * w * u is
complex(+-0.0, t) and cmath.exp gives (1.0 cos t, 1.0 sin t).  Each part of
each complex term is then the float expression above, except that a zero may
differ in sign; a sum from 0.0 is never -0.0, so the sign of a zero term does
not show.  The evaluation kernel below rests on the same argument.  No sum in
this module uses sum(): it is compensated for floats from Python 3.12 on and
for complex numbers from 3.14 on, and would round differently.

The functions and lifts are real, so a_{-k} = conj(a_k), and a pair k, -k
costs one pass of the kernel: computing a_k (k != 0) leaves
complex(re, 0.0 - im) in the slot as a_{-k}, and the next call at -k takes it
out instead of summing.  The mirror is bit-identical to a direct computation
at -k: k.value and k.value_star negate exactly, so every angle does; sin is
odd and cos even, so each term is conjugated exactly and the sum of the
terms too.  A direct sum starts at zero, so its imaginary part is never -0.0,
and 0.0 - im keeps it so where conj() would give -0.0.

Approximants are evaluated by one kernel, _evaluate, over a batch: the
approximant alone for Approximant.evaluate, all of a report's for evaluator
and sup_errors.  At its first evaluation an approximant reads its terms into
a plan: the distinct rows (re, im, p), with p = (2 DELTA) k.value taken once,
and the distinct row each term adds, in term order.  A term whose row equals
an earlier distinct row or its mirror (re, -im, -p) adds that row's value, so
a conjugate pair costs one cos and one sin.  Approximants of a batch whose
plans have the same p list share cos(theta) and sin(theta) with
theta = 2 pi (p x); each forms its own values re cos(theta) - im sin(theta)
and adds them in its own term order in a plain loop from 0.0.  Every value
equals, bit for bit, the real part of the term-by-term complex sum of
c.value * cmath.exp(1j * 2 pi * (2 DELTA k.value x)) from 0j in term order,
the reference the tests compare with:

* mirrored terms are equal: -(p x) and 2 pi (-(p x)) negate exactly, cos is
  even and sin odd (tests pin this for the libm in use), so
  re cos(-theta) - (-im) sin(-theta) rounds as re cos(theta) - im sin(theta);
  rows that compare equal differ at most in the sign of a zero, and so do
  their values;
* a shared cos or sin is the one each approximant would compute, because its
  p and x are the same, so each term is unchanged;
* each total keeps its term order from 0.0, so by the float-loop argument
  above it is the reference's real part: there the exponent
  1j * 2 pi * (p x) is complex(+-0.0, theta), and the real part of each
  product is re cos theta - im sin theta.

A periodic cosine baseline fitted on [0, 2] is included for comparison:
a_j = (1/2) int_0^2 f(x) cos(j pi x / 2) dx for every j including j = 0,
summed by the same kernel as f_cos(x) = sum_j a_j cos(j pi x / 2), from rows
(j pi / 2, a_j) in a plain loop from 0.0, with no pairs and nothing shared.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .cutproject import Frequency, FrequencySet
from .discretize import DataPointSet
from .fibonacci import LinearPiece, LocalFunction, TorusLift
from .ztau import DELTA, DELTA_STAR, SQRT5

_TWO_PI = 2.0 * math.pi

_Partners = dict[Frequency, complex]  # a_{-k} left by the computation of a_k


class _Pieces(NamedTuple):
    """Linear pieces as columns for _transform: the distinct half-widths,
    and per piece its midpoint, the slot of its half-width in halves, and
    A = 2 half (c + m mid) and B = 2 m half^2."""

    halves: list[float]
    mids: list[float]
    slots: list[int]
    a: list[float]
    b: list[float]


#: (input, work, partners); the input is None for a lift, the range (lo, hi)
#: for a function, and a weak reference to the function for a data-point set
_Slot = tuple[object, Any, _Partners]
#: one slot per live lift, function or data-point set
_MEMO: weakref.WeakKeyDictionary[object, _Slot] = weakref.WeakKeyDictionary()


def _rows(pieces: Iterable[LinearPiece]) -> _Pieces:
    """Pieces (x0, x1, c, m) as columns for _transform."""
    slot_of: dict[float, int] = {}
    columns = _Pieces([], [], [], [], [])
    for x0, x1, c, m in pieces:
        mid = 0.5 * (x0 + x1)
        half = 0.5 * (x1 - x0)
        slot = slot_of.get(half)
        if slot is None:
            slot = slot_of[half] = len(columns.halves)
            columns.halves.append(half)
        columns.mids.append(mid)
        columns.slots.append(slot)
        columns.a.append((c + m * mid) * 2.0 * half)
        columns.b.append(2.0 * m * half * half)
    return columns


def _transform(pieces: _Pieces, w: float) -> complex:
    """int (c + m x) exp(-i w x) dx summed over the pieces.

    Per piece, the integral over mid +- half is
    (A sinc(z) - i B h(z)) exp(-i w mid) with z = w*half,
    h(z) = (sin z - z cos z)/z^2 (series z/3 - z^3/30 near 0); sinc and h
    are taken once per distinct half-width.
    """
    sin, cos = math.sin, math.cos
    sincs = []
    hs = []
    for half in pieces.halves:
        z = w * half
        if abs(z) < 1e-4:
            sincs.append(1.0 if abs(z) < 1e-12 else sin(z) / z)
            hs.append(z / 3.0 - z * z * z / 30.0)
        else:
            s = sin(z)
            sincs.append(s / z)
            hs.append((s - z * cos(z)) / (z * z))
    nw = -w
    re = im = 0.0
    for mid, slot, a, b in zip(pieces.mids, pieces.slots, pieces.a, pieces.b):
        t = nw * mid
        c = cos(t)
        s = sin(t)
        ar = a * sincs[slot]
        bh = b * hs[slot]
        re += ar * c + bh * s
        im += ar * s - bh * c
    return complex(re, im)


def _slot(owner: object, given: object, work: Callable[..., Any], *args: Any) -> _Slot:
    """The owner's slot for the input `given`, made afresh with work(*args)
    when the owner has no slot or one for another input."""
    slot = _MEMO.get(owner)
    if slot is None or slot[0] != given:
        slot = _MEMO[owner] = (given, work(*args), {})
    return slot


def _coefficient(
    k: Frequency, slot: _Slot, scale: float, kernel: Callable[..., complex], *args: Any
) -> complex:
    """a_k: the partner left in the slot for k, if any, else
    kernel(work, *args, w) / scale on the slot's work, with w = 4 pi DELTA k
    the angular frequency on the line, leaving its conjugate for the next
    call at -k."""
    partners = slot[2]
    value = partners.pop(k, None)
    if value is None:
        value = kernel(slot[1], *args, 2.0 * _TWO_PI * DELTA * k.value) / scale
        if k.half_a or k.half_b:
            partners[-k] = complex(value.real, 0.0 - value.imag)
    return value


def _lift_rows(lift: TorusLift) -> list[tuple[float, _Pieces, _Pieces]]:
    """Per support rectangle of the lift, its midpoint abscissa, the rule's
    centred pieces and the internal extent (a constant piece)."""
    return [
        (sup.mid, _rows(sup.pieces), _rows([(sup.rect[2], sup.rect[3], 1.0, 0.0)]))
        for sup in lift.supports
    ]


def _rect_sum(rows: list[tuple[float, _Pieces, _Pieces]], k: Frequency, wx: float) -> complex:
    """Sum over the rows of _lift_rows of the x-transform at wx, moved to the
    rectangle's midpoint, times the y-transform at k's internal frequency."""
    wy = 2.0 * _TWO_PI * DELTA_STAR * k.value_star
    nwx = -1j * wx
    total = 0j
    for mid, x_pieces, y_pieces in rows:
        total += cmath.exp(nwx * mid) * _transform(x_pieces, wx) * _transform(y_pieces, wy)
    return total


def coeff_exact(k: Frequency, lift: TorusLift) -> complex:
    """Closed-form coefficient of any lift.

    The integral of the lift against exp(-4 pi i (k x DELTA + k' y DELTA_STAR))
    over each support rectangle is the x-transform of the rule's pieces,
    centred on the tile and moved to the rectangle's midpoint by a phase,
    times the y-transform of the rectangle's internal extent; the sum over
    the rectangles is divided by sqrt5, the cell area.
    """
    return _coefficient(k, _slot(lift, None, _lift_rows, lift), SQRT5, _rect_sum, k)


def _range_slot(f: LocalFunction, lo: float, hi: float) -> _Slot:
    """f's slot for the pieces of f clipped to [lo, hi], as columns."""
    return _slot(f, (lo, hi), lambda: _rows(f.linear_pieces(lo, hi)))


def line_integral(f: LocalFunction, w: float, lo: float, hi: float) -> complex:
    """int_lo^hi f(x) exp(-i w x) dx, exact on the piecewise-linear parts."""
    return _transform(_range_slot(f, lo, hi)[1], w)


def coeff_integral(k: Frequency, f: LocalFunction, r: float) -> complex:
    """Line-average estimator (1/R) int_0^R f exp(-2 pi i 2 DELTA k t) dt."""
    if r <= 0:
        raise ValueError("need r > 0")
    return _coefficient(k, _range_slot(f, 0.0, r), r, _transform)


def _sample_sum(samples: list[float], values: list[float], w: float) -> complex:
    """sum_j f(u_j) exp(-i w u_j) over the samples f(u_j) at the values u_j."""
    nw = -w
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for fu, u in zip(samples, values):
        t = nw * u
        re += fu * cos(t)
        im += fu * sin(t)
    return complex(re, im)


def coeff_sum(k: Frequency, f: LocalFunction, data: DataPointSet) -> complex:
    """Data-point estimator (1/N^2) sum_j f(u_j) exp(-2 pi i 2 DELTA k u_j)."""
    values = data.values
    slot = _slot(data, weakref.ref(f), f.values_at, values)
    return _coefficient(k, slot, data.n * data.n, _sample_sum, values)


class Coefficient(NamedTuple):
    k: Frequency
    value: complex


class _Plan(NamedTuple):
    """The distinct rows (re, im, p) of an approximant's terms, as columns,
    and the distinct row each term adds, in term order."""

    ps: tuple[float, ...]
    res: list[float]
    ims: list[float]
    order: list[int]


@dataclass
class Approximant:
    """Finite trigonometric sum, either over dual frequencies or the cosine
    baseline (period 4).

    The terms are read once, at the first evaluation, into a _Plan or, for
    the cosine baseline, rows (w, a); coeffs and cosine are not to be
    changed afterwards.  A table that is never evaluated (the coeffs and
    coefficient-table reports) holds no plan."""

    kind: str  # exact | integral | sum | cosine
    coeffs: list[Coefficient] = field(default_factory=list)
    cosine: list[float] = field(default_factory=list)
    _plan: _Plan | list[tuple[float, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _batch: _Batch | None = field(default=None, init=False, repr=False, compare=False)

    def _take_plan(self) -> _Plan | list[tuple[float, float]]:
        if self.kind == "cosine":
            self._plan = [(0.5 * math.pi * j, a) for j, a in enumerate(self.cosine)]
            return self._plan
        index: dict[tuple[float, float, float], int] = {}
        ps: list[float] = []
        res: list[float] = []
        ims: list[float] = []
        order: list[int] = []
        for c in self.coeffs:
            re, im, p = c.value.real, c.value.imag, 2.0 * DELTA * c.k.value
            i = index.get((re, im, p))
            if i is None:
                i = len(ps)
                ps.append(p)
                res.append(re)
                ims.append(im)
                index[re, im, p] = i
                index.setdefault((re, -im, -p), i)
            order.append(i)
        self._plan = _Plan(tuple(ps), res, ims, order)
        return self._plan

    def evaluate(self, x: float) -> float:
        """The real part of the sum at x, from the kernel over this
        approximant alone (see the module docstring for why it equals the
        term-by-term complex sum's real part bit for bit)."""
        batch = self._batch
        if batch is None:
            batch = self._batch = _Batch((self,))
        return _evaluate(batch, x)[0]

    def __call__(self, x: float) -> float:
        return self.evaluate(x)


class _Batch:
    """Approximants evaluated together by _evaluate.  Those whose plans have
    the same p list form one group, which shares cos and sin; the cosine
    baselines are summed on their own."""

    def __init__(self, aps: Sequence[Approximant]) -> None:
        groups: dict[tuple[float, ...], list[tuple[int, list[float], list[float], list[int]]]] = {}
        self.cosines: list[tuple[int, list[tuple[float, float]]]] = []
        for slot, ap in enumerate(aps):
            plan = ap._plan if ap._plan is not None else ap._take_plan()
            if isinstance(plan, _Plan):
                groups.setdefault(plan.ps, []).append((slot, plan.res, plan.ims, plan.order))
            else:
                self.cosines.append((slot, plan))
        self.size = len(aps)
        self.groups = list(groups.items())


def _evaluate(batch: _Batch, x: float) -> list[float]:
    """The values at x of the batch's approximants, in order: the one
    summation kernel."""
    cos, sin = math.cos, math.sin
    out = [0.0] * batch.size
    for ps, members in batch.groups:
        cs = []
        ss = []
        for p in ps:
            theta = _TWO_PI * (p * x)
            cs.append(cos(theta))
            ss.append(sin(theta))
        for slot, res, ims, order in members:
            terms = [re * c - im * s for re, im, c, s in zip(res, ims, cs, ss)]
            total = 0.0
            for i in order:
                total += terms[i]
            out[slot] = total
    for slot, rows in batch.cosines:
        total = 0.0
        for w, a in rows:
            total += a * cos(w * x)
        out[slot] = total
    return out


def evaluator(aps: Sequence[Approximant]) -> Callable[[float], list[float]]:
    """A function of x giving the values of all of aps at x, in order, each
    equal to ap.evaluate(x) bit for bit, from one kernel call."""
    batch = _Batch(aps)
    return lambda x: _evaluate(batch, x)


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


#: sup_errors takes its grid this many positions at a time, so its memory
#: does not grow with the number of samples
_SUP_CHUNK = 1000


def sup_errors(
    aps: Sequence[Approximant], f: LocalFunction, lo: float, hi: float, samples: int = 1000
) -> list[float]:
    """Largest |ap - f| over an inclusive equispaced grid, for each of aps.

    One pass over the grid reads f through values_at and evaluates all of
    aps with one kernel call per position; each result equals
    max(abs(ap.evaluate(x) - f(x)) for x in grid) bit for bit."""
    if samples < 2 or not lo < hi:
        raise ValueError("need lo < hi and samples >= 2")
    step = (hi - lo) / (samples - 1)
    batch = _Batch(aps)
    worst: list[float] = []
    for start in range(0, samples, _SUP_CHUNK):
        xs = [lo + i * step for i in range(start, min(start + _SUP_CHUNK, samples))]
        for x, fx in zip(xs, f.values_at(xs)):
            errors = [abs(v - fx) for v in _evaluate(batch, x)]
            # as max() does, keep the earlier error unless the later is larger
            worst = [e if e > w else w for e, w in zip(errors, worst)] if worst else errors
    return worst


def sup_error(
    ap: Approximant, f: LocalFunction, lo: float, hi: float, samples: int = 1000
) -> float:
    """Largest |ap - f| over an inclusive equispaced grid."""
    return sup_errors([ap], f, lo, hi, samples)[0]
