"""Discretization of the torus along the physical line.

The N-fold refined lattice meets the fundamental cell in the N^2
representatives s = (i + j*tau)/N.  The line (t, 0), t >= 0, wraps through
the cell in segments separated by the crossing times m*sqrt5 (internal
coordinate wrap) and m*tau*sqrt5 (physical coordinate wrap); each segment is
the original line translated back by a lattice point.  Matching every
representative with the segment passing nearest in internal space yields the
data points u = s + t used by the sum estimator, and sampled oscillation
bounds for a lift G control the quadrature error:

    |integral_C G - (sqrt5/N^2) sum G(s_i)|  <=  sqrt5 * eps_n
    |integral_C G - (sqrt5/N^2) sum G(u_j, 0)| <  sqrt5 * (eps_n + eps_n_prime)

Both oscillations are maxima over members of runs: eps_n over the sub-cells
of each row of the refined lattice, eps_n_prime over the strip columns at
each sampled abscissa.  One search (_largest) halves runs in order of
decreasing bound and samples only single members, until no bound left
exceeds the largest sample; each maximum equals the value from sampling
every member bit for bit, because a run's bound is at least the sampled
oscillation of each of its members.  The bound is hi - lo of
TorusLift.range_on over the run grown by 1e-9, or inf when the grown run
crosses support copies.  The margin is far above the ~1e-15 rounding of a
sample's coordinates, so every sample of a member lies in the grown run; a
copy is a rectangle, so it holds the run when it holds the corners, and the
sample locates to that copy, with a chart abscissa between the corners'.
On one copy every sample is c + m*u with u inside the range that range_on
evaluates, and rounding is monotone, so each sample lies between range_on's
two end values and the rounded difference of two samples is no larger than
the rounded bound.  No slack is needed, and a zero range gives a bound of
exactly 0.0: a constant lift, and every strip column inside one copy (where
the lift depends on x alone), is not sampled at all.

The representatives are embedded as i/n + (j/n)*tau and i/n + (j/n)*tau'
from a generator; i/n is the correctly rounded float of Fraction(i, n), so
these are QTau.embed's values bit for bit, without embedding n^2 QTau.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

from .fibonacci import LocalFunction, TorusLift
from .ztau import SQRT5, TAU, TAU_STAR, QTau, ZTau

log = logging.getLogger(__name__)

_U_WRAP = TAU * SQRT5  # physical lattice coordinate wraps at multiples of this
_V_WRAP = SQRT5        # internal lattice coordinate wraps at multiples of this
_MATCH_TOL = 1e-9      # data-point sets agree where their u differ by at most this
# error_estimate samples a _CELL_SAMPLES^2 grid per refined sub-cell and, per
# strip, _STRIP_Y_SAMPLES heights at each of _STRIP_X_SAMPLES abscissae
_CELL_SAMPLES = 10
_STRIP_X_SAMPLES = 40
_STRIP_Y_SAMPLES = 5
# error_estimate bounds a run of sub-cells or strip columns grown by
# _BOUND_MARGIN (see the module docstring) and samples a strip column between
# the strip's edges moved in by _STRIP_SHRINK
_BOUND_MARGIN = 1e-9
_STRIP_SHRINK = 1e-9
#: path_decomposition refuses a path of more segments than this (README,
#: "Range"); a range of 1e6 takes 723,606
SEGMENT_LIMIT = 1_000_000


def _embedded_reps(n: int) -> Iterator[tuple[int, int, float, float]]:
    """(i, j, x, x') of each representative (i + j*tau)/n, 0 <= i, j < n,
    with j varying fastest.  float(Fraction(i, n)) and i / n are both the
    correctly rounded quotient, so (x, x') equals QTau.embed's pair bit for
    bit."""
    for i in range(n):
        fi = i / n
        for j in range(n):
            fj = j / n
            yield i, j, fi + fj * TAU, fi + fj * TAU_STAR


class Segment(NamedTuple):
    t_enter: float
    t_exit: float
    translate: ZTau  # lattice point (t, t') subtracted to re-enter the cell


class _Target(NamedTuple):
    """A segment's translate t and its embedding (t, t'), which _assemble
    adds to every representative matched with the segment; -t' is the
    segment's height."""

    translate: ZTau
    x: float
    x_star: float


@dataclass
class PathDecomposition:
    segments: list[Segment]
    r: float
    m: int

    @cached_property
    def targets(self) -> list[_Target]:
        """The target of each segment, in order: each translate is embedded
        once, and the strips and both data-point matchings read these."""
        return [_Target(seg.translate, *seg.translate.embed()) for seg in self.segments]

    @cached_property
    def strips(self) -> tuple[list[_Target], list[float]]:
        """Segment targets sorted by height and the edges of their
        horizontal strips: tau', the midpoints between consecutive heights,
        then 1."""
        order = sorted(self.targets, key=lambda target: -target.x_star)
        b = [-target.x_star for target in order]
        return order, [TAU_STAR, *(0.5 * (lo + hi) for lo, hi in zip(b, b[1:])), 1.0]


def _crossings(limit_count: int | None, limit_r: float | None):
    iu, iv = 1, 1
    out: list[tuple[str, float]] = []
    while True:
        tu = iu * _U_WRAP
        tv = iv * _V_WRAP
        if tv <= tu:
            kind, t = "v", tv
            iv += 1
        else:
            kind, t = "u", tu
            iu += 1
        if limit_r is not None and t > limit_r:
            return out
        out.append((kind, t))
        if limit_count is not None and len(out) == limit_count:
            return out


def path_decomposition(
    passes: int | None = None, range_r: float | None = None
) -> PathDecomposition:
    """Cut the line [0, R] into complete passes through the cell.

    Exactly one of `passes` (number of segments) and `range_r` may be given;
    a raw range is truncated down to the largest crossing time <= range_r so
    that only complete passes remain.  A path of more than SEGMENT_LIMIT
    segments is refused before any is built; a range counts one per
    crossing, floor(R/(tau sqrt5)) + floor(R/sqrt5).
    """
    if (passes is None) == (range_r is None):
        raise ValueError("give exactly one of passes and range_r")
    if passes is not None:
        if passes < 1:
            raise ValueError("need passes >= 1")
        count = passes
    else:
        # a nan or infinite range fails the comparison
        if not _V_WRAP <= range_r < math.inf:
            raise ValueError(f"range must be finite and cover one pass (>= {_V_WRAP:.6f})")
        count = math.floor(range_r / _U_WRAP) + math.floor(range_r / _V_WRAP)
    if count > SEGMENT_LIMIT:
        raise ValueError(f"the path would have {count} segments, more than {SEGMENT_LIMIT}")
    crossings = _crossings(passes, range_r)
    segments: list[Segment] = []
    t0 = 0.0
    cu = cv = 0
    for kind, t in crossings:
        segments.append(Segment(t0, t, ZTau(cu, cv)))
        if kind == "u":
            cu += 1
        else:
            cv += 1
        t0 = t
    r = segments[-1].t_exit
    return PathDecomposition(segments, r, len(segments))


class DataPoint(NamedTuple):
    u: float
    s: QTau
    translate: ZTau
    residual: float  # |s' + t'|, internal distance from the matched segment


@dataclass(eq=False)
class DataPointSet:
    """The data points of one path, compared by identity (so fourier can
    key its memo by the set)."""

    n: int
    m: int
    r: float
    points: list[DataPoint]

    @cached_property
    def values(self) -> list[float]:
        return [p.u for p in self.points]

    def __len__(self) -> int:
        return len(self.points)


def _assemble(n: int, path: PathDecomposition, choose: Callable[[float], _Target]) -> DataPointSet:
    """One data point per representative s, on the segment choose(s') picks."""
    fracs = [Fraction(i, n) for i in range(n)]
    pts = []
    for i, j, x, x_star in _embedded_reps(n):
        translate, tx, tx_star = choose(x_star)
        pts.append(DataPoint(x + tx, QTau(fracs[i], fracs[j]), translate, abs(x_star + tx_star)))
    pts.sort(key=lambda p: p.u)
    return DataPointSet(n, path.m, path.r, pts)


def data_points(n: int, path: PathDecomposition) -> DataPointSet:
    """One data point u = s + t per representative, choosing the pass
    translate with minimal internal residual |s' + t'| (ties: smaller t).

    The nearest heights below and above s' are found by bisecting the sorted
    segment heights; every height at the same distance joins the argmin, so
    the pick is that of the brute-force minimum over all segments.
    """
    rows = sorted((-target.x_star, target.x, i, target) for i, target in enumerate(path.targets))
    heights = [row[0] for row in rows]
    last = len(rows) - 1

    def choose(ss: float) -> _Target:
        i = bisect_left(heights, ss)
        lo, hi = max(i - 1, 0), min(i, last)
        d_lo, d_hi = abs(ss - heights[lo]), abs(ss - heights[hi])
        d = min(d_lo, d_hi)
        # keep the nearer side; |s' - h| is monotone on either side of s',
        # so the heights at distance d are adjacent
        if d_lo > d:
            lo = hi
        if d_hi > d:
            hi = lo
        while lo > 0 and abs(ss - heights[lo - 1]) == d:
            lo -= 1
        while hi < last and abs(ss - heights[hi + 1]) == d:
            hi += 1
        if lo == hi:
            return rows[lo][3]
        return min(rows[lo : hi + 1], key=lambda row: (abs(ss - row[0]), row[1], row[2]))[3]

    return _assemble(n, path, choose)


def strip_projection_oracle(n: int, path: PathDecomposition) -> DataPointSet:
    """Alternative translate selection via horizontal strips.

    The cell is sliced at the midpoints between consecutive sorted segment
    heights (outer edges tau' and 1); each representative projects onto the
    unique segment running through its strip.  A representative exactly on a
    strip boundary joins the strip below it.
    """
    order, c = path.strips

    def choose(ss: float) -> _Target:
        idx = bisect_left(c, ss)
        if idx < 1 or idx > len(order):
            raise RuntimeError("representative escaped the strip partition")
        return order[idx - 1]

    return _assemble(n, path, choose)


def compare_data_points(a: DataPointSet, b: DataPointSet) -> list[int]:
    """Indices where two equally sized data-point sets disagree (logged)."""
    if len(a) != len(b):
        raise ValueError("data-point sets differ in size")
    bad = [
        j
        for j, (pa, pb) in enumerate(zip(a.points, b.points))
        if abs(pa.u - pb.u) > _MATCH_TOL
    ]
    for j in bad:
        log.info(
            "data point %d differs: %.12g vs %.12g", j, a.points[j].u, b.points[j].u
        )
    return bad


class ErrorEstimate(NamedTuple):
    eps_n: float
    eps_n_prime: float
    bound: float


def _cell_chord(x: float) -> tuple[float, float]:
    # internal extent {y : (x, y) in cell}, from 0 <= (x-y)/sqrt5 < 1 and
    # 0 <= x - tau*(x-y)/sqrt5 < 1
    lo = max(x - SQRT5, x - SQRT5 * (x / TAU))
    hi = min(x, x - SQRT5 * ((x - 1.0) / TAU))
    return lo, hi


def _spread(lift: TorusLift, corners: list[tuple[float, float]]) -> float:
    """hi - lo of lift.range_on(corners), or inf when they lie in different
    support copies."""
    span = lift.range_on(corners)
    return math.inf if span is None else span[1] - span[0]


def _subcell_bound(lift: TorusLift, n: int, i: int, j0: int, j1: int) -> float:
    """The bound of the run of refined sub-cells [i/n, (i+1)/n] x [j0/n, j1/n]
    in lattice coordinates, grown by _BOUND_MARGIN."""
    step = 1.0 / n
    us = (i * step - _BOUND_MARGIN, i * step + step + _BOUND_MARGIN)
    vs = (j0 * step - _BOUND_MARGIN, j1 * step + _BOUND_MARGIN)
    return _spread(lift, [(u + v * TAU, u + v * TAU_STAR) for u in us for v in vs])


def _column_bound(lift: TorusLift, x: float, lo: float, hi: float) -> float:
    """The bound of the vertical run of strip columns from (x, lo) to (x, hi),
    grown by _BOUND_MARGIN."""
    return _spread(lift, [(x, lo - _BOUND_MARGIN), (x, hi + _BOUND_MARGIN)])


def _largest(
    runs: list[tuple[object, int, int]],
    bound: Callable[..., float],
    sample: Callable[..., float],
) -> float:
    """The largest sample(key, j) over the members j0 <= j < j1 of the runs
    (key, j0, j1), or 0.0, where bound(key, j0, j1) is at least the sample of
    each member.  Runs are taken in order of decreasing bound: a longer run
    is halved and both halves go back in, a single member is sampled.  Once
    no bound left is larger than the largest sample, no member left can
    raise it, so the result equals the largest of all samples bit for bit.
    """
    heap = [(-bound(*run), run) for run in runs]
    heapq.heapify(heap)
    best = 0.0
    while heap and -heap[0][0] > best:
        key, j0, j1 = heapq.heappop(heap)[1]
        if j1 - j0 == 1:
            best = max(best, sample(key, j0))
            continue
        k = (j0 + j1) // 2
        for half in ((key, j0, k), (key, k, j1)):
            heapq.heappush(heap, (-bound(*half), half))
    return best


def error_estimate(lift: TorusLift, n: int, path: PathDecomposition) -> ErrorEstimate:
    """Sampled oscillation bounds for the two-step quadrature.

    eps_n is the largest oscillation of the lift over any refined sub-cell
    (sampled on a _CELL_SAMPLES^2 grid); eps_n_prime is the largest vertical
    oscillation within any strip of the path decomposition (sampled at
    _STRIP_Y_SAMPLES heights on the column at each of _STRIP_X_SAMPLES
    abscissae).  Sampling makes both lower bounds of the true suprema; they
    are reported as computed.  Both are taken by _largest, over the rows of
    sub-cells and over the columns at each abscissa (see the module
    docstring).
    """
    step = 1.0 / n
    offs = [k / (_CELL_SAMPLES - 1.0) * step for k in range(_CELL_SAMPLES)]

    def cell(i: int, j: int) -> float:
        us = [i * step + du for du in offs]
        vs = [j * step + dv for dv in offs]
        # min and max of the list keep the first extreme, as running ones do
        vals = [lift.evaluate_torus(u + v * TAU, u + v * TAU_STAR) for u in us for v in vs]
        return max(vals) - min(vals)

    eps_n = _largest([(i, 0, n) for i in range(n)], partial(_subcell_bound, lift, n), cell)

    # column k at abscissa x runs between the edges of strip k, cut to the
    # cell's chord (lo, hi) at x and moved in by _STRIP_SHRINK
    _, edges = path.strips
    strips = []
    for ix in range(_STRIP_X_SAMPLES):
        x = (ix + 0.5) / _STRIP_X_SAMPLES * (1.0 + TAU)
        lo, hi = _cell_chord(x)
        # columns outside [first, last) miss the chord and are empty
        first = max(bisect_right(edges, lo) - 1, 0)
        last = min(bisect_left(edges, hi), len(edges) - 1)
        if first < last:
            strips.append(((x, lo, hi), first, last))

    def cut(chord: tuple[float, float, float], k0: int, k1: int) -> tuple[float, float, float]:
        # x, the bottom of column k0 and the top of column k1 - 1
        x, lo, hi = chord
        return x, max(edges[k0], lo) + _STRIP_SHRINK, min(edges[k1], hi) - _STRIP_SHRINK

    def columns_bound(chord: tuple[float, float, float], k0: int, k1: int) -> float:
        return _column_bound(lift, *cut(chord, k0, k1))

    def strip(chord: tuple[float, float, float], k: int) -> float:
        x, lo, hi = cut(chord, k, k + 1)
        if lo >= hi:
            return 0.0
        vals = [
            lift.evaluate_torus(x, lo + (hi - lo) * iy / (_STRIP_Y_SAMPLES - 1.0))
            for iy in range(_STRIP_Y_SAMPLES)
        ]
        return max(vals) - min(vals)

    eps_p = _largest(strips, columns_bound, strip)
    return ErrorEstimate(eps_n, eps_p, SQRT5 * (eps_n + eps_p))


def cell_quadrature(lift: TorusLift, n: int) -> float:
    """(sqrt5/n^2) * sum of the lift over the refined representatives."""
    total = 0.0
    for _, _, x, x_star in _embedded_reps(n):
        total += lift.evaluate_torus(x, x_star)
    return SQRT5 * total / (n * n)


def data_quadrature(f: LocalFunction, data: DataPointSet) -> float:
    """(sqrt5/n^2) * sum of the local function over the data points."""
    total = 0.0
    for value in f.values_at(data.values):
        total += value
    return SQRT5 * total / (data.n * data.n)
