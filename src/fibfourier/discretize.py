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

eps_n is sampled only where it can be set.  A run of refined sub-cells in
one row, grown by 1e-9 in lattice coordinates, that lies in one copy of a
support rectangle carries the lift's exact range over its x-range, read
from the lift's piece table, plus a slack of 1e-9 for the rounding of the
values; other runs carry inf.  Runs are halved in order of decreasing bound
down to single sub-cells, which are sampled, until a bound falls below the
largest oscillation sampled, so eps_n equals the value from sampling every
sub-cell bit for bit.  eps_n_prime is sampled only on strip columns that
cross from one support copy into another: on one copy the lift depends on x
alone, so a column there has oscillation exactly 0.0.  Runs of strips are
bisected per abscissa, and a run whose ends, grown by 1e-9, lie in one copy
is skipped whole; eps_n_prime equals the value from sampling every column
bit for bit.

The representatives are embedded as i/n + (j/n)*tau and i/n + (j/n)*tau'
from a generator; i/n is the correctly rounded float of Fraction(i, n), so
these are QTau.embed's values bit for bit, without embedding n^2 QTau.
"""

from __future__ import annotations

import logging
import math
import weakref
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

from .cutproject import Frequency
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
# error_estimate bounds a run of sub-cells grown by _BOUND_MARGIN in lattice
# coordinates and pads the bound by _BOUND_SLACK; it samples a strip column
# between the strip's edges moved in by _STRIP_SHRINK and skips a run of
# columns whose ends, pushed out by _BOUND_MARGIN, lie in one support copy
# (see error_estimate)
_BOUND_MARGIN = 1e-9
_BOUND_SLACK = 1e-9
_STRIP_SHRINK = 1e-9


def refinement_reps(n: int) -> list[QTau]:
    """The n^2 refined-lattice representatives (i + j*tau)/n, 0 <= i, j < n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [QTau(Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n)]


def _embedded_reps(n: int) -> Iterator[tuple[int, int, float, float]]:
    """(i, j, x, x') of each representative (i + j*tau)/n, in the order of
    refinement_reps.  float(Fraction(i, n)) and i / n are both the correctly
    rounded quotient, so (x, x') equals QTau.embed's pair bit for bit."""
    for i in range(n):
        fi = i / n
        for j in range(n):
            fj = j / n
            yield i, j, fi + fj * TAU, fi + fj * TAU_STAR


class Segment(NamedTuple):
    t_enter: float
    t_exit: float
    translate: ZTau  # lattice point (t, t') subtracted to re-enter the cell

    @property
    def height(self) -> float:
        # internal coordinate of the segment inside the cell
        return -self.translate.embed().x_star


@dataclass
class PathDecomposition:
    segments: list[Segment]
    r: float
    m: int

    @cached_property
    def strips(self) -> tuple[list[Segment], list[float]]:
        """Segments sorted by height and the edges of their horizontal
        strips: tau', the midpoints between consecutive heights, then 1."""
        order = sorted(self.segments, key=lambda seg: seg.height)
        b = [seg.height for seg in order]
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
    that only complete passes remain.
    """
    if (passes is None) == (range_r is None):
        raise ValueError("give exactly one of passes and range_r")
    if passes is not None:
        if passes < 1:
            raise ValueError("need passes >= 1")
        crossings = _crossings(passes, None)
    else:
        if range_r is None or range_r < _V_WRAP:
            raise ValueError(f"range must cover one pass (>= {_V_WRAP:.6f})")
        crossings = _crossings(None, range_r)
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


@dataclass
class DataPointSet:
    n: int
    m: int
    r: float
    points: list[DataPoint]
    _samples: weakref.WeakKeyDictionary[LocalFunction, list[float]] = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )
    _partners: weakref.WeakKeyDictionary[LocalFunction, dict[Frequency, complex]] = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    @cached_property
    def values(self) -> list[float]:
        return [p.u for p in self.points]

    def samples(self, f: LocalFunction) -> list[float]:
        """f at every data point, in order; evaluated once per live f, with
        f.values_at, which reads close points from one piece table."""
        values = self._samples.get(f)
        if values is None:
            values = self._samples[f] = f.values_at(self.values)
        return values

    def partners(self, f: LocalFunction) -> dict[Frequency, complex]:
        """Sum coefficients of f on these points left for the negatives of
        the frequencies they were computed at (see fourier.coeff_sum)."""
        return self._partners.setdefault(f, {})

    def __len__(self) -> int:
        return len(self.points)


#: a segment's translate t and its embedding (t, t'), which _assemble adds
#: to every representative matched with the segment
_Target = tuple[ZTau, float, float]


def _target(seg: Segment) -> _Target:
    emb = seg.translate.embed()
    return seg.translate, emb.x, emb.x_star


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
    rows = []
    for i, seg in enumerate(path.segments):
        target = _target(seg)
        _, tx, tx_star = target
        rows.append((-tx_star, tx, i, target))  # -t' is seg.height
    rows.sort()
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
    targets = [_target(seg) for seg in order]

    def choose(ss: float) -> _Target:
        idx = bisect_left(c, ss)
        if idx < 1 or idx > len(order):
            raise RuntimeError("representative escaped the strip partition")
        return targets[idx - 1]

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


def _subcell_bound(lift: TorusLift, n: int, i: int, j0: int, j1: int | None = None) -> float:
    """An upper bound on the lift's oscillation over the run of refined
    sub-cells [i/n, (i+1)/n] x [j0/n, j1/n] in lattice coordinates (j1
    defaults to j0 + 1, one sub-cell): the range of the lift's piece table
    over the run grown by _BOUND_MARGIN, plus _BOUND_SLACK; inf unless the
    grown run lies in one support copy.  The grown run holds the grown
    sub-cells of its members, corner by corner in floating point, so its
    bound is at least each member's."""
    if j1 is None:
        j1 = j0 + 1
    step = 1.0 / n
    us = (i * step - _BOUND_MARGIN, i * step + step + _BOUND_MARGIN)
    vs = (j0 * step - _BOUND_MARGIN, j1 * step + _BOUND_MARGIN)
    span = lift.range_on([(u + v * TAU, u + v * TAU_STAR) for u in us for v in vs])
    return math.inf if span is None else span[1] - span[0] + _BOUND_SLACK


def error_estimate(lift: TorusLift, n: int, path: PathDecomposition) -> ErrorEstimate:
    """Sampled oscillation bounds for the two-step quadrature.

    eps_n is the largest oscillation of the lift over any refined sub-cell
    (sampled on a _CELL_SAMPLES^2 grid); eps_n_prime is the largest vertical
    oscillation within any strip of the path decomposition.  Sampling makes
    both lower bounds of the true suprema; they are reported as computed.

    Only the sub-cells that can set eps_n are sampled.  A run of sub-cells
    j0 <= j < j1 in row i gets a bound (_subcell_bound): grown by
    _BOUND_MARGIN = 1e-9 in lattice coordinates, far above the ~1e-15
    rounding of the sample coordinates and far below 1/n, a run inside one
    support copy has the lift's exact range over its x-range there as bound,
    plus _BOUND_SLACK = 1e-9 for the rounding of c + m*u; any other run has
    bound inf.  A run's bound is at least the bound and the sampled
    oscillation of each of its sub-cells.  The runs start as one whole row
    each and are kept sorted by bound.  The run of largest bound is taken
    out: a longer run is halved and both halves go back in, a single
    sub-cell is sampled.  This stops when the largest bound left falls
    below the largest oscillation sampled so far: no sub-cell left can
    raise the maximum, so eps_n equals that of sampling every sub-cell bit
    for bit.  Bounds are positive, so a constant lift still samples every
    sub-cell.  At n = 81 about 2.1k runs are bounded, where bounding each
    sub-cell took 6561.

    Only the strip columns that cross support copies are sampled.  On one
    copy the lift depends on x alone, and the sample coordinates of a column
    share their x, so a column whose samples locate to one copy has
    oscillation exactly 0.0 and cannot raise eps_n_prime.  A copy is a
    rectangle, so it meets a vertical line in an interval: when both ends of
    a run of columns, pushed out by _BOUND_MARGIN = 1e-9, locate to the same
    copy, the heights between them lie in it too.  The margin is far above
    the ~1e-15 rounding of a sample height, and the abscissae lie more than
    5e-4 from every vertical edge of a copy, so each sample of the run
    locates to that copy as well, and the run is skipped whole.  Runs are
    halved until they lie in one copy or are single columns, which are
    sampled as before; eps_n_prime equals that of sampling every column bit
    for bit.
    """
    # sub-cell oscillation, sampled in lattice coordinates; runs holds
    # (bound, i, j0, j1) for runs of sub-cells in row i, largest bound last
    step = 1.0 / n
    offs = [k / (_CELL_SAMPLES - 1.0) * step for k in range(_CELL_SAMPLES)]
    runs = sorted((_subcell_bound(lift, n, i, 0, n), i, 0, n) for i in range(n))
    eps_n = 0.0
    while runs:
        bound, i, j0, j1 = runs.pop()
        if bound < eps_n:
            break
        if j1 - j0 > 1:
            k = (j0 + j1) // 2
            insort(runs, (_subcell_bound(lift, n, i, j0, k), i, j0, k))
            insort(runs, (_subcell_bound(lift, n, i, k, j1), i, k, j1))
            continue
        us = [i * step + du for du in offs]
        vs = [j0 * step + dv for dv in offs]
        # min and max of the list keep the first extreme, as running ones do
        vals = [lift.evaluate_torus(u + v * TAU, u + v * TAU_STAR) for u in us for v in vs]
        eps_n = max(eps_n, max(vals) - min(vals))

    # per-strip vertical oscillation, on the columns that cross copies
    _, edges = path.strips
    eps_p = 0.0
    for ix in range(_STRIP_X_SAMPLES):
        x = (ix + 0.5) / _STRIP_X_SAMPLES * (1.0 + TAU)
        eps_p = max(eps_p, _strip_oscillation(lift, x, edges))

    return ErrorEstimate(eps_n, eps_p, SQRT5 * (eps_n + eps_p))


def _strip_oscillation(lift: TorusLift, x: float, edges: list[float]) -> float:
    """The largest sampled oscillation over the strip columns at abscissa x.

    Column k runs between the strip's edges, cut to the cell's chord at x
    and moved in by _STRIP_SHRINK, and is sampled at _STRIP_Y_SAMPLES
    heights.  A run of columns whose outer ends, pushed out by
    _BOUND_MARGIN, locate to one support copy is skipped: each of its
    columns has oscillation exactly 0.0 (see error_estimate).  Other runs
    are halved, down to single columns, which are sampled.
    """
    ch_lo, ch_hi = _cell_chord(x)

    def column(k: int) -> tuple[float, float]:
        return max(edges[k], ch_lo) + _STRIP_SHRINK, min(edges[k + 1], ch_hi) - _STRIP_SHRINK

    def copy(y: float) -> tuple:
        return lift._locate(x, y)[:3]

    # columns outside [first, last) miss the chord and are empty
    first = max(bisect_right(edges, ch_lo) - 1, 0)
    last = min(bisect_left(edges, ch_hi), len(edges) - 1)
    if first >= last:
        return 0.0
    osc = 0.0
    bottom = copy(column(first)[0] - _BOUND_MARGIN)
    runs = [(first, last, bottom, copy(column(last - 1)[1] + _BOUND_MARGIN))]
    while runs:
        i, j, bottom, top = runs.pop()
        if bottom == top:
            continue
        if j - i == 1:
            lo, hi = column(i)
            if lo < hi:
                vals = [
                    lift.evaluate_torus(x, lo + (hi - lo) * iy / (_STRIP_Y_SAMPLES - 1.0))
                    for iy in range(_STRIP_Y_SAMPLES)
                ]
                osc = max(osc, max(vals) - min(vals))
            continue
        k = (i + j) // 2
        runs.append((i, k, bottom, copy(column(k - 1)[1] + _BOUND_MARGIN)))
        runs.append((k, j, copy(column(k)[0] - _BOUND_MARGIN), top))
    return osc


def cell_quadrature(lift: TorusLift, n: int) -> float:
    """(sqrt5/n^2) * sum of the lift over the refined representatives."""
    total = 0.0
    for _, _, x, x_star in _embedded_reps(n):
        total += lift.evaluate_torus(x, x_star)
    return SQRT5 * total / (n * n)


def data_quadrature(f: LocalFunction, data: DataPointSet) -> float:
    """(sqrt5/n^2) * sum of the local function over the data points."""
    return SQRT5 * sum(data.samples(f)) / (data.n * data.n)
