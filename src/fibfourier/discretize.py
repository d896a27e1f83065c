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
"""

from __future__ import annotations

import logging
import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

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


def refinement_reps(n: int) -> list[QTau]:
    """The n^2 refined-lattice representatives (i + j*tau)/n, 0 <= i, j < n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [QTau(Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n)]


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
    def heights(self) -> list[float]:
        return [seg.height for seg in self.segments]

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

    @cached_property
    def residuals(self) -> list[float]:
        return [p.residual for p in self.points]

    def samples(self, f: LocalFunction) -> list[float]:
        """f at every data point, in order; evaluated once per live f."""
        values = self._samples.get(f)
        if values is None:
            values = self._samples[f] = [f(u) for u in self.values]
        return values

    def partners(self, f: LocalFunction) -> dict[Frequency, complex]:
        """Sum coefficients of f on these points left for the negatives of
        the frequencies they were computed at (see fourier.coeff_sum)."""
        return self._partners.setdefault(f, {})

    def __len__(self) -> int:
        return len(self.points)


def _assemble(n: int, path: PathDecomposition, choose) -> DataPointSet:
    """One data point per representative s, on the segment choose(s') picks."""
    pts = []
    for s in refinement_reps(n):
        emb = s.embed()
        seg = choose(emb.x_star)
        temb = seg.translate.embed()
        pts.append(
            DataPoint(emb.x + temb.x, s, seg.translate, abs(emb.x_star + temb.x_star))
        )
    pts.sort(key=lambda p: p.u)
    return DataPointSet(n, path.m, path.r, pts)


def data_points(n: int, path: PathDecomposition) -> DataPointSet:
    """One data point u = s + t per representative, choosing the pass
    translate with minimal internal residual |s' + t'| (ties: smaller t).

    The nearest heights below and above s' are found by bisecting the sorted
    segment heights; every height at the same distance joins the argmin, so
    the pick is that of the brute-force minimum over all segments.
    """
    rows = sorted(
        (seg.height, seg.translate.embed().x, i, seg) for i, seg in enumerate(path.segments)
    )
    heights = [row[0] for row in rows]
    last = len(rows) - 1

    def choose(ss: float) -> Segment:
        i = bisect_left(heights, ss)
        lo, hi = max(i - 1, 0), min(i, last)
        d = min(abs(ss - heights[lo]), abs(ss - heights[hi]))
        # |s' - h| is monotone on either side of s', so equal distances are adjacent
        while lo > 0 and abs(ss - heights[lo - 1]) == d:
            lo -= 1
        while hi < last and abs(ss - heights[hi + 1]) == d:
            hi += 1
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

    def choose(ss: float) -> Segment:
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


def error_estimate(lift: TorusLift, n: int, path: PathDecomposition) -> ErrorEstimate:
    """Sampled oscillation bounds for the two-step quadrature.

    eps_n is the largest oscillation of the lift over any refined sub-cell
    (sampled on a _CELL_SAMPLES^2 grid); eps_n_prime is the largest vertical
    oscillation within any strip of the path decomposition.  Sampling makes
    both lower bounds of the true suprema; they are reported as computed.
    """
    # sub-cell oscillation, sampled in lattice coordinates
    eps_n = 0.0
    step = 1.0 / n
    offs = [k / (_CELL_SAMPLES - 1.0) * step for k in range(_CELL_SAMPLES)]
    for i in range(n):
        for j in range(n):
            u0 = i * step
            v0 = j * step
            mn = math.inf
            mx = -math.inf
            for du in offs:
                for dv in offs:
                    u = u0 + du
                    v = v0 + dv
                    g = lift.evaluate_torus(u + v * TAU, u + v * TAU_STAR)
                    mn = min(mn, g)
                    mx = max(mx, g)
            eps_n = max(eps_n, mx - mn)

    # per-strip vertical oscillation
    _, edges = path.strips
    eps_p = 0.0
    shrink = 1e-9
    for y0, y1 in zip(edges, edges[1:]):
        for ix in range(_STRIP_X_SAMPLES):
            x = (ix + 0.5) / _STRIP_X_SAMPLES * (1.0 + TAU)
            ch_lo, ch_hi = _cell_chord(x)
            lo = max(y0, ch_lo) + shrink
            hi = min(y1, ch_hi) - shrink
            if lo >= hi:
                continue
            vals = [
                lift.evaluate_torus(x, lo + (hi - lo) * iy / (_STRIP_Y_SAMPLES - 1.0))
                for iy in range(_STRIP_Y_SAMPLES)
            ]
            eps_p = max(eps_p, max(vals) - min(vals))

    return ErrorEstimate(eps_n, eps_p, SQRT5 * (eps_n + eps_p))


def cell_quadrature(lift: TorusLift, n: int) -> float:
    """(sqrt5/n^2) * sum of the lift over the refined representatives."""
    total = 0.0
    for s in refinement_reps(n):
        emb = s.embed()
        total += lift.evaluate_torus(emb.x, emb.x_star)
    return SQRT5 * total / (n * n)


def data_quadrature(f: LocalFunction, data: DataPointSet) -> float:
    """(sqrt5/n^2) * sum of the local function over the data points."""
    return SQRT5 * sum(data.samples(f)) / (data.n * data.n)
