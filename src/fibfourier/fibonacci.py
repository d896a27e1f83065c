"""The Fibonacci point set, reference local functions on it, and their
periodic lifts to the scheme torus.

A local function is given by one tile rule: its linear pieces on a tile
[p, q) of type "long" (length tau) or "short" (length 1).  Two are provided:

* nearest_distance: t -> distance from t to the point set (tent over each
  tile, peak half the tile length);
* interval_sign: t -> +1 on long tiles, -1 on short tiles (value at a point
  is that of the tile starting there); a tile of another length, which a
  window of length other than tau makes, is refused.

A value at t depends only on the tiles near t, so each query is answered
from the enumerated slice of points around it, and its cost does not depend
on the queries made before it.  Positions are answered up to
cutproject.POSITION_LIMIT in magnitude.

The same rule defines the lift to the torus, supported on two rectangles,
one per tile type: for the default window the short-tile rectangle
[-1, 0) x (-1/tau, 0] and the long-tile rectangle [0, tau) x (-1/tau, 1/tau^2],
each carrying the rule on its tile.  A window of length tau moved by s moves
both rectangles by -s in the internal direction.  Restricted to the line
(t, 0) the lift reproduces the local function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Sequence

from .cutproject import ModelPoint, Window, check_position, enumerate_model_set
from .ztau import SQRT5, TAU, TAU_STAR, ZTau

INV_TAU = 1.0 / TAU
INV_TAU2 = 1.0 / (TAU * TAU)
# a PointContext enumerates this far beyond the queried range
_PAD = 16.0
# LocalFunction.values_at reads one piece table over at most this span
_BATCH_SPAN = 1024.0

NEAREST = "nearest_distance"
INTERVAL = "interval_sign"


def substitution_word(count: int) -> str:
    word = "a"
    while len(word) < count:
        word = "".join("ab" if c == "a" else "a" for c in word)
    return word[:count]


def substitution_points(count: int) -> list[ZTau]:
    """First `count` left endpoints of the tiling generated by a -> ab,
    b -> a from seed "a", starting at 0."""
    if count < 1:
        raise ValueError("need count >= 1")
    word = substitution_word(count)
    out = [ZTau(0, 0)]
    x = ZTau(0, 0)
    for c in word[: count - 1]:
        x = x + (ZTau(0, 1) if c == "a" else ZTau(1, 0))
        out.append(x)
    return out


class PointContext:
    """The model-set slice around the latest query.

    A query keeps the current slice while the slice's own tiles cover it;
    otherwise the slice is replaced by the points within _PAD of the query,
    so a query's cost and memory depend only on the span it asks for.

    Single-threaded use only; concurrent callers should materialize one
    context per worker.
    """

    def __init__(self, window: Window | None = None) -> None:
        self.window = window if window is not None else Window.default()
        self._slice: list[ModelPoint] | None = None

    def ensure(self, lo: float, hi: float) -> list[ModelPoint]:
        check_position(lo)
        check_position(hi)
        s = self._slice
        if s is None or lo < s[0].value or hi >= s[-1].value:
            s = self._slice = enumerate_model_set(self.window, lo - _PAD, hi + _PAD)
        return s


LinearPiece = tuple[float, float, float, float]  # (x0, x1, const, slope)
#: the pieces of a local function on one tile [p, q) of type "long" or "short"
TileRule = Callable[[float, float, str], list[LinearPiece]]


def _piece_value(pieces: list[LinearPiece], starts: list[float], t: float) -> float:
    """c + m*t from the piece of the table that holds t."""
    i = bisect_right(starts, t) - 1
    if i < 0 or t >= pieces[i][1]:
        raise RuntimeError("context coverage too small")
    _, _, c, m = pieces[i]
    return c + m * t


class LocalFunction:
    """A bounded function of the local tile pattern, piecewise linear.

    The tile rule is the single definition of the function.  Its pieces over
    the context's current slice form a contiguous piece table, rebuilt only
    when the context re-enumerates; point values and piece lists both read
    that table.
    """

    def __init__(self, rule: TileRule, window: Window | None = None) -> None:
        self.rule = rule
        self.context = PointContext(window)
        self._slice: list[ModelPoint] | None = None
        self._pieces: list[LinearPiece] = []
        self._starts: list[float] = []

    def _table(self, lo: float, hi: float) -> tuple[list[LinearPiece], list[float]]:
        s = self.context.ensure(lo, hi)
        if s is not self._slice:
            self._pieces = [
                piece for p, q in zip(s, s[1:]) for piece in self.rule(p.value, q.value, p.tile)
            ]
            self._starts = [piece[0] for piece in self._pieces]
            self._slice = s
        return self._pieces, self._starts

    def __call__(self, t: float) -> float:
        pieces, starts = self._table(t, t)
        return _piece_value(pieces, starts, t)

    def values_at(self, ts: Sequence[float]) -> list[float]:
        """f at each of the positions ts, which must ascend, as __call__
        gives it.

        Each stretch of positions whose neighbours lie within 2*_PAD, at
        most _BATCH_SPAN long, is read from one piece table.  That table
        enumerates no more points than one table per position would, and
        memory does not grow with the span of ts.  The table is bisected
        for the first position of a stretch and then walked forward: the
        pieces are contiguous, so the piece that holds each later position
        is the first from there whose end lies above it, the piece __call__
        bisects for.  A position below the one before it is refused.
        """
        out: list[float] = []
        append = out.append
        k, end = 0, len(ts)
        while k < end:
            first = ts[k]
            j = k + 1
            while j < end and 0.0 <= ts[j] - ts[j - 1] <= 2 * _PAD and ts[j] - first <= _BATCH_SPAN:
                j += 1
            if j < end and ts[j] < ts[j - 1]:
                raise ValueError(f"values_at needs ascending positions, got {ts[j]} after {ts[j - 1]}")
            pieces, starts = self._table(first, ts[j - 1])
            i = bisect_right(starts, first) - 1
            if i < 0:
                raise RuntimeError("context coverage too small")
            _, x1, c, m = pieces[i]
            for t in ts[k:j]:
                while t >= x1:
                    i += 1
                    if i == len(starts) or t < starts[i]:
                        raise RuntimeError("context coverage too small")
                    _, x1, c, m = pieces[i]
                append(c + m * t)
            k = j
        return out

    def linear_pieces(self, lo: float, hi: float) -> list[LinearPiece]:
        """Cover [lo, hi] by pieces (x0, x1, c, m) with f(x) = c + m*x."""
        if not lo < hi:
            raise ValueError("need lo < hi")
        pieces, starts = self._table(lo, hi)
        i = bisect_right(starts, lo) - 1
        j = bisect_left(starts, hi)
        if i < 0 or pieces[j - 1][1] < hi:
            raise RuntimeError("context coverage too small")
        out = pieces[i:j]
        x0, x1, c, m = out[0]
        out[0] = (max(x0, lo), x1, c, m)
        x0, x1, c, m = out[-1]
        out[-1] = (x0, min(x1, hi), c, m)
        return out


def _tent(p: float, q: float, tile: str) -> list[LinearPiece]:
    mid = 0.5 * (p + q)
    return [(p, mid, -p, 1.0), (mid, q, q, -1.0)]


def _step(p: float, q: float, tile: str) -> list[LinearPiece]:
    if tile == "other":
        raise ValueError(f"interval_sign has no sign for the tile [{p}, {q})")
    return [(p, q, 1.0 if tile == "long" else -1.0, 0.0)]


def nearest_distance(window: Window | None = None) -> LocalFunction:
    return LocalFunction(_tent, window)


def interval_sign(window: Window | None = None) -> LocalFunction:
    return LocalFunction(_step, window)


def constant(c: float) -> LocalFunction:
    return LocalFunction(lambda p, q, tile: [(p, q, c, 0.0)])


class Support(NamedTuple):
    """One support rectangle of a lift: its chart box (x0, x1, y0, y1) and
    the tile rule's pieces on it, read relative to the tile midpoint `mid`
    (a piece (u0, u1, c, m) gives c + m*(x - mid) for mid + u0 <= x < mid + u1)."""

    rect: tuple[float, float, float, float]
    mid: float
    pieces: list[LinearPiece]


#: (mid, inner piece ends, pieces) of one support rectangle, read by
#: TorusLift.evaluate_torus and TorusLift.range_on
_Table = tuple[float, list[float], list[LinearPiece]]


class TorusLift:
    """Periodic lift of a local function to the scheme torus.

    The lift is the tile rule read on the torus: it is supported on one
    rectangle per tile type, and on each it is the rule on a tile of that
    type centred at the origin, moved to the rectangle's midpoint.  Moving
    the window by s moves both rectangles by -s in the internal direction.
    Only windows of exactly length tau are taken, since other lengths give
    other tiles; the ends of a float window are rationals, so its length is
    never tau.
    """

    #: (x0, x1, y0, y1) of the supporting rectangles for the default window
    SHORT_RECT = (-1.0, 0.0, -INV_TAU, 0.0)
    LONG_RECT = (0.0, TAU, -INV_TAU, INV_TAU2)

    def __init__(self, rule: TileRule, window: Window | None = None) -> None:
        default = Window.default()
        if window is None:
            window = default
        if window.length() != default.length():
            raise ValueError("a torus lift needs an exact window of length tau")
        s = self._shift = (window.lo - default.lo).value
        supports = []
        for (x0, x1, y0, y1), tile in ((self.SHORT_RECT, "short"), (self.LONG_RECT, "long")):
            half = 0.5 * (x1 - x0)
            pieces = rule(-half, half, tile)
            supports.append(Support((x0, x1, y0 - s, y1 - s), 0.5 * (x0 + x1), pieces))
        self.supports = tuple(supports)
        self._short, self._long = (
            (sup.mid, [p[1] for p in sup.pieces[:-1]], sup.pieces) for sup in supports
        )

    @classmethod
    def constant(cls, c: float) -> TorusLift:
        return cls(constant(c).rule)

    def locate(self, x: float, y: float) -> tuple[int, int, _Table, float]:
        """The copy of the support that holds the plane point (x, y), and
        the point's place in it: the lattice point a + b*tau the copy is
        moved by, the piece table of its rectangle, and the chart abscissa
        xx = x - a - b*tau.  Two points lie in one copy exactly when their
        a, b and table (the same object) agree.

        The reduction runs on the default window's rectangles at (x, y + s).
        The copy that holds (x, y) lies in column b = floor((x - y)/sqrt5)
        or the next one; in column b the internal condition
        y - a - b*tau' in (-1/tau, 1/tau^2] fixes a, and the copy holds the
        point exactly when x - a - b*tau < tau.  One comparison per column
        leaves no seam for rounding to open, but the reduced coordinates
        carry an error that grows with ulp(|x|): on the line, values differ
        from the local function's by up to about 1e-7 at |x| near 1e9 and
        1.5e-6 near 1e10.  The position is not checked against
        POSITION_LIMIT.
        """
        y += self._shift
        b0 = math.floor((x - y) / SQRT5)
        for b in (b0, b0 + 1):
            a = math.ceil(y - b * TAU_STAR - INV_TAU2)
            xx = x - a - b * TAU
            if xx < TAU:
                return a, b, self._long if xx >= 0.0 else self._short, xx
        raise RuntimeError(f"torus reduction failed for ({x}, {y})")

    def evaluate_torus(self, x: float, y: float) -> float:
        """Value at any plane point, reduced modulo the scheme lattice."""
        _, _, (mid, ends, pieces), xx = self.locate(x, y)
        u = xx - mid
        _, _, c, m = pieces[bisect_right(ends, u)]
        return c + m * u

    def range_on(self, corners: Sequence[tuple[float, float]]) -> tuple[float, float] | None:
        """Least and greatest value of the lift on the convex hull of the
        plane points `corners`, or None when they lie in different copies
        of the support.

        A copy is a rectangle, so it holds the hull of any corners it holds,
        and on it the lift depends on x alone.  The range is then that of
        the piece table over the corners' chart abscissae, with the pieces
        read as evaluate_torus reads them (the first and last extend past
        the tile), so a rule that jumps inside a tile is covered too.  It
        is exact for the corners as given; rounding near the hull's edges
        is the caller's to allow for.
        """
        a, b, table, lo = self.locate(*corners[0])
        hi = lo
        for x, y in corners[1:]:
            loc = self.locate(x, y)
            if loc[0] != a or loc[1] != b or loc[2] is not table:
                return None
            lo, hi = min(lo, loc[3]), max(hi, loc[3])
        mid, ends, pieces = table
        lo -= mid
        hi -= mid
        first, last = bisect_right(ends, lo), bisect_right(ends, hi)
        values = []
        for k in range(first, last + 1):
            _, _, c, m = pieces[k]
            values.append(c + m * (lo if k == first else ends[k - 1]))
            values.append(c + m * (hi if k == last else ends[k]))
        return min(values), max(values)

    def cell_integral(self) -> float:
        """Integral over the fundamental cell (unnormalized)."""
        total = 0.0
        for (_, _, y0, y1), _, pieces in self.supports:
            line = 0.0
            for u0, u1, c, m in pieces:
                line += (c + m * (0.5 * (u0 + u1))) * (u1 - u0)
            total += (y1 - y0) * line
        return total


def torus_lift(descriptor: str) -> TorusLift:
    """The lift of a built-in function on the default window."""
    rules = {NEAREST: _tent, INTERVAL: _step}
    if descriptor not in rules:
        raise ValueError(f"unknown lift descriptor {descriptor!r}")
    return TorusLift(rules[descriptor])
