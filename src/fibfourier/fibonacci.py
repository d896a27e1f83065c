"""The Fibonacci point set, reference local functions on it, and their
periodic lifts to the scheme torus.

Two bounded functions determined by the local tile pattern are provided:

* nearest_distance: t -> distance from t to the point set (tent over each
  tile, peak half the tile length);
* interval_sign: t -> +1 on long tiles, -1 on short tiles (value at a point
  is that of the tile starting there).

Each lifts to a function on the torus supported on two rectangles, one per
tile type: the short-tile rectangle [-1, 0) x (-1/tau, 0] and the long-tile
rectangle [0, tau) x (-1/tau, 1/tau^2].  Restricted to the line (t, 0) the
lift reproduces the local function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Sequence

from .cutproject import (
    AnyWindow,
    ModelPoint,
    ModelSetSlice,
    Window,
    enumerate_model_set,
)
from .ztau import SQRT5, TAU, TAU_STAR, ZTau

INV_TAU = 1.0 / TAU
INV_TAU2 = 1.0 / (TAU * TAU)

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
    """Lazily extended materialization of a model-set slice.

    Single-threaded use only; concurrent callers should materialize one
    context per worker.
    """

    def __init__(self, window: AnyWindow | None = None, pad: float = 16.0) -> None:
        self.window = window if window is not None else Window.default()
        self.pad = pad
        self._slice: ModelSetSlice | None = None

    def ensure(self, lo: float, hi: float) -> ModelSetSlice:
        s = self._slice
        if s is None or lo < s.range_lo or hi > s.range_hi:
            new_lo = min(lo, s.range_lo if s else lo) - self.pad
            new_hi = max(hi, s.range_hi if s else hi) + self.pad
            # grow geometrically so repeated small extensions stay cheap
            width = new_hi - new_lo
            new_lo -= 0.25 * width
            new_hi += 0.25 * width
            self._slice = enumerate_model_set(self.window, new_lo, new_hi)
        return self._slice


LinearPiece = tuple[float, float, float, float]  # (x0, x1, const, slope)
#: the pieces of a local function on one tile [p, q)
TileRule = Callable[[ModelPoint, ModelPoint], list[LinearPiece]]


class LocalFunction:
    """A bounded function of the local tile pattern, piecewise linear.

    The tile rule is the single definition of the function.  Its pieces over
    the context's current slice form a contiguous piece table, rebuilt only
    when the context re-enumerates; point values and piece lists both read
    that table.
    """

    def __init__(self, rule: TileRule, window: AnyWindow | None = None) -> None:
        self.rule = rule
        self.context = PointContext(window)
        self._slice: ModelSetSlice | None = None
        self._pieces: list[LinearPiece] = []
        self._starts: list[float] = []

    def _table(self, lo: float, hi: float) -> tuple[list[LinearPiece], list[float]]:
        pad = self.context.pad / 2
        s = self.context.ensure(lo - pad, hi + pad)
        if s is not self._slice:
            pts = s.points
            self._pieces = [piece for p, q in zip(pts, pts[1:]) for piece in self.rule(p, q)]
            self._starts = [piece[0] for piece in self._pieces]
            self._slice = s
        return self._pieces, self._starts

    def __call__(self, t: float) -> float:
        pieces, starts = self._table(t, t)
        i = bisect_right(starts, t) - 1
        if i < 0 or t >= pieces[i][1]:
            raise RuntimeError("context coverage too small")
        _, _, c, m = pieces[i]
        return c + m * t

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


def _tent(p: ModelPoint, q: ModelPoint) -> list[LinearPiece]:
    mid = 0.5 * (p.value + q.value)
    return [(p.value, mid, -p.value, 1.0), (mid, q.value, q.value, -1.0)]


def _step(p: ModelPoint, q: ModelPoint) -> list[LinearPiece]:
    return [(p.value, q.value, 1.0 if p.tile == "long" else -1.0, 0.0)]


def nearest_distance(window: AnyWindow | None = None) -> LocalFunction:
    return LocalFunction(_tent, window)


def interval_sign(window: AnyWindow | None = None) -> LocalFunction:
    return LocalFunction(_step, window)


def constant(c: float) -> LocalFunction:
    return LocalFunction(lambda p, q: [(p.value, q.value, c, 0.0)])


class TorusLift:
    """Periodic lift of a local function, supported on two rectangles.

    `short` and `long` give the value at chart abscissa x on the short- and
    long-tile rectangle; `integral` is the integral over the fundamental
    cell (unnormalized), returned by cell_integral().
    """

    #: (x0, x1, y0, y1) of the supporting rectangles in the chart
    SHORT_RECT = (-1.0, 0.0, -INV_TAU, 0.0)
    LONG_RECT = (0.0, TAU, -INV_TAU, INV_TAU2)

    def __init__(
        self,
        descriptor: str,
        short: Callable[[float], float],
        long: Callable[[float], float],
        integral: float,
    ) -> None:
        self.descriptor = descriptor
        self.short = short
        self.long = long
        self._integral = integral

    @classmethod
    def constant(cls, c: float) -> TorusLift:
        return cls("user", lambda x: c, lambda x: c, c * SQRT5)  # cell area is sqrt5

    @property
    def rectangles(self) -> tuple[tuple[float, float, float, float], ...]:
        return (self.SHORT_RECT, self.LONG_RECT)

    def evaluate_torus(self, x: float, y: float) -> float:
        """Value at any plane point, reduced modulo the scheme lattice.

        The copy of the support at lattice point a + b*tau that holds (x, y)
        lies in column b = floor((x - y)/sqrt5) or the next one; in column b
        the internal condition y - a - b*tau' in (-1/tau, 1/tau^2] fixes a,
        and the copy holds the point exactly when x - a - b*tau < tau.  One
        comparison per column leaves no seam for rounding to open, but the
        reduced coordinates carry an error that grows with ulp(|x|).
        """
        b0 = math.floor((x - y) / SQRT5)
        for b in (b0, b0 + 1):
            a = math.ceil(y - b * TAU_STAR - INV_TAU2)
            xx = x - a - b * TAU
            if xx < TAU:
                return self.long(xx) if xx >= 0.0 else self.short(xx)
        raise RuntimeError(f"torus reduction failed for ({x}, {y})")

    def on_line(self, t: float) -> float:
        return self.evaluate_torus(t, 0.0)

    def cell_integral(self) -> float:
        """Integral over the fundamental cell (unnormalized)."""
        return self._integral


#: descriptor -> (short-rectangle value, long-rectangle value, cell integral)
_LIFTS: dict[str, tuple[Callable[[float], float], Callable[[float], float], float]] = {
    # tents peaking at half the tile length; their areas are (1/4)*height(1/tau)
    # on the short rectangle and (tau^2/4)*height(1) on the long one
    NEAREST: (
        lambda x: 0.5 - abs(x + 0.5),
        lambda x: TAU / 2.0 - abs(x - TAU / 2.0),
        0.25 * INV_TAU + 0.25 * TAU * TAU,
    ),
    INTERVAL: (lambda x: -1.0, lambda x: 1.0, TAU - INV_TAU),
}


def torus_lift(descriptor: str) -> TorusLift:
    if descriptor not in _LIFTS:
        raise ValueError(f"unknown lift descriptor {descriptor!r}")
    return TorusLift(descriptor, *_LIFTS[descriptor])


def point_sets_close(
    p: Sequence[float], q: Sequence[float], r: float, eps: float
) -> bool:
    """Whether two point sets agree to within eps on [-r, r].

    Both inputs must cover [-r - eps, r + eps]; every point of either set
    inside [-r, r] must be within eps of a point of the other.
    """
    ps = sorted(p)
    qs = sorted(q)
    for s in (ps, qs):
        if not s or s[0] > -r - eps or s[-1] < r + eps:
            raise ValueError("point list does not cover [-r-eps, r+eps]")

    def one_sided(a: list[float], b: list[float]) -> bool:
        for x in a:
            if x < -r or x > r:
                continue
            i = bisect_right(b, x)
            near = []
            if i > 0:
                near.append(abs(x - b[i - 1]))
            if i < len(b):
                near.append(abs(b[i] - x))
            if min(near) > eps:
                return False
        return True

    return one_sided(ps, qs) and one_sided(qs, ps)
