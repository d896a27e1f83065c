"""Cut-and-project machinery for the Fibonacci scheme.

Z[tau] embeds in the plane as the lattice {(x, x') : x in Z[tau]} where x' is
the conjugate embedding.  A window W in internal space selects the model set
Lambda(W) = {x : x' in W}; the default window [-1, 1/tau) yields the Fibonacci
point set with tile lengths tau (long) and 1 (short).  The dual lattice is
(1/2)Z[tau], so frequencies are half-integer pairs (half_a + half_b*tau)/2,
and the frequency content of an N-fold refinement is indexed by the quotient
classes (half_a mod N, half_b mod N).

Every window is exact: its endpoints lie in Q(tau), and a point's membership
is decided by integer comparisons.  A float endpoint is taken as the exact
rational it represents (ApproxWindow), so there is one membership test and no
tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .ztau import (
    SQRT5,
    TAU,
    TAU_STAR,
    QTau,
    ZTau,
    _sign_root5,
)

_TAG_MARGIN = 4.0  # enumeration overshoot so every kept point has a successor

#: positions are answered up to this magnitude (README, "Range"): beyond it
#: the float error of a position grows past the stated precision
POSITION_LIMIT = 1.0e9
# an enumeration may reach this far past the limit, so a slice padded around
# a query at the limit still takes in the tiles on both sides of it
_LIMIT_REACH = 32.0


def check_position(x: float, reach: float = 0.0) -> None:
    """Refuse a position beyond POSITION_LIMIT (by more than `reach`)."""
    if not abs(x) <= POSITION_LIMIT + reach:
        raise ValueError(f"position {x!r} is beyond the limit {POSITION_LIMIT:g}")


class Window:
    """Acceptance interval in internal space with exact Z[tau]-rational
    endpoints, half-open [lo, hi) by default."""

    __slots__ = ("lo", "hi", "includes_lo", "includes_hi", "_scaled_lo", "_scaled_hi")

    def __init__(
        self,
        lo: QTau,
        hi: QTau,
        includes_lo: bool = True,
        includes_hi: bool = False,
    ) -> None:
        if not isinstance(lo, QTau):
            lo = QTau(lo)
        if not isinstance(hi, QTau):
            hi = QTau(hi)
        if not lo < hi:
            raise ValueError("window endpoints must satisfy lo < hi")
        self.lo = lo
        self.hi = hi
        self.includes_lo = includes_lo
        self.includes_hi = includes_hi
        self._scaled_lo = lo.scaled_pair()
        self._scaled_hi = hi.scaled_pair()

    @classmethod
    def default(cls) -> Window:
        # [-1, 1/tau) with 1/tau = tau - 1
        return cls(QTau(-1), QTau(-1, 1))

    def shifted(self, offset: QTau) -> Window:
        return Window(self.lo + offset, self.hi + offset, self.includes_lo, self.includes_hi)

    def bounds_float(self) -> tuple[float, float]:
        return self.lo.embed().x, self.hi.embed().x

    def length(self) -> QTau:
        return self.hi - self.lo

    def __repr__(self) -> str:
        lb = "[" if self.includes_lo else "("
        rb = "]" if self.includes_hi else ")"
        return f"Window{lb}{self.lo!r}, {self.hi!r}{rb}"

    def contains_star(self, xa: int, xb: int) -> bool:
        """Membership test for the internal point xa + xb*tau, exact."""
        na, nb, d = self._scaled_lo
        ca = xa * d - na
        cb = xb * d - nb
        s = _sign_root5(2 * ca + cb, cb)
        if s < 0 or (s == 0 and not self.includes_lo):
            return False
        na, nb, d = self._scaled_hi
        ca = xa * d - na
        cb = xb * d - nb
        s = _sign_root5(2 * ca + cb, cb)
        if s > 0 or (s == 0 and not self.includes_hi):
            return False
        return True

    def contains(self, x: ZTau) -> bool:
        return self.contains_star(x.a + x.b, -x.b)


class ApproxWindow(Window):
    """A Window given by finite float endpoints, each taken as the exact
    rational it is (-0.9 is the double nearest -9/10), so membership is
    Window's exact test, with no tolerance."""

    __slots__ = ()

    def __init__(
        self, lo: float, hi: float, includes_lo: bool = True, includes_hi: bool = False
    ) -> None:
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("window endpoints must be finite and satisfy lo < hi")
        super().__init__(QTau(Fraction(lo)), QTau(Fraction(hi)), includes_lo, includes_hi)

    # bound here as well, so Window.contains_star and ApproxWindow.contains_star
    # can be wrapped apart (perfbench/spans.py traces both)
    contains_star = Window.contains_star


class ModelPoint(NamedTuple):
    value: float
    algebraic: ZTau
    # tile starting at this point: "long" (tau), "short" (1) or, on a window
    # of length other than tau, "other"
    tile: str


def _enumerate_raw(window: Window, lo: float, hi: float) -> list[tuple[float, int, int]]:
    """(a + b*tau, a, b) of the model-set points lo <= x <= hi, sorted by x."""
    w_lo, w_hi = window.bounds_float()
    out: list[tuple[float, int, int]] = []
    b_min = math.floor((lo - w_hi) / SQRT5) - 1
    b_max = math.ceil((hi - w_lo) / SQRT5) + 1
    guard = 1e-6
    for b in range(b_min, b_max + 1):
        bt = b * TAU
        bs = b * TAU_STAR
        a_min = math.floor(w_lo - bs) - 1
        a_max = math.ceil(w_hi - bs) + 1
        for a in range(a_min, a_max + 1):
            v = a + bt
            if v < lo or v > hi:
                continue
            xs = a + bs
            if xs < w_lo - guard or xs > w_hi + guard:
                continue
            if window.contains_star(a + b, -b):
                out.append((v, a, b))
    out.sort(key=itemgetter(0))
    return out


def _tagged_range(window: Window, lo: float, hi: float) -> list[tuple[float, int, int]]:
    """_enumerate_raw over [lo, hi + _TAG_MARGIN], after checking that the
    range is valid and that every point up to hi has a successor in it."""
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    check_position(lo, _LIMIT_REACH)
    check_position(hi, _LIMIT_REACH)
    raw = _enumerate_raw(window, lo, hi + _TAG_MARGIN)
    if raw and raw[-1][0] <= hi:
        raise RuntimeError("enumeration margin exhausted")
    return raw


#: the exact step (a, b) from a point to the next, by tile
_TILES = {(0, 1): "long", (1, 0): "short"}


def enumerate_model_set(window: Window, lo: float, hi: float) -> list[ModelPoint]:
    """All model-set points x with lo <= x <= hi, sorted, tagged by tile."""
    raw = _tagged_range(window, lo, hi)
    points: list[ModelPoint] = []
    for (v, a, b), (_, a1, b1) in zip(raw, raw[1:]):
        if v > hi:
            break
        points.append(ModelPoint(v, ZTau(a, b), _TILES.get((a1 - a, b1 - b), "other")))
    return points


def count_model_set(window: Window, lo: float, hi: float, closed: bool = True) -> int:
    """len(enumerate_model_set(window, lo, hi)), with the same checks, but
    counted without building points or tile tags; with closed=False the
    points at hi are left out."""
    raw = _tagged_range(window, lo, hi)
    return (bisect_right if closed else bisect_left)(raw, hi, key=itemgetter(0))


class Frequency(NamedTuple):
    """Dual-lattice point (half_a + half_b*tau)/2."""

    half_a: int
    half_b: int

    @property
    def value(self) -> float:
        return (self.half_a + self.half_b * TAU) / 2.0

    @property
    def value_star(self) -> float:
        return (self.half_a + self.half_b * TAU_STAR) / 2.0

    def __neg__(self) -> Frequency:
        return Frequency(-self.half_a, -self.half_b)

    @property
    def label(self) -> str:
        if self.half_a == 0 and self.half_b == 0:
            return "0"
        return f"({self.half_a:+d}{self.half_b:+d}tau)/2"


class FrequencySet:
    def __init__(self, n: int, reps: list[Frequency]) -> None:
        self.n = n
        self.reps = reps

    def __iter__(self):
        return iter(self.reps)

    def __len__(self) -> int:
        return len(self.reps)


#: the shifts j of half_b = q + n*j, nearest q in [0, n) first, so that an
#: early row sets a small best norm and later rows are skipped
_ROWS = (0, -1, 1, -2, 2, -3, 3)


def _minimal_rep(p: int, q: int, n: int) -> Frequency:
    """The least key (norm, |half_a| + |half_b|, half_a, half_b) over the
    members (p + n*i, q + n*j) of the class with -3 <= i, j <= 3.

    The norm 4(k^2 + k'^2) = 2a^2 + 2ab + 3b^2 = (2a + b)^2/2 + 5b^2/2 is
    strictly convex in a = half_a for fixed b = half_b, so a row's least
    norm, and the only other point that can tie with it, lie at the two
    shifts i next to a = -b/2, clamped to [-3, 3].  A row whose 5b^2/2
    already exceeds the best norm holds no candidate that can win.
    """
    best = (math.inf, 0, 0, 0)
    for j in _ROWS:
        hb = q + n * j
        if 5 * hb * hb > 2 * best[0]:
            continue
        i0 = (-hb - 2 * p) // (2 * n)
        for i in (i0, i0 + 1):
            ha = p + n * (-3 if i < -3 else 3 if i > 3 else i)
            key = (2 * ha * ha + 2 * ha * hb + 3 * hb * hb, abs(ha) + abs(hb), ha, hb)
            if key < best:
                best = key
    return Frequency(best[2], best[3])


def frequency_representatives(n: int) -> FrequencySet:
    """Minimal representatives of the N^2 dual quotient classes.

    Each class (half_a mod n, half_b mod n) is represented by the member
    minimizing the Euclidean norm of the embedded pair (k, k'); ties break
    toward the smaller coefficient sum |half_a| + |half_b|, then
    lexicographically.  Classes that are negatives of each other receive
    representatives that are negatives of each other.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    reps: list[Frequency] = []
    for p in range(n):
        neg_p = -p % n
        for q in range(n):
            neg = (neg_p, -q % n)
            if (p, q) > neg:
                continue
            rep = _minimal_rep(p, q, n)
            reps.append(rep)
            if neg != (p, q):
                reps.append(-rep)
    reps.sort()
    return FrequencySet(n, reps)
