"""Exact arithmetic for the golden-ratio ring Z[tau] and its rational span.

tau = (1 + sqrt5)/2 satisfies tau**2 = tau + 1.  An element a + b*tau is kept
as its coefficient pair (a, b); conjugation sends tau to 1 - tau and swaps the
two real embeddings (physical and internal).  Every order decision reduces to
integer comparisons, never to floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

TAU: float = (1.0 + math.sqrt(5.0)) / 2.0
TAU_STAR: float = 1.0 - TAU
SQRT5: float = math.sqrt(5.0)
# Pairing rates of the scheme: <(k, k'), (t, 0)> = 2*DELTA*k*t and
# <(k, k'), (0, u)> = 2*DELTA_STAR*k'*u.  Both constants are positive.
DELTA: float = 1.0 / (TAU * TAU + 1.0)
DELTA_STAR: float = 1.0 / (TAU_STAR * TAU_STAR + 1.0)


class ArithmeticCapacityError(ArithmeticError):
    """An exact value grew past what the float range can represent."""


class EmbeddedPair(NamedTuple):
    x: float
    x_star: float


def _sign_root5(u: int, v: int) -> int:
    # sign of u + v*sqrt5; u*u == 5*v*v only when u == v == 0
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    su = 1 if u > 0 else -1
    sv = 1 if v > 0 else -1
    if su == sv:
        return su
    return su if u * u > 5 * v * v else sv


RationalLike = Union[int, Fraction]


class QTau:
    """a + b*tau with rational coefficients, the fraction field over Z[tau].

    The arithmetic, order and embeddings are written here once and inherited
    by ZTau.  A result is a ZTau exactly when both operands are ZTau or int;
    otherwise it is a QTau.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        # a Fraction is immutable, so one given as such is kept as it is
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.a!r}, {self.b!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QTau):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0
        return NotImplemented

    def __hash__(self) -> int:
        # a rational element equals its int/Fraction, so it must hash like it
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def _operand(self, other: QTau | RationalLike) -> tuple[QTau, type[QTau]]:
        """`other` as an element, and the class of a result combining it with self."""
        if not isinstance(other, QTau):
            other = ZTau(other) if isinstance(other, int) else QTau(other)
        integral = isinstance(self, ZTau) and isinstance(other, ZTau)
        return other, ZTau if integral else QTau

    def __add__(self, other: QTau | RationalLike) -> QTau:
        o, cls = self._operand(other)
        return cls(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QTau | RationalLike) -> QTau:
        o, cls = self._operand(other)
        return cls(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QTau | RationalLike) -> QTau:
        o, cls = self._operand(other)
        return cls(o.a - self.a, o.b - self.b)

    def __neg__(self) -> QTau:
        return type(self)(-self.a, -self.b)

    def __mul__(self, other: QTau | RationalLike) -> QTau:
        o, cls = self._operand(other)
        # (a + b*tau)(c + d*tau) = ac + bd + (ad + bc + bd)*tau
        a, b, c, d = self.a, self.b, o.a, o.b
        return cls(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conj(self) -> QTau:
        return type(self)(self.a + self.b, -self.b)

    def embed(self) -> EmbeddedPair:
        try:
            fa = float(self.a)
            fb = float(self.b)
        except OverflowError as exc:
            raise ArithmeticCapacityError("coefficients exceed float range") from exc
        return EmbeddedPair(fa + fb * TAU, fa + fb * TAU_STAR)

    @property
    def value(self) -> float:
        return self.embed().x

    def scaled_pair(self) -> tuple[int, int, int]:
        """Integers (A, B, d) with self = (A + B*tau)/d and d > 0."""
        d = math.lcm(self.a.denominator, self.b.denominator)
        return int(self.a * d), int(self.b * d), d

    def sign(self) -> int:
        A, B, _ = self.scaled_pair()
        return _sign_root5(2 * A + B, B)

    def __lt__(self, other: QTau | RationalLike) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: QTau | RationalLike) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: QTau | RationalLike) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: QTau | RationalLike) -> bool:
        return (self - other).sign() >= 0


class ZTau(QTau):
    """a + b*tau with integer coefficients: the ring Z[tau] inside QTau."""

    __slots__ = ()

    def __init__(self, a: int = 0, b: int = 0) -> None:
        self.a = a
        self.b = b

    # bound here as well, so ZTau.embed and QTau.embed can be wrapped apart
    # (perfbench/spans.py traces both)
    embed = QTau.embed
