"""Exact arithmetic in the golden-ratio ring and its two embeddings."""

import math
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibfourier.ztau import (
    DELTA,
    DELTA_STAR,
    SQRT5,
    TAU,
    TAU_STAR,
    ArithmeticCapacityError,
    QTau,
    ZTau,
)


def test_constants():
    assert TAU == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    assert TAU_STAR == pytest.approx(1.0 - TAU, abs=1e-15)
    assert SQRT5 == pytest.approx(math.sqrt(5.0), rel=1e-15)
    # two equivalent closed forms for the slope density
    assert DELTA == pytest.approx(1.0 / (TAU**2 + 1.0), abs=1e-14)
    assert DELTA == pytest.approx(1.0 / (TAU * SQRT5), abs=1e-14)
    assert DELTA == pytest.approx(0.276393202250021, abs=1e-14)
    # the conjugate-line density is positive, not negative: tau* is negative
    # and delta* = 1/(tau*^2 + 1) = -1/(tau* sqrt5) > 0
    assert DELTA_STAR > 0.0
    assert DELTA_STAR == pytest.approx(1.0 / (TAU_STAR**2 + 1.0), abs=1e-14)
    assert DELTA_STAR == pytest.approx(0.723606797749979, abs=1e-14)
    # pairing identities that make the phase split exact
    assert DELTA + DELTA_STAR == pytest.approx(1.0, abs=1e-14)
    assert DELTA * TAU + DELTA_STAR * TAU_STAR == pytest.approx(0.0, abs=1e-14)


def test_multiplication_examples():
    tau = ZTau(0, 1)
    assert tau * tau == ZTau(1, 1)  # tau^2 = 1 + tau
    assert ZTau(1, 1) * ZTau(1, 1) == ZTau(2, 3)
    assert ZTau(2, 0) * ZTau(5, -7) == ZTau(10, -14)
    assert ZTau(1, 1) * ZTau(2, 1) == ZTau(3, 4)


def test_conjugation_examples():
    assert ZTau(0, 1).conj() == ZTau(1, -1)
    x = ZTau(3, 5)
    assert x.conj().conj() == x
    lhs = (ZTau(1, 1) * ZTau(2, 1)).conj()
    rhs = ZTau(1, 1).conj() * ZTau(2, 1).conj()
    assert lhs == rhs == ZTau(7, -4)


def test_conjugation_is_a_ring_automorphism():
    rng = random.Random(91)
    for _ in range(1000):
        x = ZTau(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        y = ZTau(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
    # and on the rational span
    for _ in range(200):
        q = QTau(
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
        )
        r = QTau(
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
        )
        assert (q * r).conj() == q.conj() * r.conj()


def test_embedding_examples():
    e = ZTau(0, 1).embed()
    assert e.x == pytest.approx(1.6180339887, abs=1e-9)
    assert e.x_star == pytest.approx(-0.6180339887, abs=1e-9)
    e = QTau(-1).embed()
    assert (e.x, e.x_star) == (-1.0, -1.0)
    e = QTau(Fraction(1, 2), Fraction(1, 2)).embed()
    assert e.x == pytest.approx(1.3090169944, abs=1e-9)
    assert e.x_star == pytest.approx(0.1909830056, abs=1e-9)


def test_embedding_is_multiplicative():
    rng = random.Random(3)
    for _ in range(500):
        x = ZTau(rng.randint(-999, 999), rng.randint(-999, 999))
        y = ZTau(rng.randint(-999, 999), rng.randint(-999, 999))
        p = (x * y).embed()
        ex, ey = x.embed(), y.embed()
        assert p.x == pytest.approx(ex.x * ey.x, rel=1e-10, abs=1e-10)
        assert p.x_star == pytest.approx(ex.x_star * ey.x_star, rel=1e-10, abs=1e-10)


def test_embedding_trace_and_difference():
    # x + x' = 2a + b and x - x' = b*sqrt5
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(-10**5, 10**5)
        b = rng.randint(-10**5, 10**5)
        e = ZTau(a, b).embed()
        assert e.x + e.x_star == pytest.approx(2 * a + b, rel=1e-12, abs=1e-9)
        assert e.x - e.x_star == pytest.approx(b * SQRT5, rel=1e-12, abs=1e-9)


def test_exact_order_beyond_float_precision():
    # F(60) - F(59) tau and F(61) - F(60) tau straddle zero, but both
    # evaluate to exactly 0.0 in double precision
    below = ZTau(1548008755920, -956722026041)
    above = ZTau(2504730781961, -1548008755920)
    assert below.value == 0.0 and above.value == 0.0
    assert below < ZTau(0, 0)
    assert above > ZTau(0, 0)
    assert below.sign() == -1
    assert above.sign() == 1
    assert (-below) > ZTau(0, 0)


def test_order_matches_floats_when_separated():
    rng = random.Random(23)
    for _ in range(500):
        x = ZTau(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
        y = ZTau(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
        if abs(x.value - y.value) > 1e-6:
            assert (x < y) == (x.value < y.value)
        assert x <= x and x >= x


def test_qtau_arithmetic_and_scaling():
    q = QTau(Fraction(1, 2), Fraction(-3, 4))
    assert q.scaled_pair() == (2, -3, 4)
    assert q + q == QTau(1, Fraction(-3, 2))
    # mixed operands coerce: tau * (1 + tau) = 1 + 2 tau
    assert QTau(1, 1) * ZTau(0, 1) == QTau(1, 2)
    assert 1 - QTau(0, 1) == QTau(1, -1)
    assert QTau(Fraction(5, 3)).scaled_pair() == (5, 0, 3)


def test_equality_and_hash_across_types():
    assert ZTau(3, 0) == 3
    assert QTau(3) == ZTau(3, 0)
    assert hash(ZTau(1, 2)) == hash(ZTau(1, 2))
    assert ZTau(1, 2) != ZTau(2, 1)
    # equal values hash alike, so rational elements mix with int/Fraction in sets
    assert 3 in {ZTau(3, 0)}
    assert Fraction(1, 2) in {QTau(Fraction(1, 2))}
    assert QTau(3) in {3} and ZTau(3, 0) in {QTau(3)}


class _Third(Fraction):
    """A Fraction subclass, which QTau must not keep as given."""


def test_qtau_stores_exact_fractions_from_any_rational():
    third = Fraction(1, 3)
    for a, b in [
        (3, -2),
        (True, False),
        (third, Fraction(-7, 4)),
        (_Third(1, 3), _Third(2, 3)),
        (_Third(1, 3), 0),
    ]:
        q = QTau(a, b)
        assert type(q.a) is Fraction and type(q.b) is Fraction
        fa, fb = Fraction(a), Fraction(b)
        assert (q.a, q.b) == (fa, fb)
        assert q == QTau(fa, fb) and hash(q) == hash(QTau(fa, fb))
        # a rational element hashes like its Fraction, any other like the pair
        assert hash(q) == (hash(fa) if fb == 0 else hash((fa, fb)))
        if fb == 0:
            assert q == fa and fa in {q}
    # a Fraction is immutable, so it is kept as given
    assert QTau(third).a is third


def test_mixed_operands_leave_the_ring():
    """A ZTau combined with a rational value is a QTau with the right value."""
    half = Fraction(1, 2)
    cases = [
        (ZTau(1, 0) + QTau(half), QTau(Fraction(3, 2))),
        (ZTau(1, 1) * QTau(Fraction(1, 3)), QTau(Fraction(1, 3), Fraction(1, 3))),
        (ZTau(1, 0) + half, QTau(Fraction(3, 2))),
    ]
    for got, expected in cases:
        assert type(got) is QTau
        assert (got.a, got.b) == (expected.a, expected.b)


# reference model: an element is a pair (a, b) of Fractions meaning a + b*tau
def _pair(x):
    return (Fraction(x.a), Fraction(x.b)) if isinstance(x, QTau) else (Fraction(x), Fraction(0))


def _ref_mul(p, q):
    # (a + b t)(c + d t) = ac + (ad + bc) t + bd t^2, reduced by t^2 = t + 1
    (a, b), (c, d) = p, q
    return a * c + b * d, a * d + b * c + b * d


def _ref_value(p):
    with localcontext() as ctx:
        ctx.prec = 60
        tau = (1 + Decimal(5).sqrt()) / 2
        return Decimal(p[0].numerator) / p[0].denominator + tau * (
            Decimal(p[1].numerator) / p[1].denominator
        )


_ints = st.integers(-10**6, 10**6)
_fracs = st.fractions(-10**4, 10**4, max_denominator=60)
_operands = st.one_of(
    st.builds(ZTau, _ints, _ints),
    st.builds(QTau, _fracs, _fracs),
    st.builds(ZTau, _ints),
    st.builds(QTau, _fracs),
    _ints,
    _fracs,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands, _operands)
def test_mixed_operand_arithmetic_matches_pair_model(x, y):
    assume(isinstance(x, QTau) or isinstance(y, QTau))
    px, py = _pair(x), _pair(y)
    integral = all(isinstance(v, (ZTau, int)) for v in (x, y))
    expected = {
        operator.add: (px[0] + py[0], px[1] + py[1]),
        operator.sub: (px[0] - py[0], px[1] - py[1]),
        operator.mul: _ref_mul(px, py),
    }
    for op, pair in expected.items():
        got = op(x, y)
        assert type(got) is (ZTau if integral else QTau)
        assert (got.a, got.b) == pair
    assert (x == y) == (px == py)
    if x == y:
        assert hash(x) == hash(y)
    for v, p in ((x, px), (y, py)):
        if p[1] == 0:
            # a rational element equals its int/Fraction value and must hash like it
            assert v == p[0] and hash(v) == hash(p[0]) and p[0] in {v}
    assert (x < y) == (_ref_value(px) < _ref_value(py))
    for v, p in ((x, px), (y, py)):
        if isinstance(v, QTau):
            c = v.conj()
            assert type(c) is type(v)
            assert (c.a, c.b) == (p[0] + p[1], -p[1])


def test_embedding_capacity_guard():
    with pytest.raises(ArithmeticCapacityError):
        ZTau(10**400, 0).embed()
    with pytest.raises(ArithmeticCapacityError):
        QTau(Fraction(10**400), 0).embed()
