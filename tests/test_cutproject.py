"""Window acceptance, point enumeration, frequency picks."""

import math
import random
import re
from fractions import Fraction

import pytest

from fibfourier import cutproject
from fibfourier.cutproject import (
    ApproxWindow,
    Frequency,
    Window,
    count_model_set,
    enumerate_model_set,
    frequency_representatives,
)
from fibfourier.ztau import QTau, TAU, TAU_STAR, ZTau


def _pairs(points):
    return [(p.algebraic.a, p.algebraic.b) for p in points]


def test_default_window():
    w = Window.default()
    lo, hi = w.bounds_float()
    assert lo == -1.0
    assert hi == pytest.approx(TAU - 1.0, abs=1e-15)
    assert w.includes_lo and not w.includes_hi
    assert w.length() == QTau(0, 1)


def test_shifted_window():
    w = Window.default().shifted(QTau(Fraction(1, 2)))
    lo, hi = w.bounds_float()
    assert lo == pytest.approx(-0.5, abs=1e-15)
    assert hi == pytest.approx(TAU - 0.5, abs=1e-15)
    assert w.length() == QTau(0, 1)


def test_window_rejects_empty_interval():
    with pytest.raises(ValueError):
        Window(QTau(1), QTau(1))
    with pytest.raises(ValueError):
        Window(QTau(2), QTau(-1))
    with pytest.raises(ValueError):
        ApproxWindow(2.0, -1.0)
    # a float window must also have finite ends
    for lo, hi in ((-math.inf, math.inf), (-math.inf, 0.5), (-1.0, math.inf), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="window endpoints must be finite"):
            ApproxWindow(lo, hi)


def test_singular_pair_swaps_between_closures():
    # -1 and -tau both project onto window endpoints; the half-open side
    # decides which one is kept
    default = Window.default()
    alternate = Window(QTau(-1), QTau(-1, 1), includes_lo=False, includes_hi=True)
    minus_one = ZTau(-1, 0)
    minus_tau = ZTau(0, -1)
    assert default.contains(minus_one)
    assert not default.contains(minus_tau)
    assert alternate.contains(minus_tau)
    assert not alternate.contains(minus_one)


def test_singular_pair_is_the_only_difference():
    default = enumerate_model_set(Window.default(), -10.0, 10.0)
    alternate = enumerate_model_set(
        Window(QTau(-1), QTau(-1, 1), includes_lo=False, includes_hi=True),
        -10.0,
        10.0,
    )
    d = {(p.algebraic.a, p.algebraic.b) for p in default}
    a = {(p.algebraic.a, p.algebraic.b) for p in alternate}
    assert d - a == {(-1, 0)}
    assert a - d == {(0, -1)}


def test_enumeration_examples():
    assert _pairs(enumerate_model_set(Window.default(), 0.0, 5.0)) == [
        (0, 0),
        (0, 1),
        (1, 1),
        (1, 2),
    ]
    assert _pairs(enumerate_model_set(Window.default(), -3.0, 0.0)) == [
        (-1, -1),
        (-1, 0),
        (0, 0),
    ]


def test_enumeration_sorted_and_in_window():
    sl = enumerate_model_set(Window.default(), -200.0, 200.0)
    values = [p.value for p in sl]
    assert values == sorted(values)
    assert all(Window.default().contains(p.algebraic) for p in sl)
    assert all(-200.0 <= v <= 200.0 for v in values)


def test_gaps_and_tile_tags():
    sl = enumerate_model_set(Window.default(), -300.0, 300.0)
    for p, q in zip(sl, sl[1:]):
        gap = q.value - p.value
        if abs(gap - 1.0) < 1e-9:
            assert p.tile == "short"
        elif abs(gap - TAU) < 1e-9:
            assert p.tile == "long"
        else:  # pragma: no cover - would indicate a broken enumeration
            pytest.fail(f"unexpected gap {gap}")


def test_tile_tags_follow_the_exact_step():
    # far out, a float gap is tau or 1 only to within ~1e-7, but the step to
    # the next point is exact
    far = enumerate_model_set(Window.default(), 5.0e8, 5.0e8 + 200.0)
    assert {p.tile for p in far} == {"long", "short"}
    # a window of length 1.6 has tiles of length 1, tau and tau^2
    sl = enumerate_model_set(ApproxWindow(-0.9, 0.7), -50.0, 50.0)
    steps = {"long": ZTau(0, 1), "short": ZTau(1, 0)}
    for p, q in zip(sl, sl[1:]):
        assert steps.get(p.tile, ZTau(1, 1)) == q.algebraic - p.algebraic


def test_tile_tag_matches_internal_subwindow():
    # a point starts a long tile exactly when its internal image lies in
    # [tau - 2, tau - 1)
    sub = Window(QTau(-2, 1), QTau(-1, 1))
    sl = enumerate_model_set(Window.default(), -100.0, 100.0)
    for p in sl:
        assert (p.tile == "long") == sub.contains(p.algebraic)


def test_tile_ratio_approaches_tau():
    sl = enumerate_model_set(Window.default(), 0.0, 1.0e4)
    longs = sum(1 for p in sl if p.tile == "long")
    shorts = sum(1 for p in sl if p.tile == "short")
    assert abs(longs / shorts - TAU) / TAU < 0.02


def test_frequency_representatives_small():
    assert [(k.half_a, k.half_b) for k in frequency_representatives(1).reps] == [(0, 0)]
    reps3 = [(k.half_a, k.half_b) for k in frequency_representatives(3).reps]
    assert sorted(reps3) == [
        (-1, -1),
        (-1, 0),
        (-1, 1),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
    ]


def test_frequency_representatives_even_class():
    # for n = 2 the residue class (1, 1) is its own negative; the minimiser
    # has |k| = (tau - 1)/2
    reps2 = frequency_representatives(2).reps
    assert len(reps2) == 4
    diag = [k for k in reps2 if (k.half_a % 2, k.half_b % 2) == (1, 1)]
    assert len(diag) == 1
    assert abs(diag[0].value) == pytest.approx((TAU - 1.0) / 2.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_frequency_representatives_hit_every_class_once(n):
    fs = frequency_representatives(n)
    assert fs.n == n
    classes = {(k.half_a % n, k.half_b % n) for k in fs.reps}
    assert len(fs.reps) == n * n
    assert len(classes) == n * n


def _norm4(a, b):
    # 4 (k^2 + k'^2) for k = (a + b tau)/2
    return 2 * a * a + 2 * a * b + 3 * b * b


@pytest.mark.parametrize("n", [2, 3, 5])
def test_frequency_representatives_are_norm_minimal(n):
    for k in frequency_representatives(n).reps:
        base = _norm4(k.half_a, k.half_b)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                cand = _norm4(k.half_a + di * n, k.half_b + dj * n)
                assert cand >= base


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_frequency_representatives_negation_closed_odd(n):
    reps = {(k.half_a, k.half_b) for k in frequency_representatives(n).reps}
    assert (0, 0) in reps
    assert {(-a, -b) for a, b in reps} == reps


def _scan_rep(p, q, n):
    # the reference: the least key (_norm4, |a| + |b|, a, b) over all 49
    # members (p + n*i, q + n*j), -3 <= i, j <= 3, of the class
    return min(
        (2 * a * a + 2 * a * b + 3 * b * b, abs(a) + abs(b), a, b)
        for a in range(p - 3 * n, p + 4 * n, n)
        for b in range(q - 3 * n, q + 4 * n, n)
    )[2:]


def _scan_representatives(n):
    chosen = {}
    for p in range(n):
        for q in range(n):
            neg = (-p % n, -q % n)
            if (p, q) <= neg:
                a, b = chosen[(p, q)] = _scan_rep(p, q, n)
                if neg != (p, q):
                    chosen[neg] = (-a, -b)
    return sorted(chosen.values())


@pytest.mark.parametrize("ns", [range(1, 41), [81], [243]], ids=["n<=40", "n=81", "n=243"])
def test_frequency_representatives_match_the_full_scan(ns):
    for n in ns:
        got = frequency_representatives(n)
        assert got.n == n
        assert [(k.half_a, k.half_b) for k in got] == _scan_representatives(n), n


def test_minimal_rep_matches_the_full_scan_at_n_729():
    n = 729
    rng = random.Random(729)
    for _ in range(2000):
        p, q = rng.randrange(n), rng.randrange(n)
        assert tuple(cutproject._minimal_rep(p, q, n)) == _scan_rep(p, q, n), (p, q)


def test_frequency_value_phase_and_label():
    k = Frequency(1, -1)
    assert k.value == pytest.approx((1.0 - TAU) / 2.0, abs=1e-12)
    assert k.value_star == pytest.approx((1.0 - TAU_STAR) / 2.0, abs=1e-12)
    assert (-k) == Frequency(-1, 1)
    assert Frequency(0, 0).label == "0"
    assert k.label == "(+1-1tau)/2"
    assert Frequency(0, 2).label == "(+0+2tau)/2"


def test_approx_window_matches_exact_enumeration():
    aw = ApproxWindow(-1.0, TAU - 1.0)
    exact = enumerate_model_set(Window.default(), 0.0, 100.0)
    approx = enumerate_model_set(aw, 0.0, 100.0)
    assert _pairs(exact) == _pairs(approx)
    assert len(exact) == 73


def test_approx_window_endpoint_snapping():
    aw = ApproxWindow(0.0, 1.0)
    # the internal point 1 lands on the open upper endpoint
    assert not aw.contains_star(1, 0)
    assert ApproxWindow(0.0, 1.0, includes_hi=True).contains_star(1, 0)
    assert aw.contains_star(0, 0)
    # a value a hair below the endpoint is kept regardless of closure
    assert aw.contains_star(2, -1) == (2.0 + -1.0 * TAU < 1.0)


def test_approx_window_membership_is_exact_near_an_endpoint():
    # the internal point 2 - tau lies 5e-13 below h: inside [-1, h), outside
    # [h, 1), however close it is
    h = (2.0 - TAU) + 5e-13
    assert ApproxWindow(-1.0, h).contains_star(2, -1)
    assert not ApproxWindow(h, 1.0).contains_star(2, -1)
    # the ends are the floats' exact values
    w = ApproxWindow(-0.9, h)
    assert (w.lo, w.hi) == (QTau(Fraction(-0.9)), QTau(Fraction(h)))
    assert w.lo != QTau(Fraction(-9, 10))


@pytest.mark.parametrize(
    "window",
    [Window.default(), Window.default().shifted(QTau(Fraction(1, 2))), ApproxWindow(-1.0, 0.5)],
)
def test_count_model_set_counts_the_enumerated_points(window):
    # ranges whose ends are points of the set (0, tau, 1, 1 + tau) or not
    for lo, hi in ((0.0, TAU), (-1.0, 1.0 + TAU), (-7.25, 60.5), (3.0, 3.0), (-500.0, 500.0)):
        values = [p.value for p in enumerate_model_set(window, lo, hi)]
        assert count_model_set(window, lo, hi) == len(values), (lo, hi)
        assert count_model_set(window, lo, hi, closed=False) == sum(v < hi for v in values)


def test_count_model_set_checks_like_enumerate_model_set():
    # a window of length 0.02 leaves gaps far wider than the tagging margin
    sparse = ApproxWindow(-0.01, 0.01)
    for args in ((Window.default(), 2.0, 1.0), (Window.default(), 0.0, 2e9), (sparse, 0.0, 1000.0)):
        with pytest.raises((ValueError, RuntimeError)) as expected:
            enumerate_model_set(*args)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            count_model_set(*args)
