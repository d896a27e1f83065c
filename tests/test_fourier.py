"""Coefficient estimators, approximants, and the periodic cosine baseline."""

import cmath
import math
import random

import pytest
from scipy.integrate import quad

from fibfourier.cutproject import Frequency, Window, frequency_representatives
from fibfourier.discretize import data_points, path_decomposition
from fibfourier.fibonacci import (
    INTERVAL,
    NEAREST,
    TorusLift,
    constant,
    interval_sign,
    nearest_distance,
    torus_lift,
)
from fibfourier.fourier import (
    Approximant,
    Coefficient,
    build_approximant,
    coeff_exact,
    coeff_integral,
    coeff_sum,
    cos_baseline,
    line_integral,
    sup_error,
)
from fibfourier.ztau import DELTA, DELTA_STAR, QTau, SQRT5, TAU, ZTau

K00 = Frequency(0, 0)
NEAR_LIFT = torus_lift(NEAREST)
INT_LIFT = torus_lift(INTERVAL)


def _angular(k: Frequency) -> float:
    return 2.0 * (2.0 * math.pi) * DELTA * k.value


def test_coeff_exact_reference_rows():
    assert coeff_exact(K00, NEAR_LIFT) == pytest.approx(
        NEAR_LIFT.cell_integral() / SQRT5, abs=1e-12
    )
    assert coeff_exact(K00, NEAR_LIFT) == pytest.approx(0.3618, abs=2e-4)
    v = coeff_exact(Frequency(0, 1), NEAR_LIFT)
    assert v.real == pytest.approx(-0.0683, abs=2e-4)
    assert v.imag == pytest.approx(-0.0407, abs=2e-4)
    v = coeff_exact(Frequency(-1, -1), NEAR_LIFT)
    assert v.real == pytest.approx(-0.1065, abs=2e-4)
    assert v.imag == pytest.approx(-0.0367, abs=2e-4)


def test_coeff_exact_rejects_user_lift():
    with pytest.raises(ValueError):
        coeff_exact(K00, TorusLift.constant(1.0))


@pytest.mark.parametrize("lift", [NEAR_LIFT, INT_LIFT], ids=["nearest", "interval"])
@pytest.mark.parametrize("ka,kb", [(0, 1), (1, 1), (1, 0), (2, -1)])
def test_coeff_exact_against_adaptive_quadrature(lift, ka, kb):
    """Closed forms vs scipy's adaptive quadrature on the support rectangles.

    The lift is constant in the internal direction inside each rectangle, so
    the plane integral factorises into two line integrals per rectangle.
    """
    k = Frequency(ka, kb)
    wx = 2.0 * (2.0 * math.pi) * DELTA * k.value
    wy = 2.0 * (2.0 * math.pi) * DELTA_STAR * k.value_star
    total = 0j
    for x0, x1, y0, y1 in lift.rectangles:
        ymid = 0.5 * (y0 + y1)
        kink = [0.5 * (x0 + x1)]
        opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)

        def prof(x):
            return lift.evaluate_torus(x, ymid)

        xr = quad(lambda x: prof(x) * math.cos(wx * x), x0, x1, points=kink, **opts)[0]
        xi = quad(lambda x: -prof(x) * math.sin(wx * x), x0, x1, points=kink, **opts)[0]
        yr = quad(lambda y: math.cos(wy * y), y0, y1, **opts)[0]
        yi = quad(lambda y: -math.sin(wy * y), y0, y1, **opts)[0]
        total += complex(xr, xi) * complex(yr, yi)
    assert coeff_exact(k, lift) == pytest.approx(total / SQRT5, abs=1e-9)


def test_line_integral_against_adaptive_quadrature():
    f = nearest_distance()
    w = _angular(Frequency(1, 1))
    lo, hi = 0.0, 13.21
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    re = 0.0
    im = 0.0
    for x0, x1, _, _ in f.linear_pieces(lo, hi):
        a, b = max(x0, lo), min(x1, hi)
        if a >= b:
            continue
        re += quad(lambda x: f(x) * math.cos(w * x), a, b, **opts)[0]
        im += quad(lambda x: -f(x) * math.sin(w * x), a, b, **opts)[0]
    assert line_integral(f, w, lo, hi) == pytest.approx(complex(re, im), abs=1e-9)


def test_coeff_integral_basics():
    assert coeff_integral(K00, constant(1.0), 5.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        coeff_integral(K00, constant(1.0), 0.0)
    with pytest.raises(ValueError):
        coeff_integral(K00, constant(1.0), -3.0)


def test_coeff_integral_reference_rows():
    f = nearest_distance()
    path = path_decomposition(range_r=21.64)
    # the mean converges fast ...
    assert coeff_integral(K00, f, path.r).real == pytest.approx(0.3618, abs=2e-3)
    v = coeff_integral(Frequency(-1, -1), f, path.r)
    assert v == pytest.approx(-0.1065 - 0.0371j, abs=5e-3)
    # ... and all golden rows are recovered at the reference radius 42*sqrt5
    v = coeff_integral(Frequency(-1, 0), f, 42.0 * SQRT5)
    assert v == pytest.approx(0.0236 + 0.0292j, abs=1e-3)


def test_coeff_sum_basics():
    data = data_points(3, path_decomposition(passes=10))
    assert coeff_sum(K00, constant(1.0), data) == pytest.approx(1.0, abs=1e-12)
    f = nearest_distance()
    mean = sum(f(u) for u in data.values) / 9.0
    assert coeff_sum(K00, f, data) == pytest.approx(mean, abs=1e-12)


@pytest.mark.parametrize("kind", ["exact", "integral", "sum"])
def test_estimators_are_hermitian(kind):
    f = nearest_distance()
    path = path_decomposition(passes=14)
    data = data_points(3, path)
    for k in frequency_representatives(3):
        if kind == "exact":
            a, b = coeff_exact(k, NEAR_LIFT), coeff_exact(-k, NEAR_LIFT)
        elif kind == "integral":
            a, b = coeff_integral(k, f, path.r), coeff_integral(-k, f, path.r)
        else:
            a, b = coeff_sum(k, f, data), coeff_sum(-k, f, data)
        assert b == pytest.approx(a.conjugate(), abs=1e-12)


def test_lattice_shift_covariance():
    """f built on window W, translated by p in the ring, equals f built on
    the window shifted by -p'."""
    rng = random.Random(29)
    cases = [
        (ZTau(1, 1), QTau(-2, 1)),  # p = 1 + tau, p' = 2 - tau
        (ZTau(3, 5), QTau(-8, 5)),  # p = 3 + 5 tau, p' = 8 - 5 tau
    ]
    for p, shift in cases:
        f = nearest_distance()
        g = nearest_distance(Window.default().shifted(shift))
        pv = p.embed().x
        for _ in range(400):
            t = rng.uniform(-200.0, 200.0)
            assert f(t + pv) == pytest.approx(g(t), abs=1e-9)


def test_build_approximant_validation():
    freqs = frequency_representatives(3)
    with pytest.raises(ValueError):
        build_approximant("bogus", freqs, lift=NEAR_LIFT)
    with pytest.raises(ValueError):
        build_approximant("exact", freqs)
    with pytest.raises(ValueError):
        build_approximant("integral", freqs, f=nearest_distance())
    with pytest.raises(ValueError):
        build_approximant("sum", freqs, f=nearest_distance())


def test_constant_approximant():
    freqs = frequency_representatives(1)
    data = data_points(3, path_decomposition(passes=10))
    ap = build_approximant("sum", freqs, f=constant(3.0), data=data)
    assert len(ap.coeffs) == 1
    for x in (-31.7, 0.0, 12.5):
        assert ap.evaluate(x) == pytest.approx(3.0, abs=1e-12)


def test_single_term_evaluation():
    ap = Approximant("exact", [Coefficient(K00, 0.25 + 0j)])
    assert ap(17.3) == pytest.approx(0.25, abs=1e-15)
    k = Frequency(0, 1)
    ap = Approximant("exact", [Coefficient(k, 1.0 + 0j)])
    assert ap.evaluate_complex(2.0) == pytest.approx(
        cmath.exp(2j * math.pi * k.phase(2.0)), abs=1e-12
    )


def test_exact_approximant_reference_values():
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)
    assert ap.evaluate(0.5 + TAU) == pytest.approx(0.3318, abs=5e-4)
    assert ap.evaluate(-100.0) == pytest.approx(0.6916, abs=5e-4)


def test_negation_closed_sums_are_real():
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)
    rng = random.Random(37)
    for _ in range(1000):
        x = rng.uniform(-300.0, 300.0)
        assert abs(ap.evaluate_complex(x).imag) < 1e-9


def test_line_averages_converge_to_exact():
    """Every n=3 coefficient improves from R ~ 21.6 to R ~ 500."""
    f = nearest_distance()
    r_small = path_decomposition(range_r=21.64).r
    r_large = path_decomposition(range_r=500.0).r
    worst = 0.0
    for k in frequency_representatives(3):
        ref = coeff_exact(k, NEAR_LIFT)
        e_small = abs(coeff_integral(k, f, r_small) - ref)
        e_large = abs(coeff_integral(k, f, r_large) - ref)
        assert e_large < e_small
        worst = max(worst, e_large)
    assert worst < 0.01


def test_almost_period_bound():
    """|F(x+p) - F(x)| <= sum_k |a_k| 2 pi ||phase(k, p)|| for any p; the
    deeper ring element 3 + 5 tau is a much better almost-period."""
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)

    def bound(p: float) -> float:
        total = 0.0
        for c in ap.coeffs:
            frac = c.k.phase(p)
            total += abs(c.value) * 2.0 * math.pi * abs(frac - round(frac))
        return total

    rng = random.Random(43)
    for p_alg, pinned in ((ZTau(1, 1), 0.538114), (ZTau(3, 5), 0.127032)):
        p = p_alg.embed().x
        b = bound(p)
        assert b == pytest.approx(pinned, abs=1e-4)
        jump = max(
            abs(ap.evaluate(x + p) - ap.evaluate(x))
            for x in (rng.uniform(-100.0, 100.0) for _ in range(600))
        )
        assert jump <= b + 1e-9
    assert bound(ZTau(3, 5).embed().x) < bound(ZTau(1, 1).embed().x)


def test_cos_baseline_trivial():
    ap = cos_baseline(constant(1.0), 0)
    assert ap.cosine == pytest.approx([1.0], abs=1e-12)
    assert ap.evaluate(0.37) == pytest.approx(1.0, abs=1e-12)


def test_cos_baseline_constant_term():
    ap = cos_baseline(nearest_distance(), 3)
    expected = TAU**2 / 8.0 + (2.0 - TAU) ** 2 / 4.0
    assert ap.cosine[0] == pytest.approx(expected, abs=1e-12)
    assert ap.cosine[0] == pytest.approx(0.3637287570313157, abs=1e-12)


def test_cos_baseline_reference_value():
    ap = cos_baseline(nearest_distance(), 50)
    assert ap.evaluate(-100.0) == pytest.approx(0.1859, abs=2.5e-4)
    # period 4: -100 is congruent to 0
    assert ap.evaluate(-100.0) == pytest.approx(ap.evaluate(0.0), abs=1e-12)


def test_cos_baseline_conventional_doubles_harmonics():
    f = nearest_distance()
    halved = cos_baseline(f, 8)
    conv = cos_baseline(f, 8, conventional=True)
    assert conv.cosine[0] == pytest.approx(halved.cosine[0], abs=1e-15)
    for j in range(1, 9):
        assert conv.cosine[j] == pytest.approx(2.0 * halved.cosine[j], abs=1e-15)


def test_cos_baseline_periodicity():
    ap = cos_baseline(nearest_distance(), 12)
    rng = random.Random(53)
    for _ in range(50):
        x = rng.uniform(-50.0, 50.0)
        assert ap.evaluate(x + 4.0) == pytest.approx(ap.evaluate(x), abs=1e-9)


def test_cos_baseline_validation():
    with pytest.raises(ValueError):
        cos_baseline(nearest_distance(), -1)


def test_sup_error_basics():
    ap = Approximant("cosine", cosine=[2.5])
    assert sup_error(ap, constant(2.5), 0.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        sup_error(ap, constant(2.5), 0.0, 10.0, samples=1)
    with pytest.raises(ValueError):
        sup_error(ap, constant(2.5), 10.0, 0.0)
