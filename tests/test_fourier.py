"""Coefficient estimators, approximants, and the periodic cosine baseline."""

import cmath
import functools
import gc
import math
import random
import weakref
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fibfourier.fourier as fourier
from fibfourier.cutproject import Frequency, Window, frequency_representatives
from fibfourier.discretize import data_points, path_decomposition
from fibfourier.discretize import data_quadrature
from fibfourier.fibonacci import (
    INTERVAL,
    NEAREST,
    LocalFunction,
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
    evaluator,
    line_integral,
    sup_error,
    sup_errors,
)
from fibfourier.ztau import DELTA, DELTA_STAR, QTau, SQRT5, TAU, ZTau

K00 = Frequency(0, 0)
NEAR_LIFT = torus_lift(NEAREST)
INT_LIFT = torus_lift(INTERVAL)


def _angular(k: Frequency) -> float:
    return 2.0 * (2.0 * math.pi) * DELTA * k.value


def _evaluate_complex(ap, x):
    """The complex sum of ap's terms at x, added in order from 0j: the
    reference whose real part Approximant.evaluate gives bit for bit."""
    total = 0j
    for c in ap.coeffs:
        total += c.value * cmath.exp(1j * fourier._TWO_PI * (2.0 * DELTA * c.k.value * x))
    return total


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


def test_coeff_exact_of_constant_lift():
    # the constant's two rectangles tile a cell, so only the mean survives
    lift = TorusLift.constant(3.0)
    assert coeff_exact(K00, lift) == 3.0
    for k in frequency_representatives(27):
        if k != K00:
            assert abs(coeff_exact(k, lift)) <= 1e-14, k


SHIFTED = Window.default().shifted(QTau(Fraction(1, 2)))
NEAR_SHIFTED = TorusLift(nearest_distance().rule, SHIFTED)
INT_SHIFTED = TorusLift(interval_sign().rule, SHIFTED)


@pytest.mark.parametrize(
    "lift",
    [NEAR_LIFT, INT_LIFT, NEAR_SHIFTED, INT_SHIFTED],
    ids=["nearest", "interval", "nearest-shifted", "interval-shifted"],
)
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
    for x0, x1, y0, y1 in (sup.rect for sup in lift.supports):
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


@pytest.mark.parametrize("make", [nearest_distance, interval_sign], ids=["nearest", "interval"])
def test_coeff_exact_on_shifted_window_matches_line_average(make):
    # the shift enters through the rectangles' internal extents; with the
    # opposite sign the worst error is 0.17 (nearest) and 0.67 (interval)
    f = make(SHIFTED)
    lift = TorusLift(f.rule, SHIFTED)
    worst = max(
        abs(coeff_exact(k, lift) - coeff_integral(k, f, 4000.0))
        for k in frequency_representatives(5)
    )
    assert worst <= 2e-3


def _seed_sinc(z):
    return 1.0 if abs(z) < 1e-12 else math.sin(z) / z


def _seed_box_transform(y0, y1, w):
    d = y1 - y0
    return d * _seed_sinc(0.5 * w * d) * cmath.exp(0.5j * w * (y0 + y1))


def _seed_tent_transform(length, w):
    s = _seed_sinc(0.25 * w * length)
    return 0.25 * length * length * s * s * cmath.exp(0.5j * w * length)


def _seed_coeff_exact(k, descriptor):
    """The closed forms as written out per built-in lift before the
    coefficients were derived from the tile rules."""
    inv_tau = 1.0 / TAU
    wx = -2.0 * (2.0 * math.pi) * DELTA * k.value
    wy = -2.0 * (2.0 * math.pi) * DELTA_STAR * k.value_star
    y_short = _seed_box_transform(-inv_tau, 0.0, wy)
    y_long = _seed_box_transform(-inv_tau, 1.0 / (TAU * TAU), wy)
    if descriptor == NEAREST:
        x_short = cmath.exp(-1j * wx) * _seed_tent_transform(1.0, wx)
        x_long = _seed_tent_transform(TAU, wx)
    else:
        x_short = -_seed_box_transform(-1.0, 0.0, wx)
        x_long = _seed_box_transform(0.0, TAU, wx)
    return (x_short * y_short + x_long * y_long) / SQRT5


def test_coeff_exact_matches_seed_transforms():
    # interval pieces are single constants, so the row walk reproduces the
    # box transforms bit for bit; the two tent pieces are summed where the
    # seed squared a sinc, which moves the last bits
    for k in frequency_representatives(27):
        assert coeff_exact(k, INT_LIFT) == _seed_coeff_exact(k, INTERVAL), k
        assert abs(coeff_exact(k, NEAR_LIFT) - _seed_coeff_exact(k, NEAREST)) <= 1e-16, k


@pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "reversed"])
def test_mirrored_exact_coefficients_match_seed_transforms_bitwise(reverse):
    # each member of a pair is computed once and mirrored once over the two
    # orders; repr tells -0.0 from 0.0, which == does not
    freqs = list(frequency_representatives(7))
    near, interval = torus_lift(NEAREST), torus_lift(INTERVAL)
    for k in reversed(freqs) if reverse else freqs:
        assert repr(coeff_exact(k, interval)) == repr(_seed_coeff_exact(k, INTERVAL)), k
        value = coeff_exact(k, near)
        if k in (Frequency(3, -1), Frequency(-3, 1)):
            # a real coefficient: conj() would mirror it to -0j
            assert repr(value) == "(0.012753511492501864+0j)", k
        assert abs(value - _seed_coeff_exact(k, NEAREST)) <= 1e-16, k


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


# The estimators as first written, one term per piece or data point, in
# complex arithmetic.  The tests below hold the float loops in
# fibfourier.fourier to the same bits.  Each adds its terms in a plain loop
# from 0j: sum() of complex numbers is compensated from Python 3.14 on.


def _ref_sinc(z):
    return 1.0 if abs(z) < 1e-12 else math.sin(z) / z


def _ref_hfun(z):
    if abs(z) < 1e-4:
        return z / 3.0 - z * z * z / 30.0
    return (math.sin(z) - z * math.cos(z)) / (z * z)


def _ref_transform(pieces, w):
    total = 0j
    for x0, x1, c, m in pieces:
        mid = 0.5 * (x0 + x1)
        half = 0.5 * (x1 - x0)
        z = w * half
        val = (c + m * mid) * 2.0 * half * _ref_sinc(z) - 2.0j * m * half * half * _ref_hfun(z)
        total += val * cmath.exp(-1j * w * mid)
    return total


def _ref_line_integral(f, w, lo, hi):
    return _ref_transform(f.linear_pieces(lo, hi), w)


def _ref_coeff_integral(k, f, r):
    return _ref_line_integral(f, _angular(k), 0.0, r) / r


def _ref_coeff_sum(k, f, data, samples=None):
    """samples, if given, are f at data.values, read once for many k."""
    w = _angular(k)
    total = 0j
    for fu, u in zip(samples or [f(u) for u in data.values], data.values):
        total += fu * cmath.exp(-1j * w * u)
    return total / (data.n * data.n)


def _ref_coeff_exact(k, lift):
    wx = _angular(k)
    wy = 2.0 * (2.0 * math.pi) * DELTA_STAR * k.value_star
    total = 0j
    for (_, _, y0, y1), mid, pieces in lift.supports:
        x_part = cmath.exp(-1j * wx * mid) * _ref_transform(pieces, wx)
        total += x_part * _ref_transform([(y0, y1, 1.0, 0.0)], wy)
    return total / SQRT5


_FUNCTIONS = {"nearest": nearest_distance, "interval": interval_sign}


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
@pytest.mark.parametrize("n", [2, 3, 4, 9])
@pytest.mark.parametrize("passes", [14, 400], ids=["near", "far"])
def test_estimators_match_per_term_formulas_bitwise(name, n, passes):
    # in ascending and in reversed order, so each member of a pair {k, -k}
    # is computed once and mirrored once; repr tells -0.0 from 0.0
    make = _FUNCTIONS[name]
    path = path_decomposition(passes=passes)
    data = data_points(n, path)
    freqs = list(frequency_representatives(n))
    # for even n the classes (n/2, 0), (0, n/2), (n/2, n/2) are their own
    # negatives, so their representatives' partners lie outside the set
    unpaired = [k for k in freqs if -k not in freqs]
    assert len(unpaired) == (3 if n % 2 == 0 else 0)
    ref = make()
    expected = {
        k: (repr(_ref_coeff_integral(k, ref, path.r)), repr(_ref_coeff_sum(k, ref, data)))
        for k in freqs
    }
    for order in (freqs, freqs[::-1]):
        f = make()
        for k in order:
            got = (repr(coeff_integral(k, f, path.r)), repr(coeff_sum(k, f, data)))
            assert got == expected[k], k
    total = 0.0
    for u in data.values:
        total += ref(u)
    assert data_quadrature(f, data) == SQRT5 * total / (n * n)


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_line_integral_far_from_origin_bitwise(name):
    f, ref = _FUNCTIONS[name](), _FUNCTIONS[name]()
    lo, hi = 1.0e5 + 0.3, 1.0e5 + 61.7
    # tiny rates reach both small-argument branches (|z| < 1e-12 and < 1e-4)
    rates = [1e-13, -2e-9, 3e-6] + [_angular(k) for k in frequency_representatives(9)]
    for w in rates:
        assert line_integral(f, w, lo, hi) == _ref_line_integral(ref, w, lo, hi)


# The float loops differ from the complex products of the references only in
# the sign of a zero; these cases make zeros: t = -0.0 * mid at k = 0,
# all-zero terms, negative midpoints and A = 0.


def _centred_ramp(p, q, tile):
    # f(x) = x - mid on each tile: c + m * mid = 0 on every whole piece
    mid = 0.5 * (p + q)
    return [(p, q, -mid, 1.0)]


_ZERO_CASES = {
    **_FUNCTIONS,
    "zero": lambda: constant(0.0),
    "ramp": lambda: LocalFunction(_centred_ramp),
}


@pytest.mark.parametrize("name", sorted(_ZERO_CASES))
def test_signed_zero_cases_match_per_term_formulas_bitwise(name):
    make = _ZERO_CASES[name]
    if name == "ramp":
        pieces = make().linear_pieces(-50.3, -10.1)
        assert sum(1 for x0, x1, c, m in pieces if c + m * (0.5 * (x0 + x1)) == 0.0) >= 20
    path = path_decomposition(passes=14)
    data = data_points(3, path)
    f, ref = make(), make()
    samples = [ref(u) for u in data.values]
    for k in frequency_representatives(3):
        got = (repr(coeff_integral(k, f, path.r)), repr(coeff_sum(k, f, data)))
        assert got == (
            repr(_ref_coeff_integral(k, ref, path.r)),
            repr(_ref_coeff_sum(k, ref, data, samples)),
        ), k
        if name == "zero":
            assert got == ("0j", "0j"), k
    rates = [0.0, -0.0, 1e-13, -2e-9, 3e-6, 1.0, -7.5]
    rates += [_angular(k) for k in frequency_representatives(5)]
    for w in rates:
        got = repr(line_integral(f, w, -50.3, -10.1))
        assert got == repr(_ref_line_integral(ref, w, -50.3, -10.1)), w
        if name == "zero":
            assert got == "0j", w
    lift = TorusLift(f.rule)
    for k in frequency_representatives(3):
        got = repr(coeff_exact(k, lift))
        assert got == repr(_ref_coeff_exact(k, lift)), k
        if name == "zero":
            assert got == "0j", k


@pytest.mark.parametrize("window", ["default", "shifted"])
@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_full_set_at_n27_matches_per_term_formulas_bitwise(name, window):
    w = _window(window)
    path = path_decomposition(passes=40)
    data = data_points(27, path)
    f, ref = _FUNCTIONS[name](w), _FUNCTIONS[name](w)
    lift = TorusLift(f.rule, w)
    samples = [ref(u) for u in data.values]
    for k in frequency_representatives(27):
        got = (
            repr(coeff_exact(k, lift)),
            repr(coeff_integral(k, f, path.r)),
            repr(coeff_sum(k, f, data)),
        )
        assert got == (
            repr(_ref_coeff_exact(k, lift)),
            repr(_ref_coeff_integral(k, ref, path.r)),
            repr(_ref_coeff_sum(k, ref, data, samples)),
        ), k


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
@pytest.mark.parametrize("conventional", [False, True])
def test_cos_baseline_matches_per_term_formula_bitwise(name, conventional):
    f, ref = _FUNCTIONS[name](), _FUNCTIONS[name]()
    expected = []
    for j in range(31):
        a = 0.5 * _ref_line_integral(ref, 0.5 * math.pi * j, 0.0, 2.0).real
        expected.append(2.0 * a if conventional and j > 0 else a)
    assert cos_baseline(f, 30, conventional).cosine == expected


class _CountingFunction(LocalFunction):
    """nearest_distance, counting point evaluations (one per position, alone
    or in a batch) and piece-list requests."""

    def __init__(self):
        super().__init__(nearest_distance().rule)
        self.evaluations = 0
        self.piece_requests = 0

    def __call__(self, t):
        self.evaluations += 1
        return super().__call__(t)

    def values_at(self, ts):
        self.evaluations += len(ts)
        return super().values_at(ts)

    def linear_pieces(self, lo, hi):
        self.piece_requests += 1
        return super().linear_pieces(lo, hi)


def test_sum_pass_evaluates_f_once_per_data_point():
    freqs = frequency_representatives(9)
    data = data_points(9, path_decomposition(passes=60))
    f = _CountingFunction()
    build_approximant("sum", freqs, f=f, data=data)
    assert f.evaluations == len(data) == 81  # not 81 frequencies x 81 points
    # the samples are kept while f and data live
    build_approximant("sum", freqs, f=f, data=data)
    assert f.evaluations == len(data)
    # a second function sampled on the same data gets its own values
    g = _CountingFunction()
    assert coeff_sum(K00, g, data) == coeff_sum(K00, f, data)
    assert g.evaluations == len(data)


def test_integral_pass_takes_pieces_once_per_range():
    freqs = frequency_representatives(9)
    path = path_decomposition(passes=60)
    f = _CountingFunction()
    first = build_approximant("integral", freqs, f=f, r=path.r)
    assert f.piece_requests == 1
    # a new range takes its own pieces; going back to the first rebuilds them
    coeff_integral(K00, f, 0.5 * path.r)
    assert f.piece_requests == 2
    # a far evaluation re-enumerates the context and rebuilds f's own table
    f(5.0e4)
    again = build_approximant("integral", freqs, f=f, r=path.r)
    assert f.piece_requests == 3
    assert again.coeffs == first.coeffs
    cos_baseline(f, 20)
    assert f.piece_requests == 4


def _count_calls(monkeypatch, name):
    counter = {"calls": 0}
    kernel = getattr(fourier, name)

    def counting(*args):
        counter["calls"] += 1
        return kernel(*args)

    monkeypatch.setattr(fourier, name, counting)
    return counter


@pytest.mark.parametrize("kind", ["exact", "integral", "sum"])
def test_conjugate_pairs_run_the_kernel_once(monkeypatch, kind):
    freqs = frequency_representatives(9)
    path = path_decomposition(passes=60)
    args = {
        "exact": dict(lift=TorusLift(nearest_distance().rule)),
        "integral": dict(f=nearest_distance(), r=path.r),
        "sum": dict(f=nearest_distance(), data=data_points(9, path)),
    }[kind]
    counter = _count_calls(monkeypatch, "_sample_sum" if kind == "sum" else "_transform")
    build_approximant(kind, freqs, **args)
    # 40 pairs and k = 0; the exact estimator walks 2 rectangles x 2 axes
    assert counter["calls"] == (41 * 4 if kind == "exact" else 41)


def test_repeated_and_new_range_queries_compute_afresh(monkeypatch):
    path = path_decomposition(passes=60)
    data = data_points(9, path)
    f = nearest_distance()
    k = Frequency(1, 1)
    transforms = _count_calls(monkeypatch, "_transform")
    sums = _count_calls(monkeypatch, "_sample_sum")
    # asking for k twice computes it twice and gives the same bits
    assert repr(coeff_integral(k, f, path.r)) == repr(coeff_integral(k, f, path.r))
    assert repr(coeff_sum(k, f, data)) == repr(coeff_sum(k, f, data))
    assert transforms["calls"] == sums["calls"] == 2
    # the mirror of k is taken once, then -k is computed again
    mirrored = coeff_integral(-k, f, path.r)
    assert transforms["calls"] == 2
    assert repr(coeff_integral(-k, f, path.r)) == repr(mirrored)
    assert transforms["calls"] == 3
    # a new range starts with no partners, and so does going back
    coeff_integral(k, f, 0.5 * path.r)
    assert repr(coeff_integral(-k, f, 0.5 * path.r)) == repr(
        coeff_integral(-k, nearest_distance(), 0.5 * path.r)
    )
    coeff_integral(k, f, 0.5 * path.r)
    calls = transforms["calls"]
    assert repr(coeff_integral(-k, f, path.r)) == repr(mirrored)
    assert transforms["calls"] == calls + 1


def test_coefficient_memos_do_not_keep_functions_alive(monkeypatch):
    data = data_points(3, path_decomposition(passes=10))
    f = nearest_distance()
    lift = TorusLift(f.rule)
    k = Frequency(1, 1)
    for q in (K00, k):  # k != 0 leaves a partner behind
        coeff_sum(q, f, data)
        coeff_integral(q, f, data.r)
        coeff_exact(q, lift)
    # f goes while the data set that holds its samples and partners lives
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    # and a new function on that data set takes none of them
    sums = _count_calls(monkeypatch, "_sample_sum")
    g = nearest_distance()
    assert repr(coeff_sum(-k, g, data)) == repr(coeff_sum(-k, nearest_distance(), data))
    assert sums["calls"] == 2
    # the lift and the data set go too
    refs = [weakref.ref(lift), weakref.ref(data)]
    del lift, data
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_lift_row_memo_does_not_keep_lifts_alive():
    lift = TorusLift(nearest_distance().rule)
    first = coeff_exact(Frequency(1, 1), lift)
    assert coeff_exact(Frequency(1, 1), lift) == first
    coeff_exact(Frequency(2, -1), lift)  # its partner stays in the memo
    ref = weakref.ref(lift)
    del lift
    gc.collect()
    assert ref() is None


def test_coeff_sum_basics():
    data = data_points(3, path_decomposition(passes=10))
    assert coeff_sum(K00, constant(1.0), data) == pytest.approx(1.0, abs=1e-12)
    f = nearest_distance()
    mean = sum(f(u) for u in data.values) / 9.0
    assert coeff_sum(K00, f, data) == pytest.approx(mean, abs=1e-12)


@pytest.mark.parametrize("kind", ["exact", "integral", "sum"])
def test_estimators_are_hermitian(kind):
    # b is the mirror of a, so -k is also computed directly, by a fresh lift
    # or by the per-term formula, and must agree with the mirror bit for bit
    f = nearest_distance()
    path = path_decomposition(passes=14)
    data = data_points(3, path)
    lift = torus_lift(NEAREST)
    for k in frequency_representatives(3):
        if kind == "exact":
            a, b = coeff_exact(k, lift), coeff_exact(-k, lift)
            direct = coeff_exact(-k, torus_lift(NEAREST))
        elif kind == "integral":
            a, b = coeff_integral(k, f, path.r), coeff_integral(-k, f, path.r)
            direct = _ref_coeff_integral(-k, f, path.r)
        else:
            a, b = coeff_sum(k, f, data), coeff_sum(-k, f, data)
            direct = _ref_coeff_sum(-k, f, data)
        assert repr(b) == repr(direct), k
        assert direct == pytest.approx(a.conjugate(), abs=1e-12)


# Worst |estimate - coeff_exact| over every frequency of every n <= 9,
# passes 20..400, both functions and both windows (an exhaustive scan), times
# R for the line average and times n for the data-point sum: integral 2.91
# (nearest) and 5.93 (interval), sum 0.688 and 1.64.  The tolerances below
# keep about 10% above these.
_CROSS_TOL = {"nearest": (3.2, 0.75), "interval": (6.5, 1.8)}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(_FUNCTIONS)),
    st.sampled_from([None, Window.default().shifted(QTau(Fraction(1, 2)))]),
    st.integers(1, 9),
    st.integers(20, 400),
)
def test_estimators_agree_with_exact(name, window, n, passes):
    f = _FUNCTIONS[name](window)
    lift = TorusLift(f.rule, window)
    path = path_decomposition(passes=passes)
    data = data_points(n, path)
    tol_integral, tol_sum = _CROSS_TOL[name]
    for k in frequency_representatives(n):
        exact = coeff_exact(k, lift)
        assert abs(coeff_integral(k, f, path.r) - exact) <= tol_integral / path.r, k
        assert abs(coeff_sum(k, f, data) - exact) <= tol_sum / n, k


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
    # <k, 2> = 2 delta (tau/2) 2 = 2/sqrt5
    assert ap(2.0) == pytest.approx(math.cos(2.0 * math.pi * 2.0 / SQRT5), abs=1e-12)


@functools.lru_cache(maxsize=None)
def _approximant(n, kind, name):
    f = _FUNCTIONS[name]()
    if kind == "exact":
        return build_approximant(kind, frequency_representatives(n), lift=TorusLift(f.rule))
    path = path_decomposition(passes=40)
    return build_approximant(
        kind, frequency_representatives(n), f=f, r=path.r, data=data_points(n, path)
    )


# near and far, both signs, and the zeros
_EVAL_XS = [0.0, -0.0, 1e-9, -3.7, 0.5 + TAU, 21.64, -100.0, 1234.5678, -54321.9, 1.0e5, -1.0e5]


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
@pytest.mark.parametrize("kind", ["exact", "integral", "sum"])
@pytest.mark.parametrize("n", [3, 7, 9, 27])
def test_evaluate_is_real_part_of_complex_sum_bitwise(n, kind, name):
    ap = _approximant(n, kind, name)
    rng = random.Random(n)
    xs = _EVAL_XS + [rng.uniform(-1.0e5, 1.0e5) for _ in range(20)]
    for x in xs:
        assert repr(ap.evaluate(x)) == repr(_evaluate_complex(ap, x).real), x


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.sampled_from([3, 7, 9, 27]),
    st.sampled_from(["exact", "integral", "sum"]),
    st.sampled_from(sorted(_FUNCTIONS)),
    st.floats(-1.0e5, 1.0e5),
)
def test_evaluate_is_real_part_of_complex_sum_any_x(n, kind, name, x):
    ap = _approximant(n, kind, name)
    assert repr(ap.evaluate(x)) == repr(_evaluate_complex(ap, x).real)


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_cosine_evaluate_matches_explicit_sum_bitwise(name):
    ap = cos_baseline(_FUNCTIONS[name](), 50)
    rng = random.Random(61)
    for x in _EVAL_XS + [rng.uniform(-1.0e5, 1.0e5) for _ in range(50)]:
        expected = 0.0
        for j, a in enumerate(ap.cosine):
            expected += a * math.cos(0.5 * math.pi * j * x)
        assert repr(ap.evaluate(x)) == repr(expected), x


def test_evaluate_reads_no_frequency(monkeypatch):
    ap = _approximant(9, "sum", "nearest")
    before = [ap.evaluate(x) for x in _EVAL_XS]

    def refuse(*_):
        raise AssertionError("Frequency read during evaluate")

    monkeypatch.setattr(Frequency, "value", property(refuse))
    with pytest.raises(AssertionError):
        _evaluate_complex(ap, 1.0)
    assert [ap.evaluate(x) for x in _EVAL_XS] == before


def test_fourier_calls_no_sum(monkeypatch):
    # sum() is compensated for floats from Python 3.12 on and for complex
    # numbers from 3.14 on, so every sum in the module is a plain loop; a
    # module global shadows the builtin
    def refuse(*_args, **_kwargs):
        raise AssertionError("sum() called in fibfourier.fourier")

    monkeypatch.setattr(fourier, "sum", refuse, raising=False)
    freqs = frequency_representatives(3)
    path = path_decomposition(passes=14)
    f = nearest_distance()
    aps = [
        build_approximant("exact", freqs, lift=TorusLift(f.rule)),
        build_approximant("integral", freqs, f=f, r=path.r),
        build_approximant("sum", freqs, f=f, data=data_points(3, path)),
        cos_baseline(f, 10),
    ]
    line_integral(f, 1.0, -3.0, 5.0)
    for ap in aps:
        ap.evaluate(1.3)
    sup_errors(aps, f, 0.0, 5.0, samples=50)
    with pytest.raises(AssertionError):
        fourier.sum([])


def test_empty_sums_are_float_zero():
    assert repr(Approximant("cosine", cosine=[]).evaluate(1.5)) == "0.0"
    assert repr(Approximant("exact", []).evaluate(1.5)) == "0.0"


# -- one summation kernel: pairs, shared cos/sin ---------------------------------

#: the ends of the paper-size compare grids and of the summary windows, and
#: the far ends of +-1e4
_KERNEL_XS = [0.0, 15.0, 200.0, 215.0, -115.0, -100.0, -480.0, -465.0, 485.0, 500.0, 1.0e4, -1.0e4]


def _term_by_term(ap, x):
    """One term per coefficient (or cosine weight), added in order from 0.0:
    what the plans and the shared cos/sin must reproduce."""
    total = 0.0
    if ap.kind == "cosine":
        for j, a in enumerate(ap.cosine):
            total += a * math.cos(0.5 * math.pi * j * x)
        return total
    for c in ap.coeffs:
        theta = 2.0 * math.pi * (2.0 * DELTA * c.k.value * x)
        total += c.value.real * math.cos(theta) - c.value.imag * math.sin(theta)
    return total


def _window(name):
    return Window.default() if name == "default" else Window.default().shifted(QTau(Fraction(1, 2)))


@functools.lru_cache(maxsize=None)
def _estimators(n, name, window):
    """The three estimators' approximants of one function on one window, and
    the function."""
    w = _window(window)
    f = _FUNCTIONS[name](w)
    freqs = frequency_representatives(n)
    path = path_decomposition(passes=40)
    aps = (
        build_approximant("exact", freqs, lift=TorusLift(f.rule, w)),
        build_approximant("integral", freqs, f=f, r=path.r),
        build_approximant("sum", freqs, f=f, data=data_points(n, path)),
    )
    return f, aps


def _assert_kernel_matches(aps, xs):
    values = evaluator(aps)
    for x in xs:
        for ap, v in zip(aps, values(x), strict=True):
            assert repr(v) == repr(ap.evaluate(x)) == repr(_term_by_term(ap, x)), (ap.kind, x)
            if ap.kind != "cosine":
                assert repr(v) == repr(_evaluate_complex(ap, x).real), (ap.kind, x)


@pytest.mark.parametrize("window", ["default", "shifted"])
@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
@pytest.mark.parametrize("n", [1, 3, 7, 9])
def test_kernel_matches_each_evaluation_bitwise(n, name, window):
    f, aps = _estimators(n, name, window)
    _assert_kernel_matches([*aps, cos_baseline(f, 50)], _KERNEL_XS)


def test_plan_adds_one_term_per_conjugate_pair():
    _, aps = _estimators(9, "interval", "default")
    for ap in aps:
        ap.evaluate(-480.0)
        # -k of representative i sits at 80 - i, and k = 0 at 40
        assert ap._plan.order == [*range(41), *range(39, -1, -1)]


def test_plan_reuses_only_exact_mirrors():
    freqs = frequency_representatives(3)
    rng = random.Random(71)
    drawn = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in freqs]
    # a_{-k} is not conj(a_k): every term is its own
    loose = Approximant("exact", [Coefficient(k, v) for k, v in zip(freqs, drawn)])
    # a_{-k} = conj(a_k) but for one pair, which is off by one ulp
    paired = [drawn[i] if i <= 4 else drawn[8 - i].conjugate() for i in range(9)]
    paired[7] = complex(paired[7].real, math.nextafter(paired[7].imag, 2.0))
    near = Approximant("exact", [Coefficient(k, v) for k, v in zip(freqs, paired)])
    xs = _KERNEL_XS + [rng.uniform(-1.0e4, 1.0e4) for _ in range(50)]
    _assert_kernel_matches([loose, near], xs)
    assert loose._plan.order == list(range(9))
    assert near._plan.order == [0, 1, 2, 3, 4, 3, 2, 5, 0]


def test_kernel_shares_nothing_across_frequency_sets(monkeypatch):
    _, (small, *_) = _estimators(3, "nearest", "default")
    _, (big, *_) = _estimators(9, "nearest", "default")
    _assert_kernel_matches([small, big], _KERNEL_XS)
    values = evaluator([small, big])
    calls = []
    cos, sin = math.cos, math.sin
    monkeypatch.setattr(math, "cos", lambda t: calls.append("cos") or cos(t))
    monkeypatch.setattr(math, "sin", lambda t: calls.append("sin") or sin(t))
    values(7.5)
    assert calls.count("cos") == calls.count("sin") == 5 + 41


def test_libm_parity_on_the_evaluated_angles():
    """The pairs rest on cos(-theta) == cos(theta) and sin(-theta) == -sin(theta)
    bit for bit.  Check it for every angle the n <= 9 frequencies take on a
    grid over +-1e4, so that a libm where it fails stops here instead of the
    reports printing other bytes."""
    ps = sorted({2.0 * DELTA * k.value for n in range(1, 10) for k in frequency_representatives(n)})
    xs = [-1.0e4 + i * 10.0 for i in range(2001)] + _KERNEL_XS
    thetas = [fourier._TWO_PI * (p * x) for p in ps for x in xs]
    mirrored = [fourier._TWO_PI * (-p * x) for p in ps for x in xs]
    assert array("d", mirrored) == array("d", [-t for t in thetas])
    for name, sign in (("cos", 1.0), ("sin", -1.0)):
        fn = getattr(math, name)
        got = array("d", map(fn, mirrored)).tobytes()
        want = array("d", [sign * v for v in map(fn, thetas)]).tobytes()
        if got != want:
            bad = next(t for t in thetas if repr(fn(-t)) != repr(sign * fn(t)))
            parity = "even" if sign > 0 else "odd"
            pytest.fail(f"math.{name} is not {parity} bit for bit at {bad!r}")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.floats(-1.0e6, 1.0e6))
def test_libm_parity_any_angle(theta):
    assert repr(math.cos(-theta)) == repr(math.cos(theta))
    assert repr(math.sin(-theta)) == repr(-math.sin(theta))


def test_exact_approximant_reference_values():
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)
    assert ap.evaluate(0.5 + TAU) == pytest.approx(0.3318, abs=5e-4)
    assert ap.evaluate(-100.0) == pytest.approx(0.6916, abs=5e-4)


def test_negation_closed_sums_are_real():
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)
    rng = random.Random(37)
    for _ in range(1000):
        x = rng.uniform(-300.0, 300.0)
        assert abs(_evaluate_complex(ap, x).imag) < 1e-9


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
            frac = 2.0 * DELTA * c.k.value * p
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


@pytest.mark.parametrize(
    "lo,hi,samples", [(0.0, 15.0, 1000), (200.0, 215.0, 800), (-115.0, -100.0, 7)]
)
def test_sup_error_matches_the_seed_grid_bitwise(lo, hi, samples):
    ap = build_approximant("exact", frequency_representatives(3), lift=NEAR_LIFT)
    f = nearest_distance()
    step = (hi - lo) / (samples - 1)
    seed = max(abs(ap.evaluate(lo + i * step) - f(lo + i * step)) for i in range(samples))
    assert repr(sup_error(ap, f, lo, hi, samples)) == repr(seed)


@pytest.mark.parametrize("lo,hi,samples", [(0.0, 15.0, 1000), (-480.0, -465.0, 2500)])
def test_sup_errors_read_f_once_per_sample(lo, hi, samples):
    f = _CountingFunction()
    _, aps = _estimators(3, "nearest", "default")
    aps = [*aps, cos_baseline(f, 50)]
    errors = sup_errors(aps, f, lo, hi, samples)
    assert f.evaluations == samples  # not one per approximant and sample
    step = (hi - lo) / (samples - 1)
    for ap, error in zip(aps, errors, strict=True):
        seed = max(abs(ap.evaluate(lo + i * step) - f(lo + i * step)) for i in range(samples))
        assert repr(error) == repr(seed) == repr(sup_error(ap, f, lo, hi, samples))
