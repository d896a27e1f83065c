"""Tent/step functions on the aperiodic point set and their torus lifts."""

import math
import random
from fractions import Fraction

import pytest

from fibfourier.cutproject import ApproxWindow, Window, enumerate_model_set
from fibfourier.fibonacci import (
    INTERVAL,
    INV_TAU,
    INV_TAU2,
    NEAREST,
    LocalFunction,
    TorusLift,
    constant,
    nearest_distance,
    interval_sign,
    point_sets_close,
    substitution_points,
    substitution_word,
    torus_lift,
)
from fibfourier.fourier import line_integral
from fibfourier.ztau import QTau, TAU, TAU_STAR, ZTau


def test_substitution_word_prefixes():
    assert substitution_word(1) == "a"
    assert substitution_word(2) == "ab"
    assert substitution_word(13) == "abaababaabaab"
    long_word = substitution_word(200)
    assert long_word.startswith(substitution_word(50))
    assert "bb" not in long_word
    assert "aaa" not in long_word


def test_substitution_points_examples():
    assert substitution_points(1) == [ZTau(0, 0)]
    assert substitution_points(5) == [
        ZTau(0, 0),
        ZTau(0, 1),
        ZTau(1, 1),
        ZTau(1, 2),
        ZTau(1, 3),
    ]
    nine = substitution_points(9)
    assert nine[5:] == [ZTau(2, 3), ZTau(2, 4), ZTau(3, 4), ZTau(3, 5)]


def test_substitution_points_match_enumeration():
    pts = substitution_points(60)
    sl = enumerate_model_set(Window.default(), -0.5, pts[-1].value + 0.5)
    assert [p.algebraic for p in sl.points if p.value >= -0.5] == pts
    # gaps follow the letters: a <-> long step tau, b <-> short step 1
    word = substitution_word(60)
    for i, (p, q) in enumerate(zip(pts, pts[1:])):
        step = q - p
        assert step == (ZTau(0, 1) if word[i] == "a" else ZTau(1, 0))


def test_nearest_distance_examples():
    f = nearest_distance()
    assert f(0.0) == pytest.approx(0.0, abs=1e-12)
    assert f(0.5 + TAU) == pytest.approx(0.5, abs=1e-12)
    assert f(-100.0) == pytest.approx(0.8065, abs=1e-4)


def test_interval_sign_examples():
    g = interval_sign()
    assert g(0.0) == 1.0
    assert g(TAU) == -1.0  # half-open tiles: the value jumps at the point
    assert g(0.25 + TAU) == -1.0
    assert g(0.5) == 1.0


def test_nearest_distance_is_one_lipschitz():
    f = nearest_distance()
    rng = random.Random(41)
    for _ in range(10_000):
        s = rng.uniform(-300.0, 300.0)
        t = s + rng.uniform(-2.0, 2.0)
        assert abs(f(s) - f(t)) <= abs(s - t) + 1e-12


def test_nearest_distance_zeros_and_peaks():
    f = nearest_distance()
    sl = enumerate_model_set(Window.default(), 0.0, 40.0)
    for p, q in zip(sl.points, sl.points[1:]):
        assert f(p.value) == pytest.approx(0.0, abs=1e-12)
        mid = 0.5 * (p.value + q.value)
        assert f(mid) == pytest.approx(0.5 * (q.value - p.value), abs=1e-9)


def test_local_function_far_from_origin():
    # evaluation far outside the initially bracketed region extends the
    # context transparently and stays pinned to the point set
    f = nearest_distance()
    far = substitution_points(2000)[-1]
    assert far.value > 1500.0
    assert f(far.value) == pytest.approx(0.0, abs=1e-12)
    assert f(-far.value) >= 0.0
    assert f(3.0) == pytest.approx(f(3.0), abs=0.0)


_WINDOWS = {
    "default": Window.default(),
    "shifted": Window.default().shifted(QTau(Fraction(1, 2))),
    "approx": ApproxWindow(-0.9, 0.7),
}
_MAKERS = {
    "nearest": nearest_distance,
    "interval": interval_sign,
    # the constant's pieces follow the tiles of whichever window it is built on
    "constant": lambda window: LocalFunction(constant(2.5).rule, window),
}


def _reference(name, points, x):
    """Value at x computed straight from an enumerated slice."""
    if name == "constant":
        return 2.5
    i = max(j for j, p in enumerate(points) if p.value <= x)
    p, q = points[i], points[i + 1]
    if name == "nearest":
        return min(x - p.value, q.value - x)
    return 1.0 if p.tile == "long" else -1.0


def _check_cover(name, f, window, lo, hi):
    pieces = f.linear_pieces(lo, hi)
    assert pieces[0][0] == lo and pieces[-1][1] == hi
    for (_, hi0, _, _), (lo1, _, _, _) in zip(pieces, pieces[1:]):
        assert hi0 == lo1
    # breakpoints are the tile ends, plus the tile midpoints for the tent
    sl = enumerate_model_set(window, lo - 10.0, hi + 10.0)
    expected = set()
    for p, q in zip(sl.points, sl.points[1:]):
        expected.add(p.value)
        if name == "nearest":
            expected.add(0.5 * (p.value + q.value))
    inner = {x for x in expected if lo < x < hi}
    assert {x0 for x0, _, _, _ in pieces[1:]} == inner
    for x0, x1, c, m in pieces:
        assert x0 < x1
        mid = 0.5 * (x0 + x1)
        assert c + m * mid == pytest.approx(_reference(name, sl.points, mid), abs=1e-9)
        assert f(mid) == pytest.approx(_reference(name, sl.points, mid), abs=1e-9)


@pytest.mark.parametrize("window_name", _WINDOWS)
@pytest.mark.parametrize("name", _MAKERS)
def test_linear_pieces_cover_interval(name, window_name):
    window = _WINDOWS[window_name]
    f = _MAKERS[name](window)
    _check_cover(name, f, window, 0.0, 20.0)
    points = enumerate_model_set(window, -5.0, 40.0).points
    ends = [p.value for p in points]
    mids = [0.5 * (p.value + q.value) for p, q in zip(points, points[1:])]
    # bounds exactly on tile ends and tile midpoints, and inside one tile
    for lo, hi in (
        (ends[3], ends[9]),
        (mids[2], mids[7]),
        (ends[4], mids[4]),
        (mids[5], ends[6]),
        (mids[6], mids[6] + 1e-3),
        (ends[10] + 0.1, ends[11] - 0.1),
    ):
        _check_cover(name, f, window, lo, hi)
    # a far interval after the near ones regrows the context, so the table
    # is rebuilt from the new slice
    before = f.context.ensure(0.0, 20.0)
    _check_cover(name, f, window, 5000.0, 5030.0)
    assert f.context.ensure(0.0, 20.0) is not before
    _check_cover(name, f, window, 0.0, 20.0)


def test_constant_function():
    h = constant(2.5)
    assert h(-17.3) == 2.5
    assert h.linear_pieces(0.0, 1.0) == [(0.0, 1.0, 2.5, 0.0)]


def test_lift_rectangles():
    lift = torus_lift(NEAREST)
    x0, x1, y0, y1 = lift.SHORT_RECT
    assert (x0, x1) == (-1.0, 0.0)
    assert y0 == pytest.approx(-INV_TAU, abs=1e-15)
    assert y1 == 0.0
    x0, x1, y0, y1 = lift.LONG_RECT
    assert x0 == 0.0 and x1 == pytest.approx(TAU, abs=1e-15)
    assert y0 == pytest.approx(-INV_TAU, abs=1e-15)
    assert y1 == pytest.approx(INV_TAU2, abs=1e-15)


def test_lift_cell_values():
    near = torus_lift(NEAREST)
    step = torus_lift(INTERVAL)
    cases = [
        (near, -0.5, -0.3, 0.5),
        (near, 0.0, -0.3, 0.0),
        (step, 0.5 * TAU, 0.0, 1.0),
        (step, -0.5, -0.3, -1.0),
    ]
    for lift, x, y, value in cases:
        assert lift.evaluate_torus(x, y) == pytest.approx(value, abs=1e-12)
        # the lift is periodic under the lattice vector (1 + tau, 1 + tau')
        shifted = lift.evaluate_torus(x + 1.0 + TAU, y + 1.0 + TAU_STAR)
        assert shifted == pytest.approx(value, abs=1e-12)


def test_lift_reduces_rectangle_corners():
    # a rounded point next to a corner where three copies of the support
    # meet must still land in one of them
    step = torus_lift(INTERVAL)
    corners = [(x, y) for x in (-1.0, 0.0, TAU) for y in (-INV_TAU, 0.0, INV_TAU2)]
    for a in range(-40, 41):
        for b in range(-40, 41):
            for x, y in corners:
                value = step.evaluate_torus(x + a + b * TAU, y + a + b * TAU_STAR)
                assert value in (-1.0, 1.0)


def test_lift_restricts_to_line():
    rng = random.Random(59)
    random_ts = [rng.uniform(-500.0, 500.0) for _ in range(1000)]
    # a fine grid and every tile midpoint over [-600, 2000], which takes in
    # the tiles around [-tau^2, 0)
    grid = [-600.0 + 2600.0 * i / 400_000 for i in range(400_001)]
    points = [p.value for p in enumerate_model_set(Window.default(), -600.0, 2000.0).points]
    mids = [0.5 * (p + q) for p, q in zip(points, points[1:])]
    # interval_sign jumps at the model points, where a float t cannot tell
    # which tile it starts, so only the continuous tent is checked there
    for descriptor, f, ts in (
        (NEAREST, nearest_distance(), random_ts + grid + mids + points),
        (INTERVAL, interval_sign(), random_ts + grid + mids),
    ):
        lift = torus_lift(descriptor)
        bad = [t for t in ts if abs(lift.on_line(t) - f(t)) > 1e-9]
        assert bad == []


def test_lift_precision_far_from_origin():
    # the reduction loses precision with ulp(|t|); a fresh function per t
    # keeps the point context from spanning the gap between far queries
    lift = torus_lift(NEAREST)
    rng = random.Random(67)
    for _ in range(300):
        t = rng.choice((-1.0, 1.0)) * rng.uniform(5.0e6, 1.0e7)
        assert abs(lift.on_line(t) - nearest_distance()(t)) <= 1e-8


def test_cell_integrals():
    near = torus_lift(NEAREST)
    # quarter of short area-average plus long part: (tau^2 + 1/tau)/4
    assert near.cell_integral() == pytest.approx((TAU**2 + 1.0 / TAU) / 4.0, abs=1e-12)
    step = torus_lift(INTERVAL)
    assert step.cell_integral() == pytest.approx(TAU - 1.0 / TAU, abs=1e-12)
    assert step.cell_integral() == pytest.approx(1.0, abs=1e-12)
    const = TorusLift.constant(3.0)
    assert const.cell_integral() == pytest.approx(3.0 * math.sqrt(5.0), abs=1e-12)


def test_line_average_matches_cell_average():
    # Birkhoff average of the tent function over [0, 1e4] vs the
    # area-normalised cell integral
    f = nearest_distance()
    avg = line_integral(f, 0.0, 0.0, 1.0e4).real / 1.0e4
    assert avg == pytest.approx(0.3618, abs=2e-3)


def test_point_sets_close_basics():
    sl = enumerate_model_set(Window.default(), -40.0, 40.0)
    vals = sl.values
    assert point_sets_close(vals, list(vals), r=30.0, eps=1e-9)
    shifted = [v + 0.05 for v in vals]
    assert point_sets_close(vals, shifted, r=30.0, eps=0.2)
    assert not point_sets_close(vals, shifted, r=30.0, eps=0.01)


def test_point_sets_close_detects_singular_difference():
    default = enumerate_model_set(Window.default(), -40.0, 40.0).values
    alternate = enumerate_model_set(
        Window(QTau(-1), QTau(-1, 1), includes_lo=False, includes_hi=True),
        -40.0,
        40.0,
    ).values
    assert not point_sets_close(default, alternate, r=10.0, eps=1e-6)
    # with a coarse eps the two singular sets agree: the mismatch at -1
    # versus -tau is within 0.7
    assert point_sets_close(default, alternate, r=10.0, eps=0.7)


def test_point_sets_close_requires_coverage():
    with pytest.raises(ValueError):
        point_sets_close([0.0, 1.0], [0.0, 1.0], r=10.0, eps=0.1)
