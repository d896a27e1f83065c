"""Tent/step functions on the aperiodic point set and their torus lifts."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibfourier import fibonacci
from fibfourier.cutproject import POSITION_LIMIT, ApproxWindow, Window, enumerate_model_set
from fibfourier.fibonacci import (
    _PAD,
    INTERVAL,
    INV_TAU,
    INV_TAU2,
    NEAREST,
    LocalFunction,
    TorusLift,
    constant,
    nearest_distance,
    interval_sign,
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
    assert [p.algebraic for p in sl if p.value >= -0.5] == pts
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
    for p, q in zip(sl, sl[1:]):
        assert f(p.value) == pytest.approx(0.0, abs=1e-12)
        mid = 0.5 * (p.value + q.value)
        assert f(mid) == pytest.approx(0.5 * (q.value - p.value), abs=1e-9)


def test_local_function_far_from_origin():
    # evaluation far outside the initially bracketed region stays pinned to
    # the point set, and each query reads only the slice around it, so a far
    # query after a near one costs what it would cost alone
    f = nearest_distance()
    far = substitution_points(2000)[-1]
    assert far.value > 1500.0
    assert f(far.value) == pytest.approx(0.0, abs=1e-12)
    assert f(-far.value) >= 0.0
    assert f(3.0) == pytest.approx(f(3.0), abs=0.0)
    for t in (0.0, 2.0e5, 1.0e7, -1.0e9):
        assert f(t) == nearest_distance()(t)
        assert len(f.context.ensure(t, t)) <= 64


def test_positions_beyond_the_limit_are_refused():
    f = nearest_distance()
    lift = torus_lift(NEAREST)
    # every position up to the limit is answered, the context's pad included
    for t in (-POSITION_LIMIT, POSITION_LIMIT):
        assert abs(lift.evaluate_torus(t, 0.0) - f(t)) <= 2e-7
    assert f.linear_pieces(-POSITION_LIMIT, 1.0 - POSITION_LIMIT)[0][0] == -POSITION_LIMIT
    assert f.linear_pieces(POSITION_LIMIT - 1.0, POSITION_LIMIT)[-1][1] == POSITION_LIMIT
    beyond = math.nextafter(POSITION_LIMIT, math.inf)
    refused = [
        lambda: f(beyond),
        lambda: f(-beyond),
        lambda: f(math.nan),
        lambda: f.linear_pieces(POSITION_LIMIT - 1.0, beyond),
        lambda: enumerate_model_set(Window.default(), 2.0e9, 2.0e9 + 10.0),
        lambda: enumerate_model_set(Window.default(), -POSITION_LIMIT - 50.0, -POSITION_LIMIT),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=r"beyond the limit 1e\+09"):
            call()
    # the torus evaluation itself is unchecked (its docstring states the
    # precision)
    assert lift.evaluate_torus(2.0 * beyond, 0.0) >= 0.0


_WINDOWS = {
    "default": Window.default(),
    "shifted": Window.default().shifted(QTau(Fraction(1, 2))),
    # a float window of length tau, whose tiles interval_sign can name
    "approx": ApproxWindow(-0.9, TAU - 0.9),
}
# float windows of other lengths: tiles of length 1, tau and tau^2; of
# tau^-1, tau^-2 and tau^-3; and of tau^2 and tau^3
_THREE_TILE = ApproxWindow(-0.9, 0.7)
_OTHER_TILES = [_THREE_TILE, ApproxWindow(-2.0, TAU * TAU), ApproxWindow(-1.0 / 3.0, 0.5)]
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
    for p, q in zip(sl, sl[1:]):
        expected.add(p.value)
        if name == "nearest":
            expected.add(0.5 * (p.value + q.value))
    inner = {x for x in expected if lo < x < hi}
    assert {x0 for x0, _, _, _ in pieces[1:]} == inner
    for x0, x1, c, m in pieces:
        assert x0 < x1
        mid = 0.5 * (x0 + x1)
        assert c + m * mid == pytest.approx(_reference(name, sl, mid), abs=1e-9)
        assert f(mid) == pytest.approx(_reference(name, sl, mid), abs=1e-9)


def _check_covers(name, window):
    f = _MAKERS[name](window)
    _check_cover(name, f, window, 0.0, 20.0)
    points = enumerate_model_set(window, -5.0, 40.0)
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


@pytest.mark.parametrize("window_name", _WINDOWS)
@pytest.mark.parametrize("name", _MAKERS)
def test_linear_pieces_cover_interval(name, window_name):
    _check_covers(name, _WINDOWS[window_name])


@pytest.mark.parametrize("name", ["nearest", "constant"])
def test_linear_pieces_cover_three_tile_window(name):
    _check_covers(name, _THREE_TILE)


def test_interval_sign_refuses_tiles_it_cannot_name():
    for window in _OTHER_TILES:
        tiles = {p.tile for p in enumerate_model_set(window, -20.0, 20.0)}
        assert "other" in tiles, window
        f = interval_sign(window)
        for call in (lambda: f(0.0), lambda: f.linear_pieces(0.0, 5.0), lambda: f.values_at([1.0])):
            with pytest.raises(ValueError, match="interval_sign has no sign for the tile"):
                call()
        # the tent reads only the tile ends
        g = nearest_distance(window)
        points = enumerate_model_set(window, -5.0, 5.0)
        assert g(points[2].value) == 0.0
        assert g(0.5 * (points[2].value + points[3].value)) == pytest.approx(
            0.5 * (points[3].value - points[2].value), abs=1e-12
        )


_queries = st.lists(
    st.tuples(
        st.floats(-1.0e6, 1.0e6),
        st.one_of(st.none(), st.floats(1.0e-3, 50.0)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.sampled_from(["nearest", "interval"]),
    st.sampled_from(sorted(_WINDOWS)),
    _queries,
)
def test_answers_do_not_depend_on_query_history(name, window_name, queries):
    # a point (width None) or an interval query on one function answers as
    # a fresh function does, and enumerates only the slice around the query
    window = _WINDOWS[window_name]
    f = _MAKERS[name](window)
    spans = []

    def recording(w, lo, hi):
        spans.append(hi - lo)
        return enumerate_model_set(w, lo, hi)

    for lo, width in queries:
        fresh = _MAKERS[name](window)
        spans.clear()
        with mock.patch.object(fibonacci, "enumerate_model_set", recording):
            if width is None:
                assert f(lo) == fresh(lo)
            else:
                hi = lo + width
                assert f.linear_pieces(lo, hi) == fresh.linear_pieces(lo, hi)
        assert all(span <= (width or 0.0) + 2 * _PAD + 1e-6 for span in spans)


def test_values_at_reads_one_table_per_bounded_stretch():
    # 20k positions 0.25 apart, read over five tables of span <= 1024, then
    # positions more than 2 * _PAD apart, each read alone as a query is
    ts = [0.25 * k for k in range(20_000)] + [1.0e6, 1.0e6 + 40.0, 5.0e8]
    spans = []

    def recording(w, lo, hi):
        spans.append(hi - lo)
        return enumerate_model_set(w, lo, hi)

    for name in ("nearest", "interval"):
        f = _MAKERS[name](None)
        fresh = _MAKERS[name](None)
        spans.clear()
        with mock.patch.object(fibonacci, "enumerate_model_set", recording):
            values = f.values_at(ts)
        assert list(map(repr, values)) == [repr(fresh(t)) for t in ts]
        assert len(spans) == 8
        assert max(spans) <= fibonacci._BATCH_SPAN + 2 * _PAD + 1e-6
    assert nearest_distance().values_at([]) == []


def _piece_ends(window):
    """The tile points and tile midpoints of the window's model set in
    [-2100, 2100]: every piece of the tent, the sign and the constant ends
    at one of them."""
    points = enumerate_model_set(window, -2100.0, 2100.0)
    mids = {0.5 * (p.value + q.value) for p, q in zip(points, points[1:])}
    return sorted({p.value for p in points} | mids)


_WALKED = {
    "nearest": (nearest_distance, Window.default()),
    "interval": (interval_sign, Window.default()),
    "constant": (lambda window: constant(3.0), Window.default()),
    "nearest shifted": (nearest_distance, _WINDOWS["shifted"]),
    "interval shifted": (interval_sign, _WINDOWS["shifted"]),
}
_ENDS = {name: _piece_ends(window) for name, (_, window) in _WALKED.items()}


def _stretches(ends):
    """Positions in pieces, sorted: single floats (negative ones, and gaps
    wider than 2 * _PAD between them), exact piece ends twice over, runs of
    consecutive piece ends, and evenly spaced runs from a piece end with
    steps up to 2 * _PAD (one stretch, up to 80 * 2 * _PAD long, so longer
    than _BATCH_SPAN; a zero step repeats one position)."""
    k = st.integers(0, len(ends) - 1)
    piece = st.one_of(
        st.floats(-2000.0, 2000.0).map(lambda t: [t]),
        st.sampled_from(ends).map(lambda t: [t, t]),
        st.tuples(k, st.integers(1, 60)).map(lambda kc: ends[kc[0] : kc[0] + kc[1]]),
        st.tuples(st.sampled_from(ends), st.floats(0.0, 2 * _PAD), st.integers(1, 80)).map(
            lambda run: [run[0] + i * run[1] for i in range(run[2])]
        ),
    )
    return st.lists(piece, min_size=1, max_size=6).map(lambda parts: sorted(t for part in parts for t in part))


def _every_kind(ends):
    """Positions with each kind _stretches draws: repeats, exact ends, a gap
    wider than 2 * _PAD, a stretch longer than _BATCH_SPAN, negatives."""
    k = next(i for i, t in enumerate(ends) if t >= -30.0)
    near = ends[k : k + 40]
    return sorted([*near, *near, -1500.0, -1500.0 + 3 * _PAD, *(100.0 + 30.0 * i for i in range(50))])


@settings(max_examples=50, derandomize=True, deadline=None)
@example(("nearest", _every_kind(_ENDS["nearest"])))
@example(("interval shifted", _every_kind(_ENDS["interval shifted"])))
@given(st.sampled_from(sorted(_WALKED)).flatmap(lambda name: st.tuples(st.just(name), _stretches(_ENDS[name]))))
def test_values_at_walk_answers_as_call(case):
    name, ts = case
    make, window = _WALKED[name]
    fresh = make(window)
    assert list(map(repr, make(window).values_at(ts))) == [repr(fresh(t)) for t in ts]


def test_values_at_refuses_positions_that_go_down():
    f = nearest_distance()
    for ts in ([1.0, 0.5], [0.0, 3.0, 2.999], [0.0, 10.0, 20.0, -5.0]):
        with pytest.raises(ValueError, match="needs ascending positions"):
            f.values_at(ts)
    # equal positions, and -0.0 after 0.0, do not go down
    assert f.values_at([0.0, -0.0, 1.0, 1.0]) == [f(0.0), f(-0.0), f(1.0), f(1.0)]


def test_values_at_reports_a_table_that_misses_a_position():
    # a rule with no piece on the second half of each tile: the walk stops
    # where __call__'s bisect does, for the first position of a stretch and
    # for a later one
    f = LocalFunction(lambda p, q, tile: [(p, 0.5 * (p + q), 1.0, 0.0)])
    points = enumerate_model_set(Window.default(), 0.0, 10.0)
    inside = 0.5 * (points[1].value + points[2].value) - 0.1
    gap = 0.5 * (points[2].value + points[3].value) + 0.1
    assert f.values_at([inside]) == [f(inside)] == [1.0]
    for ts in ([gap], [inside, gap]):
        with pytest.raises(RuntimeError, match="context coverage too small"):
            f.values_at(ts)
    with pytest.raises(RuntimeError, match="context coverage too small"):
        f(gap)


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
    points = [p.value for p in enumerate_model_set(Window.default(), -600.0, 2000.0)]
    mids = [0.5 * (p + q) for p, q in zip(points, points[1:])]
    # interval_sign jumps at the model points, where a float t cannot tell
    # which tile it starts, so only the continuous tent is checked there
    for descriptor, f, ts in (
        (NEAREST, nearest_distance(), random_ts + grid + mids + points),
        (INTERVAL, interval_sign(), random_ts + grid + mids),
    ):
        lift = torus_lift(descriptor)
        bad = [t for t in ts if abs(lift.evaluate_torus(t, 0.0) - f(t)) > 1e-9]
        assert bad == []


def test_lift_precision_far_from_origin():
    # the reduction loses precision with ulp(|t|); one function answers
    # every t from the slice around it
    lift = torus_lift(NEAREST)
    f = nearest_distance()
    rng = random.Random(67)
    for lo, hi, tol in ((5.0e6, 1.0e7, 1e-8), (5.0e8, 1.0e9, 2e-7)):
        for _ in range(300):
            t = rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)
            assert abs(lift.evaluate_torus(t, 0.0) - f(t)) <= tol


_SHIFTED = Window.default().shifted(QTau(Fraction(1, 2)))


def test_lift_on_shifted_window_restricts_to_line():
    # the shifted window moves the support rectangles by -1/2 internally;
    # moving them by +1/2 instead fails this check
    grid = [-600.0 + 2600.0 * i / 40_000 for i in range(40_001)]
    points = [p.value for p in enumerate_model_set(_SHIFTED, -600.0, 2000.0)]
    mids = [0.5 * (p + q) for p, q in zip(points, points[1:])]
    for f, ts in (
        (nearest_distance(_SHIFTED), grid + mids + points),
        (interval_sign(_SHIFTED), grid + mids),
    ):
        lift = TorusLift(f.rule, _SHIFTED)
        bad = [t for t in ts if abs(lift.evaluate_torus(t, 0.0) - f(t)) > 1e-9]
        assert bad == []


@pytest.mark.parametrize(
    "window",
    [ApproxWindow(-0.9, 0.7), ApproxWindow(-1.0, TAU - 1.0), Window(QTau(-1), QTau(1))],
    ids=["approx", "approx-tau", "exact-length-2"],
)
def test_lift_refuses_other_windows(window):
    with pytest.raises(ValueError, match="exact window of length tau"):
        TorusLift(nearest_distance().rule, window)


# the lifts as written out by hand before they were derived from the tile
# rules: per rectangle value functions and the cell integrals
_SEED_LIFTS = {
    NEAREST: (
        lambda x: 0.5 - abs(x + 0.5),
        lambda x: TAU / 2.0 - abs(x - TAU / 2.0),
        0.25 * INV_TAU + 0.25 * TAU * TAU,
    ),
    INTERVAL: (lambda x: -1.0, lambda x: 1.0, TAU - INV_TAU),
}


def _seed_evaluate_torus(descriptor, x, y):
    short, long, _ = _SEED_LIFTS[descriptor]
    b0 = math.floor((x - y) / math.sqrt(5.0))
    for b in (b0, b0 + 1):
        a = math.ceil(y - b * TAU_STAR - INV_TAU2)
        xx = x - a - b * TAU
        if xx < TAU:
            return long(xx) if xx >= 0.0 else short(xx)
    raise AssertionError("no copy holds the point")


def test_lift_matches_seed_formulas_bitwise():
    rng = random.Random(73)
    plane = [(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(20_000)]
    line = [(-600.0 + 2600.0 * i / 20_000, 0.0) for i in range(20_001)]
    # rectangle corners and tile midpoints, shifted by lattice points
    corners = [
        (x + a + b * TAU, y + a + b * TAU_STAR)
        for x in (-1.0, -0.5, 0.0, 0.5 * TAU, TAU)
        for y in (-INV_TAU, 0.0, INV_TAU2)
        for a in range(-5, 6)
        for b in range(-5, 6)
    ]
    for descriptor in (NEAREST, INTERVAL):
        lift = torus_lift(descriptor)
        assert lift.cell_integral() == _SEED_LIFTS[descriptor][2]
        for x, y in plane + line + corners:
            assert lift.evaluate_torus(x, y) == _seed_evaluate_torus(descriptor, x, y), (x, y)


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
