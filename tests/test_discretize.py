"""Path decomposition of the irrational line and the two-step quadrature."""

import gc
import math
import statistics
import weakref
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibfourier import discretize
from fibfourier.cutproject import Frequency, Window, frequency_representatives
from fibfourier.discretize import (
    SEGMENT_LIMIT,
    DataPoint,
    ErrorEstimate,
    PathDecomposition,
    Segment,
    _cell_chord,
    _column_bound,
    _embedded_reps,
    _subcell_bound,
    cell_quadrature,
    compare_data_points,
    data_points,
    data_quadrature,
    error_estimate,
    path_decomposition,
    strip_projection_oracle,
)
from fibfourier.fibonacci import (
    INTERVAL,
    NEAREST,
    LocalFunction,
    TorusLift,
    constant,
    nearest_distance,
    interval_sign,
    torus_lift,
)
from fibfourier.fourier import build_approximant, coeff_sum
from fibfourier.ztau import DELTA, QTau, SQRT5, TAU, TAU_STAR, ZTau

_SQ5 = math.sqrt(5.0)


def refinement_reps(n):
    """The n^2 refined-lattice representatives (i + j*tau)/n, 0 <= i, j < n."""
    return [QTau(Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n)]


def torus_coords(t):
    """Lattice coordinates in [0,1)^2 of the line point (t, 0) modulo the
    scheme lattice."""
    return (DELTA * t) % 1.0, (TAU * DELTA * t) % 1.0


def _height(seg):
    """Internal coordinate of a segment inside the cell."""
    return -seg.translate.embed().x_star


def test_path_single_pass():
    path = path_decomposition(passes=1)
    assert path.m == 1
    assert path.r == pytest.approx(_SQ5, abs=1e-12)
    seg = path.segments[0]
    assert (seg.t_enter, seg.t_exit) == (0.0, pytest.approx(_SQ5, abs=1e-12))
    assert seg.translate == ZTau(0, 0)


def test_path_three_passes():
    path = path_decomposition(passes=3)
    exits = [seg.t_exit for seg in path.segments]
    assert exits == pytest.approx([_SQ5, TAU * _SQ5, 2.0 * _SQ5], abs=1e-9)
    assert [seg.translate for seg in path.segments] == [
        ZTau(0, 0),
        ZTau(0, 1),
        ZTau(1, 1),
    ]


def test_path_range_truncates_to_complete_passes():
    path = path_decomposition(range_r=10.0)
    assert path.m == 6
    assert path.r == pytest.approx(4.0 * _SQ5, abs=1e-12)
    assert path.r <= 10.0


def test_path_argument_validation():
    with pytest.raises(ValueError):
        path_decomposition()
    with pytest.raises(ValueError):
        path_decomposition(passes=3, range_r=10.0)
    with pytest.raises(ValueError):
        path_decomposition(passes=0)
    with pytest.raises(ValueError):
        path_decomposition(range_r=1.0)


def test_path_segment_count_from_the_range():
    for r in (_SQ5, 10.0, 21.64, 1000.0, 12345.6):
        expected = math.floor(r / (TAU * _SQ5)) + math.floor(r / _SQ5)
        assert path_decomposition(range_r=r).m == expected, r


def test_path_refusals_come_before_any_segment(monkeypatch):
    calls = []

    class Built(Exception):
        pass

    def segment(*args):
        # the first segment stops the build: a refusal must come before it
        calls.append(args)
        raise Built

    monkeypatch.setattr(discretize, "Segment", segment)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="range must be finite"):
            path_decomposition(range_r=r)
    for kwargs in ({"passes": SEGMENT_LIMIT + 1}, {"range_r": 1e8}, {"passes": 10**7}):
        with pytest.raises(ValueError, match=f"segments, more than {SEGMENT_LIMIT}"):
            path_decomposition(**kwargs)
    assert calls == []
    # the limit itself, and R = 1e6 (723,606 segments), are taken
    for kwargs in ({"passes": SEGMENT_LIMIT}, {"range_r": 1e6}):
        with pytest.raises(Built):
            path_decomposition(**kwargs)
    assert calls == [(0.0, _SQ5, ZTau(0, 0))] * 2


def _two_step_segments(passes, range_r):
    """The segments as first built: a list of (kind, t) crossings, then one
    segment per crossing."""
    iu, iv = 1, 1
    crossings = []
    while True:
        tu = iu * (TAU * _SQ5)
        tv = iv * _SQ5
        if tv <= tu:
            kind, t = "v", tv
            iv += 1
        else:
            kind, t = "u", tu
            iu += 1
        if range_r is not None and t > range_r:
            break
        crossings.append((kind, t))
        if passes is not None and len(crossings) == passes:
            break
    segments = []
    t0 = 0.0
    cu = cv = 0
    for kind, t in crossings:
        segments.append(Segment(t0, t, ZTau(cu, cv)))
        if kind == "u":
            cu += 1
        else:
            cv += 1
        t0 = t
    return segments


@pytest.mark.parametrize(
    "kwargs",
    [{"passes": m} for m in (1, 2, 17, 1000)]
    # ranges equal to crossing times, and one between them
    + [{"range_r": r} for r in (_SQ5, TAU * _SQ5, 2.0 * _SQ5, 1000.0)],
)
def test_path_segments_match_the_two_step_construction(kwargs):
    path = path_decomposition(**kwargs)
    expected = _two_step_segments(kwargs.get("passes"), kwargs.get("range_r"))
    assert path.segments == expected
    assert [type(seg.translate) for seg in path.segments] == [ZTau] * len(expected)
    assert path.r == expected[-1].t_exit and path.m == len(expected)


def test_path_segments_chain_and_cells():
    path = path_decomposition(passes=17)
    assert path.segments[0].t_enter == 0.0
    for a, b in zip(path.segments, path.segments[1:]):
        assert a.t_exit == pytest.approx(b.t_enter, abs=1e-12)
    delta = 1.0 / (TAU * _SQ5)
    for seg in path.segments:
        mid = 0.5 * (seg.t_enter + seg.t_exit)
        wraps = (math.floor(delta * mid), math.floor(TAU * delta * mid))
        assert (seg.translate.a, seg.translate.b) == wraps
        # heights fill the internal direction of the cell
        assert TAU_STAR - 1e-12 < _height(seg) < 1.0 + 1e-12


def test_heights_are_distinct():
    path = path_decomposition(passes=40)
    hs = sorted(_height(seg) for seg in path.segments)
    for a, b in zip(hs, hs[1:]):
        assert b - a > 1e-6


def test_data_points_n1():
    data = data_points(1, path_decomposition(passes=5))
    assert len(data) == 1
    assert data.points[0].u == 0.0
    assert data.points[0].translate == ZTau(0, 0)


def test_data_points_basic_invariants():
    path = path_decomposition(passes=17)
    for n in (3, 7):
        data = data_points(n, path)
        assert len(data) == n * n
        assert data.n == n
        us = data.values
        assert us == sorted(us)
        assert all(0.0 <= u <= path.r + 1e-9 for u in us)
        # exact equidistribution: every refined representative appears once
        cells = sorted((n * p.s.a, n * p.s.b) for p in data.points)
        assert cells == [(i, j) for i in range(n) for j in range(n)]
        assert all(p.residual >= 0.0 for p in data.points)


@pytest.mark.parametrize("n", [3, 27, 81])
def test_data_point_reps_are_the_refinement_reps(n):
    # reprs name the class of each coefficient, so each must be an exact Fraction
    reps = sorted(map(repr, refinement_reps(n)))
    path = path_decomposition(passes=150)
    for data in (data_points(n, path), strip_projection_oracle(n, path)):
        assert sorted(repr(p.s) for p in data.points) == reps


_LOCAL_FUNCTIONS = {
    "nearest": nearest_distance,
    "interval": interval_sign,
    "shifted": lambda: nearest_distance(Window.default().shifted(QTau(Fraction(1, 2)))),
    "constant": lambda: constant(3.0),
}


@pytest.mark.parametrize("name", sorted(_LOCAL_FUNCTIONS))
@pytest.mark.parametrize("n,passes", [(3, 17), (27, 150), (81, 600)])
def test_samples_match_pointwise_calls(name, n, passes):
    data = data_points(n, path_decomposition(passes=passes))
    f = _LOCAL_FUNCTIONS[name]()

    def fresh():
        return LocalFunction(f.rule, f.context.window)

    g = fresh()
    samples = [g(u) for u in data.values]
    assert list(map(repr, f.values_at(data.values))) == list(map(repr, samples))
    # the sum estimator's k = 0 term adds those same values
    total = 0.0
    for v in samples:
        total += v
    assert repr(coeff_sum(Frequency(0, 0), f, data)) == repr(complex(total, 0.0) / (n * n))
    # f answers later queries, near and far, as a fresh function does
    for t in (0.0, 2e5):
        assert repr(f(t)) == repr(fresh()(t)), t


@pytest.mark.parametrize("n,passes,cap", [(3, 10, 0.08), (9, 17, 0.06)])
def test_data_points_land_near_their_representative(n, passes, cap):
    """Torus coordinates of u deviate from the target grid node by < 1/n."""

    def circ(a, b):
        d = abs(a - b) % 1.0
        return min(d, 1.0 - d)

    data = data_points(n, path_decomposition(passes=passes))
    worst = 0.0
    for p in data.points:
        u, v = torus_coords(p.u)
        worst = max(worst, circ(u, p.s.a), circ(v, p.s.b))
    assert worst <= 1.0 / n + 1e-12
    assert worst <= cap


@pytest.mark.parametrize("n,passes", [(3, 10), (7, 11), (9, 17)])
def test_strip_projection_agrees_with_residual_rule(n, passes):
    path = path_decomposition(passes=passes)
    a = data_points(n, path)
    b = strip_projection_oracle(n, path)
    assert compare_data_points(a, b) == []


def _argmin_points(n, path):
    """Data points by brute force: every representative against every segment."""
    pts = []
    for s in refinement_reps(n):
        emb = s.embed()
        seg = min(
            path.segments,
            key=lambda g: (abs(emb.x_star - _height(g)), g.translate.embed().x),
        )
        t = seg.translate.embed()
        pts.append(DataPoint(emb.x + t.x, s, seg.translate, abs(emb.x_star + t.x_star)))
    pts.sort(key=lambda p: p.u)
    return pts


@pytest.mark.parametrize("n,passes", [(1, 5), (3, 10), (7, 11), (9, 17), (27, 300)])
def test_data_points_match_brute_force_argmin(n, passes):
    path = path_decomposition(passes=passes)
    assert data_points(n, path).points == _argmin_points(n, path)


def test_data_points_break_ties_like_the_argmin():
    # s' = 0 lies halfway between heights -+(1 + tau'): the smaller t wins
    segs = [
        Segment(0.0, 1.0, ZTau(1, 1)),
        Segment(1.0, 2.0, ZTau(-1, -1)),
        Segment(2.0, 3.0, ZTau(2, 0)),
    ]
    path = PathDecomposition(segs, 3.0, 3)
    points = data_points(1, path).points
    assert points == _argmin_points(1, path)
    assert points[0].translate == ZTau(-1, -1)
    # two translates whose float heights coincide below s' = 0: the bisect
    # lands next to the larger t, the argmin takes the smaller one
    far, near = ZTau(681279976, 1102334157), ZTau(618033990, 1000000002)
    assert _height(Segment(0.0, 1.0, far)) == _height(Segment(0.0, 1.0, near)) < 0.0
    path = PathDecomposition([Segment(0.0, 1.0, far), Segment(1.0, 2.0, near)], 2.0, 2)
    points = data_points(1, path).points
    assert points == _argmin_points(1, path)
    assert points[0].translate == near
    # repeated segments and any segment order give the brute-force picks
    real = path_decomposition(passes=40).segments
    for order in (real * 2, real[::-1] + real, real[::2] + real[1::2]):
        path = PathDecomposition(order, 0.0, len(order))
        assert data_points(9, path).points == _argmin_points(9, path)


# real segments, two translates whose float heights coincide (see above),
# and two pairs of heights -+h, whose tie at s' = 0 picks the upper and the
# lower segment: a run then ends before or at the midpoint
_TIE_SEGMENTS = [Segment(0.0, 1.0, t) for t in (ZTau(1, 1), ZTau(-1, -1), ZTau(0, -1), ZTau(0, 1))]
_PICK_SEGMENTS = [
    *path_decomposition(passes=40).segments,
    Segment(0.0, 1.0, ZTau(681279976, 1102334157)),
    Segment(1.0, 2.0, ZTau(618033990, 1000000002)),
    *_TIE_SEGMENTS,
]


@settings(max_examples=150, derandomize=True, deadline=None)
@example(2, _TIE_SEGMENTS[:2])
@example(2, _TIE_SEGMENTS[2:])
@given(st.integers(1, 12), st.lists(st.sampled_from(_PICK_SEGMENTS), min_size=1, max_size=40))
def test_runs_pick_like_the_argmin_on_any_path(n, segments):
    # drawn with replacement: shuffled, with repeats, with and without the
    # coinciding heights
    path = PathDecomposition(segments, 0.0, len(segments))
    assert data_points(n, path).points == _argmin_points(n, path)
    assert list(map(repr, strip_projection_oracle(n, path).points)) == list(
        map(repr, _seed_strip_projection(n, path))
    )


def test_data_points_refuse_heights_closer_than_rounding():
    # distinct heights this close could round to one distance from one s'
    # and not from another, where the pick in runs would not be the argmin's
    segs = [Segment(0.0, 1.0, ZTau(0, 0)), Segment(1.0, 2.0, QTau(Fraction(1, 2**60)))]
    with pytest.raises(ValueError, match="closer than a rounding unit"):
        data_points(3, PathDecomposition(segs, 2.0, 2))


def test_numeric_path_builds_no_records(monkeypatch):
    def refuse(*args):
        raise AssertionError("a DataPoint was built")

    monkeypatch.setattr(discretize, "DataPoint", refuse)
    path = path_decomposition(passes=150)
    data = data_points(27, path)
    assert compare_data_points(data, strip_projection_oracle(27, path)) == []
    f = nearest_distance()
    assert data_quadrature(f, data) > 0.0
    assert len(build_approximant("sum", frequency_representatives(27), f=f, data=data).coeffs) == 729


def test_strip_projection_n1():
    data = strip_projection_oracle(1, path_decomposition(passes=5))
    assert len(data) == 1
    assert data.points[0].u == 0.0


def test_compare_data_points_rejects_size_mismatch():
    path = path_decomposition(passes=5)
    with pytest.raises(ValueError):
        compare_data_points(data_points(1, path), data_points(2, path))


@pytest.mark.parametrize("n", [3, 9])
def test_residuals_shrink_with_longer_paths(n):
    short = data_points(n, path_decomposition(passes=10))
    long = data_points(n, path_decomposition(passes=40))
    assert statistics.mean(p.residual for p in long.points) < statistics.mean(
        p.residual for p in short.points
    )


def test_error_estimate_constant_lift_vanishes():
    est = error_estimate(TorusLift.constant(3.0), 3, path_decomposition(passes=10))
    assert est == (0.0, 0.0, 0.0)


def test_error_estimate_shrinks_with_n():
    path = path_decomposition(passes=17)
    lift = torus_lift(NEAREST)
    est3 = error_estimate(lift, 3, path)
    est9 = error_estimate(lift, 9, path)
    assert est9.eps_n <= est3.eps_n + 1e-12
    assert est3.bound == pytest.approx(SQRT5 * (est3.eps_n + est3.eps_n_prime), abs=1e-12)


@pytest.mark.parametrize("descriptor", [NEAREST, INTERVAL])
@pytest.mark.parametrize("n", [3, 7])
def test_quadrature_error_bounds(descriptor, n):
    """The sampled oscillation bounds dominate the observed quadrature errors."""
    path = path_decomposition(passes=17)
    lift = torus_lift(descriptor)
    f = nearest_distance() if descriptor == NEAREST else interval_sign()
    est = error_estimate(lift, n, path)
    cq = cell_quadrature(lift, n)
    dq = data_quadrature(f, data_points(n, path))
    exact = lift.cell_integral()
    assert abs(exact - cq) <= SQRT5 * est.eps_n + 1e-12
    assert abs(cq - dq) <= SQRT5 * est.eps_n_prime + 1e-12
    assert abs(exact - dq) <= est.bound + 1e-12


def test_data_quadrature_constant():
    data = data_points(5, path_decomposition(passes=10))
    assert data_quadrature(constant(2.0), data) == pytest.approx(
        2.0 * SQRT5, abs=1e-12
    )
    assert cell_quadrature(TorusLift.constant(2.0), 5) == pytest.approx(
        2.0 * SQRT5, abs=1e-12
    )


def _seed_cell_oscillation(lift, n, i, j):
    """Sampled oscillation of the lift over sub-cell (i, j), on the 10^2
    grid and with the float expressions error_estimate samples with."""
    step = 1.0 / n
    offs = [k / (10 - 1.0) * step for k in range(10)]
    u0 = i * step
    v0 = j * step
    # min and max of the list keep the first extreme, as running ones do
    vals = [
        lift.evaluate_torus(u + v * TAU, u + v * TAU_STAR)
        for u in (u0 + du for du in offs)
        for v in (v0 + dv for dv in offs)
    ]
    return max(vals) - min(vals)


def _seed_error_estimate(lift, n, path):
    """Reference for error_estimate that samples every sub-cell and every
    strip."""
    eps_n = 0.0
    for i in range(n):
        for j in range(n):
            eps_n = max(eps_n, _seed_cell_oscillation(lift, n, i, j))
    _, edges = path.strips
    eps_p = 0.0
    shrink = 1e-9
    for y0, y1 in zip(edges, edges[1:]):
        for ix in range(40):
            x = (ix + 0.5) / 40 * (1.0 + TAU)
            ch_lo, ch_hi = _cell_chord(x)
            lo = max(y0, ch_lo) + shrink
            hi = min(y1, ch_hi) - shrink
            if lo >= hi:
                continue
            vals = [lift.evaluate_torus(x, lo + (hi - lo) * iy / (5 - 1.0)) for iy in range(5)]
            eps_p = max(eps_p, max(vals) - min(vals))
    return ErrorEstimate(eps_n, eps_p, SQRT5 * (eps_n + eps_p))


def _jump_rule(p, q, tile):
    # rises, then drops by a step inside the tile
    mid = 0.5 * (p + q)
    return [(p, mid, 0.25, 0.5), (mid, q, -1.0, -0.3)]


_LIFTS = {
    "nearest": lambda: torus_lift(NEAREST),
    "interval": lambda: torus_lift(INTERVAL),
    "shifted": lambda: TorusLift(
        nearest_distance().rule, Window.default().shifted(QTau(Fraction(1, 2)))
    ),
    "constant": lambda: TorusLift.constant(3.0),
    "jump": lambda: TorusLift(_jump_rule),
}


@pytest.mark.parametrize("name", sorted(_LIFTS))
@pytest.mark.parametrize("n", [1, 2, 3, 9, 27])
def test_error_estimate_matches_full_sampler_bitwise(name, n):
    lift = _LIFTS[name]()
    for passes in (1, 2, 5, 12, 17, 150):
        path = path_decomposition(passes=passes)
        assert repr(error_estimate(lift, n, path)) == repr(
            _seed_error_estimate(lift, n, path)
        ), passes


def test_error_estimate_matches_full_sampler_bitwise_at_n81():
    for descriptor, passes in ((NEAREST, 600), (INTERVAL, 1000)):
        lift = torus_lift(descriptor)
        path = path_decomposition(passes=passes)
        assert repr(error_estimate(lift, 81, path)) == repr(
            _seed_error_estimate(lift, 81, path)
        ), descriptor


def _count_lift_calls(lift):
    """Make lift.evaluate_torus count its calls; returns the counter."""
    evaluate = lift.evaluate_torus
    calls = [0]

    def counting(x, y):
        calls[0] += 1
        return evaluate(x, y)

    lift.evaluate_torus = counting
    return calls


def test_error_estimate_samples_only_the_subcells_that_can_set_eps_n():
    lift = torus_lift(NEAREST)
    calls = _count_lift_calls(lift)
    # one pass: the strip loop makes at most 40 * 5 of the calls
    error_estimate(lift, 81, path_decomposition(passes=1))
    assert calls[0] <= 0.1 * 81 * 81 * 100


def test_error_estimate_skips_runs_of_zero_range():
    # a run whose range is 0.0 has sampled oscillation 0.0, so a constant
    # lift samples only the sub-cells and columns that cross support copies;
    # sampling every sub-cell takes 656.1k calls
    lift = TorusLift.constant(3.0)
    calls = _count_lift_calls(lift)
    assert error_estimate(lift, 81, path_decomposition(passes=800)) == (0.0, 0.0, 0.0)
    assert calls[0] <= 35_000


def test_error_estimate_samples_only_the_strip_columns_that_cross_copies():
    # sampling every sub-cell and strip column here takes 93.9k calls; the
    # 303 sub-cells that can set eps_n take 30.3k of them
    lift = torus_lift(NEAREST)
    calls = _count_lift_calls(lift)
    error_estimate(lift, 81, path_decomposition(passes=600))
    assert calls[0] <= 35_000


@pytest.mark.parametrize("descriptor", [NEAREST, INTERVAL])
def test_error_estimate_bounds_runs_of_subcells(descriptor):
    # a bound for every sub-cell alone takes 81 * 81 = 6561 range_on calls;
    # bounding runs of sub-cells and of strip columns takes 2,849 (nearest)
    # and 2,825 (interval)
    lift = torus_lift(descriptor)
    range_on = lift.range_on
    calls = [0]

    def counting(corners):
        calls[0] += 1
        return range_on(corners)

    lift.range_on = counting
    error_estimate(lift, 81, path_decomposition(passes=800))
    assert calls[0] <= 3_000


@pytest.mark.parametrize("descriptor", [NEAREST, INTERVAL])
def test_error_estimate_keeps_eps_n_per_lift_and_n(descriptor):
    # the first call searches the sub-cells (30.5k calls); a later path on
    # the same lift and n samples only strip columns, at most 40 * 5 calls
    lift = torus_lift(descriptor)
    error_estimate(lift, 81, path_decomposition(passes=600))
    calls = _count_lift_calls(lift)
    path = path_decomposition(passes=800)
    est = error_estimate(lift, 81, path)
    assert calls[0] <= 200
    assert repr(est) == repr(error_estimate(torus_lift(descriptor), 81, path))


def test_cell_quadrature_is_kept_per_lift_and_n():
    lift = torus_lift(NEAREST)
    first = cell_quadrature(lift, 27)
    calls = _count_lift_calls(lift)
    assert repr(cell_quadrature(lift, 27)) == repr(first)
    assert calls[0] == 0


def test_another_lift_or_n_is_computed_afresh():
    path = path_decomposition(passes=300)
    lift = torus_lift(NEAREST)
    error_estimate(lift, 27, path)
    cell_quadrature(lift, 27)
    calls = _count_lift_calls(lift)
    # another n on the same lift: the eps_n search at n=9 takes 3.1k calls
    # and the sum 81
    assert repr(error_estimate(lift, 9, path)) == repr(error_estimate(torus_lift(NEAREST), 9, path))
    assert calls[0] > 1_000
    calls[0] = 0
    assert repr(cell_quadrature(lift, 9)) == repr(cell_quadrature(torus_lift(NEAREST), 9))
    assert calls[0] == 81
    # while n=27 is still kept: only the strip columns are sampled
    calls[0] = 0
    error_estimate(lift, 27, path)
    cell_quadrature(lift, 27)
    assert calls[0] <= 200
    # another lift at the same n takes nothing kept for the first
    other = torus_lift(NEAREST)
    other_calls = _count_lift_calls(other)
    error_estimate(other, 27, path)
    cell_quadrature(other, 27)
    assert other_calls[0] > 10_000


def test_kept_results_do_not_keep_lifts_alive():
    lift = torus_lift(NEAREST)
    error_estimate(lift, 9, path_decomposition(passes=40))
    cell_quadrature(lift, 9)
    assert lift in discretize._KEPT
    ref = weakref.ref(lift)
    del lift
    gc.collect()
    assert ref() is None


def _seed_assemble(n, path, choose):
    """Data points as assembled from refinement_reps and QTau.embed, with
    choose(s') picking a segment."""
    pts = []
    for s in refinement_reps(n):
        emb = s.embed()
        seg = choose(emb.x_star)
        temb = seg.translate.embed()
        pts.append(DataPoint(emb.x + temb.x, s, seg.translate, abs(emb.x_star + temb.x_star)))
    pts.sort(key=lambda p: p.u)
    return pts


def _seed_data_points(n, path):
    rows = sorted(
        (_height(seg), seg.translate.embed().x, i, seg) for i, seg in enumerate(path.segments)
    )
    heights = [row[0] for row in rows]
    last = len(rows) - 1

    def choose(ss):
        i = bisect_left(heights, ss)
        lo, hi = max(i - 1, 0), min(i, last)
        d = min(abs(ss - heights[lo]), abs(ss - heights[hi]))
        while lo > 0 and abs(ss - heights[lo - 1]) == d:
            lo -= 1
        while hi < last and abs(ss - heights[hi + 1]) == d:
            hi += 1
        return min(rows[lo : hi + 1], key=lambda row: (abs(ss - row[0]), row[1], row[2]))[3]

    return _seed_assemble(n, path, choose)


def _seed_strip_projection(n, path):
    order, c = path.strips
    return _seed_assemble(n, path, lambda ss: order[bisect_left(c, ss) - 1])


def _seed_cell_quadrature(lift, n):
    total = 0.0
    for s in refinement_reps(n):
        emb = s.embed()
        total += lift.evaluate_torus(emb.x, emb.x_star)
    return SQRT5 * total / (n * n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 27, 81])
def test_refinement_grid_matches_exact_embedding_bitwise(n):
    # lists of reprs, so a failure names the first differing point
    grid = [repr((x, x_star)) for _, _, x, x_star in _embedded_reps(n)]
    assert grid == [repr(tuple(s.embed())) for s in refinement_reps(n)]
    for passes in (17, 600):
        path = path_decomposition(passes=passes)
        assert list(map(repr, data_points(n, path).points)) == list(
            map(repr, _seed_data_points(n, path))
        )
        assert list(map(repr, strip_projection_oracle(n, path).points)) == list(
            map(repr, _seed_strip_projection(n, path))
        )
    for name in sorted(_LIFTS):
        lift = _LIFTS[name]()
        assert repr(cell_quadrature(lift, n)) == repr(_seed_cell_quadrature(lift, n)), name


def _runs(n):
    """A row i and runs [j0, j1) of sub-cells in it: the whole row and three
    drawn at random."""
    return st.tuples(
        st.integers(0, n - 1),
        st.lists(
            st.integers(0, n - 1).flatmap(lambda j0: st.tuples(st.just(j0), st.integers(j0 + 1, n))),
            min_size=3,
            max_size=3,
        ).map(lambda runs: [(0, n), *runs]),
    )


def _seed_column_oscillation(lift, x, lo, hi):
    """Sampled oscillation of the lift on the strip column from (x, lo) to
    (x, hi), as _seed_error_estimate samples it; 0.0 when it is empty."""
    if lo >= hi:
        return 0.0
    vals = [lift.evaluate_torus(x, lo + (hi - lo) * iy / (5 - 1.0)) for iy in range(5)]
    return max(vals) - min(vals)


# heights in [tau', 1] of the horizontal edges of the support copies, on the
# default window and on the window moved by 1/2, and strip edges close to them
_COPY_EDGES = sorted(
    h
    for h in {
        y - s + a + b * TAU_STAR
        for s in (0.0, 0.5)
        for y in (-1.0 / TAU, 0.0, 1.0 / (TAU * TAU))
        for a in range(-3, 4)
        for b in range(-3, 4)
    }
    if TAU_STAR <= h <= 1.0
)
_NEAR_COPY_EDGES = [h + d for h in _COPY_EDGES for d in (-5e-4, -2e-8, 2e-8, 5e-4)]


@settings(max_examples=20, derandomize=True, deadline=None)
@example("nearest", (9, 4, (2, [(0, 9), (3, 4)])), _NEAR_COPY_EDGES)
@example("shifted", (9, 4, (2, [(0, 9), (3, 4)])), _NEAR_COPY_EDGES)
@given(
    st.sampled_from(sorted(_LIFTS)),
    st.integers(1, 81).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), _runs(n))
    ),
    st.lists(
        st.floats(TAU_STAR, 1.0)
        | st.tuples(st.sampled_from(_COPY_EDGES), st.floats(-1e-3, 1e-3)).map(sum),
        max_size=60,
    ),
)
def test_subcell_bound_dominates_sampled_oscillation(name, row, heights):
    # every sub-cell (i, j) of a random row j, so the sub-cells that straddle
    # a piece end inside a support copy are among those checked
    n, j, (i_run, runs) = row
    lift = _LIFTS[name]()
    for i in range(n):
        assert _subcell_bound(lift, n, i, j, j + 1) >= _seed_cell_oscillation(lift, n, i, j), i
    # a run's bound holds each member's bound and sampled oscillation
    for j0, j1 in runs:
        bound = _subcell_bound(lift, n, i_run, j0, j1)
        for jj in range(j0, j1):
            assert bound >= _subcell_bound(lift, n, i_run, jj, jj + 1), (j0, j1, jj)
            assert bound >= _seed_cell_oscillation(lift, n, i_run, jj), (j0, j1, jj)
    # the same for runs of strip columns, cut as _seed_error_estimate cuts
    # them, at every abscissa: each run of up to 4 columns, and all.  The
    # strip edges are drawn, some close to the copy edges, where the ends of
    # a run decide whether it crosses copies
    edges = [TAU_STAR, *sorted(heights), 1.0]
    for ix in range(40):
        x = (ix + 0.5) / 40 * (1.0 + TAU)
        ch_lo, ch_hi = _cell_chord(x)
        cols = [(max(y0, ch_lo) + 1e-9, min(y1, ch_hi) - 1e-9) for y0, y1 in zip(edges, edges[1:])]
        osc = [_seed_column_oscillation(lift, x, lo, hi) for lo, hi in cols]
        m = len(cols)
        col_runs = [(k0, k1) for k0 in range(m) for k1 in range(k0 + 1, min(k0 + 5, m + 1))]
        for k0, k1 in [*col_runs, (0, m)]:
            bound = _column_bound(lift, x, cols[k0][0], cols[k1 - 1][1])
            assert bound >= max(osc[k0:k1]), (ix, k0, k1)
