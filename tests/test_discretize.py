"""Path decomposition of the irrational line and the two-step quadrature."""

import math
import statistics
from fractions import Fraction

import pytest

from fibfourier.cutproject import torus_coords
from fibfourier.discretize import (
    cell_quadrature,
    compare_data_points,
    data_points,
    data_quadrature,
    error_estimate,
    path_decomposition,
    refinement_reps,
    strip_projection_oracle,
)
from fibfourier.fibonacci import (
    INTERVAL,
    NEAREST,
    TorusLift,
    constant,
    nearest_distance,
    interval_sign,
    torus_lift,
)
from fibfourier.ztau import QTau, SQRT5, TAU, TAU_STAR, ZTau

_SQ5 = math.sqrt(5.0)


def test_refinement_reps_small():
    r1 = refinement_reps(1)
    assert len(r1) == 1
    assert r1[0].s == QTau(0, 0)
    r3 = refinement_reps(3)
    assert len(r3) == 9
    assert {(p.i, p.j) for p in r3} == {(i, j) for i in range(3) for j in range(3)}
    assert r3[5].s == QTau(Fraction(1, 3), Fraction(2, 3))
    assert len(refinement_reps(7)) == 49
    with pytest.raises(ValueError):
        refinement_reps(0)


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
        assert TAU_STAR - 1e-12 < seg.height < 1.0 + 1e-12


def test_heights_are_distinct():
    path = path_decomposition(passes=40)
    hs = sorted(path.heights)
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
        assert data.n == n and data.m == 17
        us = data.values
        assert us == sorted(us)
        assert all(0.0 <= u <= path.r + 1e-9 for u in us)
        # exact equidistribution: every refined representative appears once
        cells = sorted((n * p.s.a, n * p.s.b) for p in data.points)
        assert cells == [(i, j) for i in range(n) for j in range(n)]
        assert all(p.residual >= 0.0 for p in data.points)


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
    assert statistics.mean(long.residuals) < statistics.mean(short.residuals)


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
