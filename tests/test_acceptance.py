"""Acceptance gate: one test per shipped criterion.

Every test prints (and records for the terminal summary) a single line

    ACCEPTANCE c<num> <label>: PASS|FAIL (<measured numbers>)

so a plain pytest run documents the measured margins next to the pinned
tolerances.  Golden values are pinned 4-decimal reference tables; operating
points the reference runs left ambiguous are fixed as constants below.  c02
is asserted faithfully at its stated operating point even though the
reference column demonstrably belongs to a longer averaging radius; the
printed diagnostics carry the evidence.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from conftest import record

from fibfourier.cutproject import (
    Window,
    enumerate_model_set,
    frequency_representatives,
)
from fibfourier.discretize import (
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
    interval_sign,
    nearest_distance,
    substitution_points,
    substitution_word,
    torus_lift,
)
from fibfourier.fourier import (
    build_approximant,
    coeff_exact,
    coeff_integral,
    coeff_sum,
    cos_baseline,
    sup_error,
)
from fibfourier.ztau import DELTA, QTau, SQRT5, TAU, ZTau

import random

# --------------------------------------------------------------------------
# golden reference tables (printed at 4 decimals), keyed by (half_a, half_b)

T1_EXACT = {
    (-1, -1): -0.1065 - 0.03668j, (-1, 0): 0.0243 + 0.0287j,
    (-1, 1): 0.0026 + 0.0153j, (0, -1): -0.0683 + 0.0407j,
    (0, 0): 0.3618 + 0j, (0, 1): -0.0683 - 0.0407j,
    (1, -1): 0.0026 - 0.0153j, (1, 0): 0.0243 - 0.0287j,
    (1, 1): -0.1065 + 0.0367j,
}
T1_INT = {
    (-1, -1): -0.1065 - 0.0371j, (-1, 0): 0.0236 + 0.0292j,
    (-1, 1): 0.0035 + 0.0155j, (0, -1): -0.0680 + 0.0412j,
    (0, 0): 0.3618 + 0j, (0, 1): -0.0680 - 0.0412j,
    (1, -1): 0.0035 - 0.0155j, (1, 0): 0.0236 - 0.0292j,
    (1, 1): -0.1065 + 0.0371j,
}
T1_SUM = {
    (-1, -1): -0.1086 - 0.0581j, (-1, 0): 0.0269 + 0.0711j,
    (-1, 1): 0.0233 - 0.0332j, (0, -1): -0.0517 + 0.0542j,
    (0, 0): 0.3367 + 0j, (0, 1): -0.0517 - 0.0542j,
    (1, -1): 0.0233 + 0.0332j, (1, 0): 0.0269 - 0.0711j,
    (1, 1): -0.1086 + 0.0581j,
}

XS = [
    -100.0, -50.0, -15.0, -3.0 - 5.0 * TAU, 0.0, TAU, 0.25 + TAU,
    0.5 + TAU, 1.0 + TAU, 1.0 + 1.25 * TAU, 1.0 + 2.5 * TAU,
    1.0 + 2.75 * TAU, 50.0, 100.0, 500.0,
]
T2_F = [0.8065, 0.4033, 0.3262, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0,
        0.4045, 0.8090, 0.4045, 0.4033, 0.1885, 0.4396]
T2_FEX = [0.6916, 0.4229, 0.2555, 0.0577, 0.0658, 0.0797, 0.2060,
          0.3318, 0.1659, 0.3325, 0.6562, 0.3119, 0.3265, 0.3006, 0.4669]
T4_F = [1, 1, 1, 1, 1, -1, -1, -1, 1, 1, 1, 1, 1, -1, 1]

#: averaging range configured for the 3x3 coefficient table
TABLE1_RANGE = 21.64
#: radius whose integral column actually reproduces the golden values
REFERENCE_RADIUS = 42.0 * SQRT5

FREQS3 = frequency_representatives(3)
NEAR_LIFT = torus_lift(NEAREST)
INT_LIFT = torus_lift(INTERVAL)


def _key(k):
    return (k.half_a, k.half_b)


_TWO_PI = 2.0 * math.pi


def _evaluate_complex(ap, x):
    """The complex sum of ap's terms at x, added in order from 0j."""
    total = 0j
    for c in ap.coeffs:
        total += c.value * cmath.exp(1j * _TWO_PI * (2.0 * DELTA * c.k.value * x))
    return total


def _report(num, label, ok, detail):
    line = f"ACCEPTANCE c{num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    record(line)
    return line


def test_c01_exact_coefficients():
    """All nine closed-form coefficients match the golden column to 5e-4,
    computed in under a second."""
    t0 = time.monotonic()
    values = {_key(k): coeff_exact(k, NEAR_LIFT) for k in FREQS3}
    dt = time.monotonic() - t0
    worst = max(abs(values[key] - T1_EXACT[key]) for key in values)
    ok = worst <= 5e-4 and dt < 1.0
    line = _report(1, "exact-coefficients", ok, f"worst {worst:.2e} <= 5e-4, {dt:.3f}s < 1s")
    assert dt < 1.0, line
    assert worst <= 5e-4, line


def test_c02_integral_coefficients():
    """Line-average coefficients at the configured range 21.64 against the
    golden column, tolerance 5e-3, under five seconds.

    Asserted exactly as stated.  The measured column at this radius misses
    the tolerance by ~7x, while the identical estimator reproduces the
    golden column to ~1e-4 at radius 42*sqrt5; the golden column therefore
    belongs to a longer averaging radius than its stated range.  We keep the
    faithful assertion and let it fail rather than detune the estimator.
    """
    f = nearest_distance()
    t0 = time.monotonic()
    path = path_decomposition(range_r=TABLE1_RANGE)
    values = {_key(k): coeff_integral(k, f, path.r) for k in FREQS3}
    dt = time.monotonic() - t0
    worst = max(abs(values[key] - T1_INT[key]) for key in values)
    at_ref = max(
        abs(coeff_integral(k, f, REFERENCE_RADIUS) - T1_INT[_key(k)]) for k in FREQS3
    )
    ok = worst <= 5e-3 and dt < 5.0
    line = _report(
        2,
        "integral-coefficients",
        ok,
        f"worst {worst:.2e} vs 5e-3 at effective range {path.r:.4f}; "
        f"same column matches to {at_ref:.2e} at range {REFERENCE_RADIUS:.4f}; "
        f"{dt:.2f}s < 5s",
    )
    assert dt < 5.0, line
    assert worst <= 5e-3, line


def test_c03_sum_coefficients_and_self_consistency():
    """Data-point coefficients: within 5e-2 of the golden column at the
    table operating point; and at the table's nine frequencies the estimator
    converges to the closed forms within 5e-3 once the grid is refined to
    n=9 and the path covers forty wraps of the fast torus coordinate
    (64 segments, range 40*sqrt5)."""
    f = nearest_distance()
    path = path_decomposition(range_r=TABLE1_RANGE)
    data3 = data_points(3, path)
    worst_printed = max(
        abs(coeff_sum(k, f, data3) - T1_SUM[_key(k)]) for k in FREQS3
    )

    exact3 = {_key(k): coeff_exact(k, NEAR_LIFT) for k in FREQS3}

    def self_err(n, passes):
        data = data_points(n, path_decomposition(passes=passes))
        return max(
            abs(coeff_sum(k, f, data) - exact3[_key(k)]) for k in FREQS3
        )

    coarse = self_err(3, 64)         # unrefined grid for the trend line
    worst_literal = self_err(9, 40)  # forty segments: range ~55
    worst_sweeps = self_err(9, 64)   # forty wraps: range 40*sqrt5 ~ 89.44
    ok = worst_printed <= 5e-2 and worst_sweeps <= 5e-3
    line = _report(
        3,
        "sum-coefficients",
        ok,
        f"vs golden {worst_printed:.2e} <= 5e-2; self-consistency at n=9 "
        f"{worst_sweeps:.2e} <= 5e-3 at 64 segments (40 wraps); "
        f"{worst_literal:.2e} at a literal 40 segments; n=3 gives {coarse:.2e}",
    )
    assert worst_printed <= 5e-2, line
    assert worst_sweeps <= 5e-3, line
    assert worst_sweeps < coarse, line


def test_c04_value_table_function_column():
    """The piecewise-linear function itself at the 15 reference positions,
    tolerance 1e-4."""
    f = nearest_distance()
    worst = max(abs(f(x) - want) for x, want in zip(XS, T2_F))
    ok = worst <= 1e-4
    line = _report(4, "tent-function-values", ok, f"worst {worst:.2e} <= 1e-4")
    assert ok, line


def test_c05_step_function_column():
    """The +-1 step function at the 15 reference positions, exact match."""
    g = interval_sign()
    got = [int(g(x)) for x in XS]
    ok = got == T4_F
    line = _report(5, "step-function-values", ok, f"15/15 exact: {ok}")
    assert ok, line


def test_c06_value_table_exact_column():
    """The n=3 closed-form approximant at the 15 reference positions,
    tolerance 5e-3."""
    ap = build_approximant("exact", FREQS3, lift=NEAR_LIFT)
    worst = max(abs(ap.evaluate(x) - want) for x, want in zip(XS, T2_FEX))
    ok = worst <= 5e-3
    line = _report(6, "exact-approximant-values", ok, f"worst {worst:.2e} <= 5e-3")
    assert ok, line


def test_c07_substitution_equals_projection():
    """The substitution orbit and the window enumeration produce identical
    algebraic point lists on [0, 1e4], in under a second."""
    t0 = time.monotonic()
    sub = [p for p in substitution_points(7400) if p.value <= 1.0e4]
    acc = [p.algebraic for p in enumerate_model_set(Window.default(), 0.0, 1.0e4)]
    dt = time.monotonic() - t0
    same = sub == acc
    ok = same and len(sub) == 7237 and dt < 1.0
    line = _report(
        7,
        "substitution-vs-projection",
        ok,
        f"{len(sub)} points, identical={same}, {dt:.3f}s < 1s",
    )
    assert dt < 1.0, line
    assert same and len(sub) == 7237, line


def test_c08_quadrature_error_bounds():
    """Sampled oscillation bounds dominate the cell-average error for
    n in {3, 7, 11} on both lifts, and the combined bound covers the full
    data-point pipeline."""
    path = path_decomposition(passes=17)
    slack = math.inf
    for descriptor, lift, f in (
        (NEAREST, NEAR_LIFT, nearest_distance()),
        (INTERVAL, INT_LIFT, interval_sign()),
    ):
        exact = lift.cell_integral()
        for n in (3, 7, 11):
            est = error_estimate(lift, n, path)
            cell_err = abs(exact - cell_quadrature(lift, n))
            pipe_err = abs(exact - data_quadrature(f, data_points(n, path)))
            assert cell_err <= SQRT5 * est.eps_n, (descriptor, n, cell_err, est)
            assert pipe_err <= est.bound, (descriptor, n, pipe_err, est)
            slack = min(slack, SQRT5 * est.eps_n - cell_err, est.bound - pipe_err)
    line = _report(
        8,
        "quadrature-error-bounds",
        True,
        f"6 configurations x 2 bounds hold; minimal slack {slack:.4f}",
    )
    assert slack >= 0.0, line


def test_c09_property_suite():
    """Compact re-run of the six named invariant families; the per-module
    suites exercise them in depth."""
    t0 = time.monotonic()
    rng = random.Random(4711)

    # ring automorphism
    for _ in range(500):
        x = ZTau(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        y = ZTau(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    # duality integrality
    for _ in range(500):
        k = QTau(Fraction(rng.randint(-200, 200), 2), Fraction(rng.randint(-200, 200), 2))
        x = QTau(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
        assert Fraction(2 * (k * x).a).denominator == 1

    # Hermitian symmetry of all three estimators
    f = nearest_distance()
    path = path_decomposition(range_r=TABLE1_RANGE)
    data3 = data_points(3, path)
    for k in FREQS3:
        assert abs(coeff_exact(-k, NEAR_LIFT) - coeff_exact(k, NEAR_LIFT).conjugate()) < 1e-9
        assert abs(coeff_integral(-k, f, path.r) - coeff_integral(k, f, path.r).conjugate()) < 1e-9
        assert abs(coeff_sum(-k, f, data3) - coeff_sum(k, f, data3).conjugate()) < 1e-9

    # realness of negation-closed sums
    ap = build_approximant("exact", FREQS3, lift=NEAR_LIFT)
    for _ in range(300):
        assert abs(_evaluate_complex(ap, rng.uniform(-300.0, 300.0)).imag) < 1e-9

    # Birkhoff convergence of the line averages
    r_far = path_decomposition(range_r=500.0).r
    worst_far = 0.0
    for k in FREQS3:
        ref = coeff_exact(k, NEAR_LIFT)
        near_err = abs(coeff_integral(k, f, path.r) - ref)
        far_err = abs(coeff_integral(k, f, r_far) - ref)
        assert far_err < near_err
        worst_far = max(worst_far, far_err)
    assert worst_far < 0.01

    # strip-projection agreement
    for n, passes in ((3, 10), (7, 11), (9, 17)):
        p = path_decomposition(passes=passes)
        assert compare_data_points(data_points(n, p), strip_projection_oracle(n, p)) == []

    dt = time.monotonic() - t0
    line = _report(
        9,
        "property-suite",
        True,
        f"6 invariant families re-verified in {dt:.2f}s (suite budget 60s)",
    )
    assert dt < 60.0, line


def test_c10_uniform_approximation():
    """The aperiodic approximant keeps its accuracy far from the origin
    (factor <= 2); the periodic cosine fit degrades by at least a factor 3.

    The factor-3 leg uses the standard cosine weights (harmonics doubled).
    With the shipped halved-harmonic weighting the baseline is already poor
    near the origin, so its far/near ratio is meaninglessly small; that
    verbatim ratio is printed alongside.
    """
    f = nearest_distance()
    ap = build_approximant("exact", FREQS3, lift=NEAR_LIFT)
    e_near = sup_error(ap, f, 0.0, 15.0, 1000)
    e_far = sup_error(ap, f, 200.0, 215.0, 1000)

    cos_conv = cos_baseline(f, 50, conventional=True)
    c_near = sup_error(cos_conv, f, 0.0, 2.0, 1000)
    c_far = sup_error(cos_conv, f, 200.0, 215.0, 1000)

    cos_halved = cos_baseline(f, 50)
    h_ratio = sup_error(cos_halved, f, 200.0, 215.0, 1000) / sup_error(
        cos_halved, f, 0.0, 2.0, 1000
    )

    ok = e_far <= 2.0 * e_near and c_far >= 3.0 * c_near
    line = _report(
        10,
        "uniform-approximation",
        ok,
        f"aperiodic far/near {e_far / e_near:.3f} <= 2; cosine far/near "
        f"{c_far / c_near:.1f} >= 3 (halved-weight variant: {h_ratio:.2f})",
    )
    assert e_far <= 2.0 * e_near, line
    assert c_far >= 3.0 * c_near, line


def test_c11_singular_window_shadow():
    """On [-tau^2, 0] the data-point approximant built from the half-shifted
    window beats the one built from the window whose boundary points are in
    the point set, at n=9 with seventeen wraps of the fast torus coordinate
    (27 segments).  At a literal 17 segments both errors are dominated by the
    short path and the comparison is uninformative; both pairs are printed.
    """
    freqs9 = frequency_representatives(9)
    lo, hi = -TAU * TAU, 0.0

    def pair(passes):
        data9 = data_points(9, path_decomposition(passes=passes))
        out = {}
        for name, window in (
            ("default", Window.default()),
            ("shifted", Window.default().shifted(QTau(Fraction(1, 2)))),
        ):
            fw = nearest_distance(window)
            ap = build_approximant("sum", freqs9, f=fw, data=data9)
            out[name] = sup_error(ap, fw, lo, hi, samples=800)
        return out

    anchored = pair(27)
    literal = pair(17)
    ok = anchored["shifted"] < anchored["default"]
    line = _report(
        11,
        "singular-window-shadow",
        ok,
        f"27 segments: shifted {anchored['shifted']:.4f} < default "
        f"{anchored['default']:.4f}; 17 segments (printed only): shifted "
        f"{literal['shifted']:.4f}, default {literal['default']:.4f}",
    )
    assert ok, line


def test_c12_step_coefficients_vs_riemann_oracle():
    """Closed-form coefficients of the step-function lift against a dense
    Riemann evaluation of the line average over [0, 1e4], tolerance 5e-3."""
    vals = np.array([p.value for p in substitution_points(7400)])
    keep = vals <= 1.0e4 + 1e-9
    vals = vals[keep]
    r_eff = float(vals[-1])
    word = substitution_word(len(vals))
    signs = np.array([1.0 if c == "a" else -1.0 for c in word[: len(vals) - 1]])
    worst = 0.0
    for k in FREQS3:
        w = 4.0 * math.pi * DELTA * k.value
        if abs(w) < 1e-12:
            oracle = complex(np.sum(signs * np.diff(vals))) / r_eff
        else:
            ph = np.exp(-1j * w * vals)
            oracle = complex(np.sum(signs * (ph[1:] - ph[:-1]) / (-1j * w))) / r_eff
        worst = max(worst, abs(coeff_exact(k, INT_LIFT) - oracle))
    ok = worst <= 5e-3
    line = _report(
        12,
        "step-coefficients-vs-oracle",
        ok,
        f"worst {worst:.2e} <= 5e-3 at range {r_eff:.1f}",
    )
    assert ok, line
