import itertools
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis.extra.numpy import arrays

from blindcal import geometry
from blindcal.errors import DimensionError, ParameterError
from blindcal.geometry import (_breakpoint_projection, _sorted, delta, delta_F,
                               draw_gain_perturbation, in_neighbourhood, project_C_rho,
                               project_zero_sum)
from blindcal.model import GroundTruth
from blindcal.objective import expected_objective

finite_vectors = arrays(np.float64, st.integers(min_value=1, max_value=12),
                        elements=st.floats(min_value=-100, max_value=100))


# ---------------------------------------------------------------------------
# zero-sum projector
# ---------------------------------------------------------------------------

def test_zero_sum_kernel():
    np.testing.assert_allclose(project_zero_sum(np.ones(5)), np.zeros(5), atol=1e-15)


def test_zero_sum_hand_example():
    np.testing.assert_allclose(project_zero_sum(np.array([3.0, 1.0])), [1.0, -1.0])


@given(finite_vectors)
def test_zero_sum_idempotent(v):
    once = project_zero_sum(v)
    np.testing.assert_allclose(project_zero_sum(once), once, atol=1e-12)
    assert abs(once.sum()) <= 1e-12 * v.size * max(1.0, np.abs(v).max())


@given(st.integers(min_value=0, max_value=10_000))
def test_zero_sum_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    v, w = rng.standard_normal(7), rng.standard_normal(7)
    assert project_zero_sum(v) @ w == pytest.approx(v @ project_zero_sum(w), abs=1e-12)


# ---------------------------------------------------------------------------
# projection onto C_rho, checked against the exhaustive active-set oracle
# ---------------------------------------------------------------------------

def project_C_rho_oracle(gamma, rho):
    """Enumerate all 3^m clipping patterns and pick the KKT-consistent one.

    Coordinates are fixed at -rho, left interior, or fixed at +rho; for each
    pattern the interior block solves an equality-constrained least squares
    with a shared multiplier. Feasible, KKT-consistent candidates are ranked
    by objective value.
    """
    z = np.asarray(gamma, dtype=float) - 1.0
    m = z.size
    slack = 1e-10
    best, best_val = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=m):
        sigma = np.array(pattern)
        free = sigma == 0
        e = rho * sigma.astype(float)
        fixed_sum = e[~free].sum()
        if free.any():
            lam = (z[free].sum() + fixed_sum) / free.sum()
            e[free] = z[free] - lam
            if np.any(np.abs(e[free]) > rho + slack):
                continue
        else:
            if abs(fixed_sum) > slack:
                continue
            hi = np.min(z[sigma == 1] - rho) if (sigma == 1).any() else np.inf
            lo = np.max(z[sigma == -1] + rho) if (sigma == -1).any() else -np.inf
            if lo > hi + slack:
                continue
            lam = min(hi, max(lo, 0.0))
        if np.any(sigma == 1) and np.any(z[sigma == 1] - lam < rho - slack):
            continue
        if np.any(sigma == -1) and np.any(z[sigma == -1] - lam > -rho + slack):
            continue
        val = float(np.sum((e - z) ** 2))
        if val < best_val:
            best, best_val = 1.0 + e, val
    return best


def test_projection_fixed_point_inside():
    gamma = np.array([1.1, 0.9, 1.0, 1.0])
    np.testing.assert_allclose(project_C_rho(gamma, 0.3), gamma, atol=1e-12)


def test_projection_of_ones():
    for rho in (0.0, 0.2, 0.9):
        np.testing.assert_allclose(project_C_rho(np.ones(6), rho), np.ones(6), atol=1e-12)


def test_projection_against_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        gamma = 1.0 + rng.uniform(-1.5, 1.5, m)
        out = project_C_rho(gamma, 0.3)
        oracle = project_C_rho_oracle(gamma, 0.3)
        np.testing.assert_allclose(out, oracle, atol=1e-8)
        assert abs(out.sum() - m) <= 1e-9 * m
        assert np.max(np.abs(out - 1.0)) <= 0.3 + 1e-9


def test_projection_rejects_bad_rho():
    with pytest.raises(ParameterError):
        project_C_rho(np.ones(3), 1.0)
    with pytest.raises(ParameterError):
        project_C_rho(np.ones(3), -0.1)


@pytest.mark.parametrize("gamma", [np.empty(0), np.ones((2, 3)), np.float64(1.0)],
                         ids=["empty", "2d", "scalar"])
@pytest.mark.parametrize("project", [lambda g: project_C_rho(g, 0.0),
                                     lambda g: project_C_rho(g, 0.3), project_zero_sum],
                         ids=["C_rho-0", "C_rho-0.3", "zero_sum"])
def test_projections_take_a_non_empty_vector(project, gamma):
    with pytest.raises(DimensionError, match="non-empty vector"):
        project(gamma)


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=60)
def test_projection_non_expansive(seed, rho):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    a = 1.0 + rng.uniform(-2, 2, m)
    b = 1.0 + rng.uniform(-2, 2, m)
    pa, pb = project_C_rho(a, rho), project_C_rho(b, rho)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


unit_entries = st.floats(min_value=-1.0, max_value=1.0)


@given(arrays(np.float64, st.integers(min_value=1, max_value=12), elements=unit_entries),
       st.floats(min_value=1e-3, max_value=0.99), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=200)
def test_projection_fast_path_matches_breakpoint_scan(u, rho, shift, spread):
    # spread <= 0.5 keeps every |z_i - mean(z)| <= rho: the in-box fast path;
    # larger spreads clip some coordinates and take the breakpoint scan
    z = shift + spread * rho * u
    out = project_C_rho(1.0 + z, rho)
    np.testing.assert_allclose(out, 1.0 + _breakpoint_projection(z, rho, _sorted(z)),
                               rtol=0, atol=1e-12)
    assert abs(out.sum() - u.size) <= 1e-12 * u.size
    assert np.max(np.abs(out - 1.0)) <= rho + 1e-12


def reference_breakpoint_projection(z, rho):
    """The breakpoint scan the one-sort slope scan replaced: a sort of z with
    prefix sums, s(lam) from two searchsorted passes at every sorted
    breakpoint, and a bisection on that s when the residual is too large."""
    m = z.size
    zs = np.sort(z)
    prefix = np.concatenate(([0.0], np.cumsum(zs)))

    def sum_e(lam):
        lam = np.atleast_1d(lam)
        lo = np.searchsorted(zs, lam - rho, side="left")
        hi = np.searchsorted(zs, lam + rho, side="right")
        cnt_mid = hi - lo
        sum_mid = prefix[hi] - prefix[lo]
        # entries above lam + rho clip to +rho, below lam - rho clip to -rho
        return rho * (m - hi) - rho * lo + sum_mid - lam * cnt_mid

    def sum_e_scalar(lam):
        return float(sum_e(np.array([lam]))[0])

    breakpoints = np.sort(np.concatenate((z - rho, z + rho)))
    values = sum_e(breakpoints)
    j = int(np.searchsorted(-values, 0.0, side="left"))  # first index with value <= 0
    if j >= breakpoints.size:
        lam = breakpoints[-1]
    elif values[j] == 0.0 or j == 0:
        lam = breakpoints[j]
    else:
        # interpolate inside the bracketing segment; sum_e is linear there
        left, right = breakpoints[j - 1], breakpoints[j]
        v_left = float(values[j - 1])
        v_right = float(values[j])
        if v_left == v_right:
            lam = left
        else:
            # the fraction lies in [0, 1] by the bracketing, so this cannot
            # overflow even for extreme inputs
            lam = left + (right - left) * (v_left / (v_left - v_right))

    e = np.clip(z - lam, -rho, rho)
    residual = float(np.sum(e))
    if abs(residual) > 1e-12 * m:
        lo_b, hi_b = float(breakpoints[0]) - 1.0, float(breakpoints[-1]) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            if sum_e_scalar(mid) > 0.0:
                lo_b = mid
            else:
                hi_b = mid
            if hi_b - lo_b < 1e-16 * max(1.0, abs(lam)):
                break
        lam = 0.5 * (lo_b + hi_b)
        e = np.clip(z - lam, -rho, rho)
    return e


def scan_with_clip_count(z, rho):
    """_breakpoint_projection of z and how often it evaluated the clip:
    once without the bisection fallback, more often with it."""
    calls = []
    clip = geometry._clip
    with mock.patch.object(geometry, "_clip", lambda *args: calls.append(1) or clip(*args)):
        e = _breakpoint_projection(z, rho, _sorted(z))
    return e, len(calls)


@given(arrays(np.float64, st.integers(min_value=1, max_value=64), elements=unit_entries),
       st.floats(min_value=1e-3, max_value=0.99), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.5, max_value=100.0))
def test_slope_scan_matches_reference_scan(u, rho, shift, spread):
    # spreads from 0.5 rho clip a few coordinates; at 100 rho most or all clip
    z = shift + spread * rho * u
    e, clips = scan_with_clip_count(z, rho)
    assert clips == 1
    np.testing.assert_allclose(e, reference_breakpoint_projection(z, rho), rtol=0, atol=1e-12)


def reference_slope_scan(z, rho):
    """The one-sort slope scan the merged scalar scan replaced: an argsort of
    the 2m breakpoints tagged by side, the slopes and s at every breakpoint
    by cumsum, and the same residual check and bisection fallback."""
    m = z.size
    points = np.concatenate((z - rho, z + rho))
    order = points.argsort()
    points = points[order]
    slope = np.where(order < m, -1.0, 1.0).cumsum()  # right of each breakpoint
    steps = np.empty(2 * m)
    steps[0] = rho * m
    np.subtract(points[1:], points[:-1], out=steps[1:])
    steps[1:] *= slope[:-1]
    sums = steps.cumsum()  # s at the breakpoints: non-increasing, sums[0] > 0
    j = np.count_nonzero(sums > 0.0)  # first breakpoint with s <= 0
    lam = points[-1] if j == 2 * m else points[j - 1] - sums[j - 1] / slope[j - 1]
    e = np.minimum(np.maximum(z - lam, -rho), rho)
    if abs(e.sum()) > 1e-12 * m:
        lo, hi = points[0] - 1.0, points[-1] + 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if np.minimum(np.maximum(z - mid, -rho), rho).sum() > 0.0:
                lo = mid
            else:
                hi = mid
        e = np.minimum(np.maximum(z - hi, -rho), rho)
    return e


@st.composite
def clipped_inputs(draw):
    """(z, rho) with 1 to 256 entries spread 0.5 to 100 rho, some entries
    repeated and some placed 2 rho from another, so that a lower breakpoint
    z_i - rho and an upper one z_j + rho tie, often only after rounding."""
    u = draw(arrays(np.float64, st.integers(min_value=1, max_value=232), elements=unit_entries))
    rho = draw(st.floats(min_value=1e-3, max_value=0.99))
    z = draw(st.floats(min_value=-5.0, max_value=5.0)) + draw(
        st.floats(min_value=0.5, max_value=100.0)) * rho * u
    picks = st.lists(st.integers(min_value=0, max_value=z.size - 1), max_size=8)
    repeats, below, above = draw(picks), draw(picks), draw(picks)
    z = np.concatenate((z, z[repeats], z[below] - rho - rho, z[above] + rho + rho))
    return draw(st.permutations(z.tolist())), rho


@given(clipped_inputs())
def test_merged_scan_gives_the_argsort_scan_bits(inputs):
    z, rho = np.array(inputs[0]), inputs[1]
    e, ref = _breakpoint_projection(z, rho, _sorted(z)), reference_slope_scan(z, rho)
    np.testing.assert_array_equal(e, ref)
    np.testing.assert_array_equal(np.signbit(e), np.signbit(ref))


def reference_project_C_rho(gamma, rho):
    """The projection as it was before its in-box decision read the extremes:
    it builds z - mean, takes abs and reduces with maximum; a clipped input
    takes the argsort scan, whose bits the merged scan keeps."""
    gamma = np.asarray(gamma, dtype=float)
    if rho == 0.0:
        return np.ones(gamma.size)
    z = gamma - 1.0
    e = z - np.add.reduce(z) / z.size
    if np.maximum.reduce(abs(e)) <= rho:
        return 1.0 + e
    return 1.0 + reference_slope_scan(z, rho)


@st.composite
def projection_inputs(draw):
    """(gamma, rho) with 2 to 300 entries and rho from 1e-3 to 0.99, with
    repeated entries. Half the draws lie on a grid of 2^-10 where the mean is
    exact: pairs +-q around a centre, some at +-rho, so z_i - mean = +-rho
    exactly, and at times one entry a grid step outside; gains of +-0.0 come
    from the centre that puts them there.
    The other half draws seeded uniform entries, whose sums round, spread
    0.1 to 0.5 rho (in the box) or 0.5 to 100 rho, with entries moved to the
    computed mean +- rho; an in-box draw then takes as rho its largest
    |z_i - mean|, so that one extreme sits exactly at the edge, clamped to
    [1e-3, 0.99]: where the moved entries are most of a few, the mean does
    not settle and that largest |z_i - mean| can exceed the draw's rho."""
    m = draw(st.integers(min_value=2, max_value=300))
    in_box = False
    if draw(st.booleans()):
        r = draw(st.integers(min_value=2, max_value=1013))
        rho = r / 1024
        q = draw(st.lists(st.integers(min_value=-r, max_value=r),
                          min_size=m // 2, max_size=m // 2))
        edges = draw(st.integers(min_value=0, max_value=m // 2))
        q = [r] * edges + q[edges:]
        q = np.array(q + [-v for v in q] + [0] * (m % 2), dtype=float)
        q[0] += draw(st.sampled_from([0, 0, 1, -1]))
        centre = draw(st.one_of(st.just(-1024), st.integers(min_value=-1000, max_value=1000)))
        gamma = 1.0 + (centre + q) / 1024  # at centre -1024, q = 0 gives gamma = 0
        if draw(st.booleans()):
            gamma[gamma == 0.0] = -0.0
    else:
        rho = draw(st.floats(min_value=1e-3, max_value=0.99))
        u = np.random.default_rng(draw(st.integers(min_value=0))).uniform(-1.0, 1.0, m)
        spread = draw(st.one_of(st.floats(min_value=0.1, max_value=0.5),
                                st.floats(min_value=0.5, max_value=100.0)))
        in_box = spread <= 0.5
        z = draw(st.floats(min_value=-5.0, max_value=5.0)) + spread * rho * u
        picks = st.lists(st.integers(min_value=0, max_value=m - 1), max_size=8)
        z[draw(picks)] = z[draw(st.integers(min_value=0, max_value=m - 1))]
        above, below = draw(picks), draw(picks)
        for _ in range(3):  # the mean moves as entries move; it settles in a few rounds
            mean = np.add.reduce(z) / m
            z[above], z[below] = mean + rho, mean - rho
        gamma = 1.0 + z
    gamma = np.array(draw(st.permutations(gamma.tolist())))
    if in_box:
        z = gamma - 1.0
        mean = np.add.reduce(z) / m
        rho = float(max(np.maximum.reduce(z) - mean, mean - np.minimum.reduce(z)))
        rho = min(max(rho, 1e-3), 0.99)
    return gamma, rho


@given(projection_inputs())
def test_projection_keeps_the_bits_of_the_abs_in_box_test(inputs):
    gamma, rho = inputs
    out, ref = project_C_rho(gamma, rho), reference_project_C_rho(gamma, rho)
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("gamma, expected", [
    ([1.2, np.inf, 0.9, 1.0], [1.0666666666666667, 1.3, 0.7666666666666666, 0.8666666666666667]),
    ([1.2, -np.inf, 0.9, 1.0], [0.7, 0.7, 0.7, 0.7]),
    ([1.2, np.nan, 0.9, 1.0], [1.0666666666666667, np.nan, 0.7666666666666666,
                               0.8666666666666667]),
    ([1.2, np.inf, np.inf], [0.7, np.nan, np.nan]),
    ([1.2, -np.inf, -np.inf], [0.7, 0.7, 0.7]),
    ([1.2, np.nan, np.nan], [np.nan, np.nan, np.nan]),
])
def test_non_finite_entries_give_the_pinned_output(gamma, expected):
    # a nan or infinite entry fails the in-box test; with two +inf entries
    # against one finite, s stays positive and the scan walks past their
    # infinite breakpoints. The values are those of the abs in-box test with
    # the merged scan (the argsort scan differs on these inputs)
    with np.errstate(invalid="ignore"):
        out = project_C_rho(np.array(gamma), 0.3)
    np.testing.assert_array_equal(out, expected)


@given(arrays(np.float64, st.integers(min_value=2, max_value=20), elements=unit_entries),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=50, max_value=150), st.floats(min_value=1e-3, max_value=0.99))
def test_extreme_magnitudes_take_the_bisection_fallback(u, below, above, decades, rho):
    # a few entries of magnitude up to 1e150 among O(1) ones: the slope scan
    # cannot resolve the 2 rho drop at a huge negative entry, so its residual
    # fails and the bisection on the directly evaluated clipped sum takes over
    assume(abs(above - below) < u.size)
    big = 10.0 ** decades
    z = np.concatenate((u, np.full(below, -big), np.full(above, big)))
    e, clips = scan_with_clip_count(z, rho)
    assert clips > 1
    out = 1.0 + e
    m = z.size
    assert abs(out.sum() - m) <= 1e-12 * m
    assert np.max(np.abs(out - 1.0)) <= rho + 1e-12 * m


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _truth(n=5, m=4, rho=0.3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    d = draw_gain_perturbation(m, rho, seed + 1)
    return GroundTruth(x=x, d=d, rho=rho)


def test_delta_zero_at_truth():
    t = _truth()
    assert delta((t.x_star, t.d_star), t) == 0.0


def test_delta_unit_signal_offset():
    t = _truth()
    xi = t.x_star.copy()
    xi[0] += 1.0
    assert delta((xi, t.d_star), t) == pytest.approx(1.0, rel=1e-12)


def test_delta_gain_offset():
    t = _truth()
    for eps in (0.05, 0.3):
        gamma = t.d_star.copy()
        gamma[0] += eps
        gamma[1] -= eps
        expected = 2 * eps**2 * float(t.x_star @ t.x_star) / t.m
        assert delta((t.x_star, gamma), t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 300])
def test_stacked_distances_equal_the_per_point_calls(k):
    rng = np.random.default_rng(k)
    for scale in 10.0 ** np.arange(-6, 7, 2):
        t = _truth(n=40, m=8, seed=k)
        t = GroundTruth(x=scale * t.x, d=t.d, rho=t.rho)
        xi = t.x_star + scale * 10.0 ** rng.uniform(-8, 0, (k, 1)) * rng.standard_normal((k, 40))
        gamma = t.d_star + 10.0 ** rng.uniform(-8, -1, (k, 1)) * rng.standard_normal((k, 8))
        xi[0], gamma[0] = 1.7 * t.x_star, t.d_star / 1.7  # scaling orbit: delta_F clamps
        for distance in (delta, delta_F):
            rows = [distance((a, b), t) for a, b in zip(xi, gamma)]
            assert all(type(r) is float for r in rows)
            stacked = distance((xi, gamma), t)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (k,)
            np.testing.assert_array_equal(stacked, rows)
            assert list(np.signbit(stacked)) == list(np.signbit(rows))


def test_delta_F_vanishes_on_scaling_orbit():
    t = _truth()
    for alpha in (0.5, 1.0, -2.0):
        val = delta_F((alpha * t.x_star, t.d_star / alpha), t)
        assert val <= 1e-12 * max(1.0, float(t.x_star @ t.x_star)) ** 2


def test_delta_F_is_twice_expected_objective():
    rng = np.random.default_rng(3)
    t = _truth()
    point = (rng.standard_normal(5), 1.0 + rng.uniform(-0.5, 0.5, 4))
    assert delta_F(point, t) == pytest.approx(2 * expected_objective(point, t), rel=1e-12)


def test_sandwich_inequality():
    rng = np.random.default_rng(7)
    for rho in (0.1, 0.5, 0.9):
        t = _truth(rho=rho, seed=int(rho * 100))
        for _ in range(200):
            xi = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
            gamma = project_C_rho(1.0 + rng.uniform(-2, 2, 4), rho)
            dl = delta((xi, gamma), t)
            dF = delta_F((xi, gamma), t)
            assert (1 - rho) * dl <= dF + 1e-9
            assert dF <= (1 + 2 * rho) * dl + 1e-9


# ---------------------------------------------------------------------------
# gain perturbation sampler
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=40),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80)
def test_gain_perturbation_constraints(m, rho, seed):
    d = draw_gain_perturbation(m, rho, seed)
    assert abs(d.sum() - m) <= 1e-10 * m
    assert np.max(np.abs(d - 1.0)) == pytest.approx(rho, abs=1e-10)
    assert np.all(d > 0.0)


def test_gain_perturbation_m2():
    for seed in range(10):
        d = draw_gain_perturbation(2, 0.5, seed)
        assert np.allclose(d, [1.5, 0.5]) or np.allclose(d, [0.5, 1.5])


def test_gain_perturbation_rejects_small_m():
    with pytest.raises(ParameterError):
        draw_gain_perturbation(1, 0.5, 0)
    with pytest.raises(ParameterError):
        draw_gain_perturbation(4, 0.0, 0)


# ---------------------------------------------------------------------------
# neighbourhood membership
# ---------------------------------------------------------------------------

def test_truth_in_any_neighbourhood():
    t = _truth()
    assert in_neighbourhood((t.x_star, t.d_star), 0.0, t)


def test_gain_outside_box_excluded():
    t = _truth(rho=0.3)
    gamma = np.ones(t.m)
    gamma[0] += 0.4  # deviation rho + 0.1, zero-sum shape keeps sum(gamma) = m
    gamma[1] -= 0.4
    assert not in_neighbourhood((np.zeros(t.n), gamma), 10.0, t)


def test_gain_off_the_simplex_excluded():
    t = _truth(rho=0.3)
    gamma = np.full(t.m, 1.01)  # inside the box, but sum(gamma) = 1.01 m
    assert not in_neighbourhood((t.x_star, gamma), 10.0, t)


def test_boundary_point_included():
    t = _truth()
    norm = float(np.linalg.norm(t.x_star))
    kappa = 0.25
    # construct a point with delta exactly kappa^2 ||x*||^2
    offset = np.zeros(t.n)
    offset[0] = kappa * norm
    point = (t.x_star + offset, t.d_star)
    assert in_neighbourhood(point, kappa, t)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_membership_does_not_depend_on_the_signal_units(scale):
    truth = _truth()
    t = GroundTruth(x=scale * truth.x, d=truth.d, rho=truth.rho)
    assert in_neighbourhood((t.x_star, t.d_star), 0.0, t)
    assert not in_neighbourhood((np.zeros(t.n), t.d_star), 0.1, t)  # delta = ||x*||^2
