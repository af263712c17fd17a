import numpy as np
import pytest

from blindcal.errors import DimensionError
from blindcal.geometry import draw_gain_perturbation
from blindcal.model import GroundTruth, SensingEnsemble, generate_ensemble, sense
from blindcal.objective import (expected_gradients, expected_hessian,
                                expected_objective, gradients, hessian,
                                objective_value)
from blindcal.seeding import derive_seed


def make_instance(n=3, m=4, p=2, rho=0.3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    d = draw_gain_perturbation(m, rho, seed + 1)
    truth = GroundTruth(x=x, d=d, rho=rho)
    ensemble = generate_ensemble(n, m, p, "gaussian", seed + 2)
    return truth, ensemble, sense(ensemble, x, d)


def random_point(truth, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    xi = truth.x + spread * rng.standard_normal(truth.n)
    gamma = truth.d + spread * rng.uniform(-0.3, 0.3, truth.m)
    return xi, gamma


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def fd_gradient(ensemble, y, xi, gamma, h=1e-6):
    """Central finite differences of the objective in both blocks."""
    gx = np.zeros_like(xi)
    for i in range(xi.size):
        up, dn = xi.copy(), xi.copy()
        up[i] += h
        dn[i] -= h
        gx[i] = (objective_value(ensemble, y, (up, gamma))
                 - objective_value(ensemble, y, (dn, gamma))) / (2 * h)
    gg = np.zeros_like(gamma)
    for i in range(gamma.size):
        up, dn = gamma.copy(), gamma.copy()
        up[i] += h
        dn[i] -= h
        gg[i] = (objective_value(ensemble, y, (xi, up))
                 - objective_value(ensemble, y, (xi, dn))) / (2 * h)
    return gx, gg


def fd_hessian_vector(ensemble, y, xi, gamma, v, h=1e-5):
    """Directional second-order difference of the stacked gradient."""
    n = xi.size
    up = gradients(ensemble, y, (xi + h * v[:n], gamma + h * v[n:]))
    dn = gradients(ensemble, y, (xi - h * v[:n], gamma - h * v[n:]))
    return np.concatenate([(up.grad_xi - dn.grad_xi) / (2 * h),
                           (up.grad_gamma - dn.grad_gamma) / (2 * h)])


# ---------------------------------------------------------------------------
# objective value
# ---------------------------------------------------------------------------

def test_zero_at_ground_truth():
    truth, ensemble, y = make_instance()
    assert objective_value(ensemble, y, (truth.x, truth.d)) <= 1e-20
    assert objective_value(ensemble, y, (truth.x_star, truth.d_star)) <= 1e-20


def test_hand_computed_value():
    matrices = SensingEnsemble.from_matrices(np.eye(2)[None, :, :])  # p=1, identity sensing
    x = np.array([1.0, 1.0])
    d = np.array([1.0, 1.0])
    y = sense(matrices, x, d)
    # residual (2,1) - (1,1) = (1,0); f = 1 / (2*2*1)
    assert objective_value(matrices, y, (np.array([2.0, 1.0]), d)) == pytest.approx(0.25)


def test_nonnegative_and_dimension_errors():
    truth, ensemble, y = make_instance()
    xi, gamma = random_point(truth, 5)
    assert objective_value(ensemble, y, (xi, gamma)) >= 0.0
    with pytest.raises(DimensionError):
        objective_value(ensemble, y, (xi[:-1], gamma))
    with pytest.raises(DimensionError):
        objective_value(ensemble, y[:, :-1], (xi, gamma))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_vanish_at_truth():
    truth, ensemble, y = make_instance()
    g = gradients(ensemble, y, (truth.x_star, truth.d_star))
    assert np.linalg.norm(g.grad_xi) <= 1e-12
    assert np.linalg.norm(g.grad_gamma) <= 1e-12
    assert np.linalg.norm(g.grad_gamma_projected) <= 1e-12


def test_gradients_match_finite_differences():
    truth, ensemble, y = make_instance(n=3, m=4, p=2, seed=11)
    xi, gamma = random_point(truth, 12)
    g = gradients(ensemble, y, (xi, gamma))
    fx, fg = fd_gradient(ensemble, y, xi, gamma)
    assert np.linalg.norm(g.grad_xi - fx) <= 1e-5 * np.linalg.norm(fx)
    assert np.linalg.norm(g.grad_gamma - fg) <= 1e-5 * np.linalg.norm(fg)


def test_projected_gradient_sums_to_zero():
    for seed in range(5):
        truth, ensemble, y = make_instance(n=4, m=6, p=3, seed=seed)
        xi, gamma = random_point(truth, seed + 50)
        g = gradients(ensemble, y, (xi, gamma))
        assert abs(g.grad_gamma_projected.sum()) <= 1e-10 * truth.m


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def test_hessian_symmetric():
    truth, ensemble, y = make_instance(n=4, m=5, p=3, seed=21)
    xi, gamma = random_point(truth, 22)
    H = hessian(ensemble, y, (xi, gamma))
    assert np.abs(H - H.T).max() <= 1e-12


def test_hessian_matches_directional_differences():
    truth, ensemble, y = make_instance(n=4, m=5, p=3, seed=31)
    xi, gamma = random_point(truth, 32)
    H = hessian(ensemble, y, (xi, gamma))
    rng = np.random.default_rng(33)
    for _ in range(4):
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        hv = H @ v
        fd = fd_hessian_vector(ensemble, y, xi, gamma, v)
        assert np.linalg.norm(hv - fd) <= 1e-4 * np.linalg.norm(fd)


def test_objective_is_non_convex():
    # the sign-flipped signal paired with the true gains sees negative curvature
    truth, ensemble, y = make_instance(n=6, m=8, p=6, seed=41)
    H = hessian(ensemble, y, (-truth.x_star, truth.d_star))
    assert np.linalg.eigvalsh(H).min() < 0.0


def test_hessian_size_gate():
    truth, ensemble, y = make_instance()
    import blindcal.objective as obj
    old = obj.HESSIAN_SIZE_LIMIT
    obj.HESSIAN_SIZE_LIMIT = 5
    try:
        with pytest.raises(DimensionError):
            hessian(ensemble, y, (truth.x, truth.d))
    finally:
        obj.HESSIAN_SIZE_LIMIT = old


# ---------------------------------------------------------------------------
# expectation forms
# ---------------------------------------------------------------------------

def test_expected_objective_zero_on_orbit():
    truth, _, _ = make_instance()
    assert expected_objective((truth.x_star, truth.d_star), truth) == 0.0
    for alpha in (0.5, -1.5):
        val = expected_objective((alpha * truth.x_star, truth.d_star / alpha), truth)
        assert val <= 1e-12


def test_monte_carlo_objective_matches_expectation():
    truth, _, _ = make_instance(n=8, m=16, p=8, seed=51)
    xi, gamma = random_point(truth, 52, spread=0.5)
    values = []
    for t in range(200):
        e = generate_ensemble(8, 16, 8, "gaussian", derive_seed(51, [("mc", t)]))
        y = sense(e, truth.x, truth.d)
        values.append(objective_value(e, y, (xi, gamma)))
    expected = expected_objective((xi, gamma), truth)
    assert np.mean(values) == pytest.approx(expected, rel=0.05)


def test_monte_carlo_gradients_match_expectation():
    truth, _, _ = make_instance(n=6, m=8, p=4, seed=61)
    xi, gamma = random_point(truth, 62, spread=0.5)
    sums = None
    trials = 300
    for t in range(trials):
        e = generate_ensemble(6, 8, 4, "gaussian", derive_seed(61, [("mc", t)]))
        y = sense(e, truth.x, truth.d)
        g = gradients(e, y, (xi, gamma))
        stacked = np.concatenate([g.grad_xi, g.grad_gamma])
        sums = stacked if sums is None else sums + stacked
    mean = sums / trials
    eg = expected_gradients((xi, gamma), truth)
    expected = np.concatenate([eg.grad_xi, eg.grad_gamma])
    assert np.linalg.norm(mean - expected) <= 0.05 * np.linalg.norm(expected)


def test_monte_carlo_error_slope():
    # the error of the running mean of f decays like trials^(-1/2)
    truth, _, _ = make_instance(n=8, m=8, p=4, seed=71)
    xi, gamma = random_point(truth, 72, spread=0.5)
    expected = expected_objective((xi, gamma), truth)
    counts = [10, 100, 1000]
    repeats = 20
    sq_errors = np.zeros(len(counts))
    for r in range(repeats):
        values = []
        for t in range(max(counts)):
            e = generate_ensemble(8, 8, 4, "gaussian",
                                  derive_seed(71, [("rep", r), ("mc", t)]))
            y = sense(e, truth.x, truth.d)
            values.append(objective_value(e, y, (xi, gamma)))
        values = np.asarray(values)
        for i, c in enumerate(counts):
            sq_errors[i] += (values[:c].mean() - expected) ** 2
    rms = np.sqrt(sq_errors / repeats)
    slope = np.polyfit(np.log(counts), np.log(rms), 1)[0]
    assert -0.5 - 0.15 <= slope <= -0.5 + 0.15


def test_lazy_ensemble_matches_cached(monkeypatch):
    truth, cached, y = make_instance(n=5, m=4, p=3, seed=91)
    xi, gamma = random_point(truth, 92)
    f_c = objective_value(cached, y, (xi, gamma))
    g_c = gradients(cached, y, (xi, gamma))
    h_c = hessian(cached, y, (xi, gamma))
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    lazy = generate_ensemble(5, 4, 3, "gaussian", 91 + 2)
    assert lazy.stacked() is None
    assert objective_value(lazy, y, (xi, gamma)) == pytest.approx(f_c, rel=1e-13)
    g_l = gradients(lazy, y, (xi, gamma))
    np.testing.assert_allclose(g_l.grad_xi, g_c.grad_xi, rtol=1e-12)
    np.testing.assert_allclose(g_l.grad_gamma, g_c.grad_gamma, rtol=1e-12)
    np.testing.assert_allclose(hessian(lazy, y, (xi, gamma)), h_c, rtol=1e-12)


def test_lazy_diagnostics_read_snapshots_without_an_operator_pass(monkeypatch):
    # hessian and check_concentration read one snapshot at a time through
    # matrix(l): no blocks() call, so no operator pass, and the bits they give
    # under the default cache limit
    from blindcal.experiments import check_concentration
    truth, cached, y = make_instance(n=5, m=4, p=3, seed=91)
    point = random_point(truth, 92)
    assert cached.stacked() is not None
    h_cached = hessian(cached, y, point)
    conc_cached = check_concentration(6, 4, 5, "gaussian", "ones", trials=2, seed=3)
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    calls = {"blocks": 0, "matrix": 0}

    def counting(name):
        method = getattr(SensingEnsemble, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(SensingEnsemble, name, counting(name))
    lazy = generate_ensemble(5, 4, 3, "gaussian", 91 + 2)
    assert lazy.stacked() is None
    np.testing.assert_array_equal(hessian(lazy, y, point), h_cached)
    assert calls == {"blocks": 0, "matrix": 3}
    assert check_concentration(6, 4, 5, "gaussian", "ones", trials=2, seed=3) == conc_cached
    assert calls == {"blocks": 0, "matrix": 3 + 2 * 5}


def test_expected_hessian_positive_definite_near_truth():
    truth, ensemble, y = make_instance(n=5, m=6, p=4, seed=81)
    H = expected_hessian((truth.x_star, truth.d_star), truth)
    assert np.abs(H - H.T).max() <= 1e-14
    # the orbit direction (x*, -d*) is the only flat direction at the optimum
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= -1e-12
