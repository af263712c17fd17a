import copy
import time
import tracemalloc
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from hypothesis.extra.numpy import arrays

from blindcal import solver
from blindcal.errors import DimensionError, DivergenceError, ParameterError, TheoryRangeWarning
from blindcal.experiments import draw_instance, recovery_error, to_db
from blindcal.geometry import (delta, delta_F, draw_gain_perturbation, in_neighbourhood,
                               project_C_rho)
from blindcal.model import GroundTruth, SensingEnsemble, generate_ensemble, sense
from blindcal.objective import gradients, objective_value
from blindcal.solver import (CONVERGED, FIXED, LINE_SEARCH, MAX_ITERATIONS,
                             STAGNATION_RTOL, STAGNATION_WINDOW, UNDERDETERMINED, SolverConfig,
                             SolverState, contraction_diagnostics, default_kappa,
                             exact_line_search, initialise, iterate, solve)


# line search with Polak-Ribiere+ signal directions, parametrized as a third "mode"
CONJUGATE = "line_search-conjugate"


def mode_config(mode, **kwargs):
    return SolverConfig(step_mode=FIXED if mode == FIXED else LINE_SEARCH,
                        conjugate=mode == CONJUGATE, **kwargs)


def make_instance(n=8, m=6, p=4, rho=0.3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    d = draw_gain_perturbation(m, rho, seed + 1)
    truth = GroundTruth(x=x, d=d, rho=rho)
    ensemble = generate_ensemble(n, m, p, "gaussian", seed + 2)
    return truth, ensemble, sense(ensemble, x, d)


def state_at(ensemble, y, xi, gamma, k=0):
    return SolverState(np.asarray(xi, float), np.asarray(gamma, float), k,
                       objective_value(ensemble, y, (xi, gamma)))


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------

def test_gamma_starts_at_ones():
    truth, ensemble, y = make_instance()
    _, gamma0 = initialise(ensemble, y)
    np.testing.assert_array_equal(gamma0, np.ones(truth.m))


def test_initialisation_concentrates():
    n, m, p = 32, 16, 5000
    x = np.zeros(n)
    x[0] = 1.0
    ensemble = generate_ensemble(n, m, p, "gaussian", 7)
    y = sense(ensemble, x, np.ones(m))
    xi0, _ = initialise(ensemble, y)
    assert np.linalg.norm(xi0 - x) <= 0.1


# ---------------------------------------------------------------------------
# exact line search
# ---------------------------------------------------------------------------

def test_line_search_zero_at_truth():
    truth, ensemble, y = make_instance()
    state = state_at(ensemble, y, truth.x_star, truth.d_star)
    assert exact_line_search(state, ensemble, y) == (0.0, 0.0)


def test_line_search_is_local_minimum():
    truth, ensemble, y = make_instance(seed=3)
    rng = np.random.default_rng(4)
    xi = truth.x + 0.3 * rng.standard_normal(truth.n)
    gamma = truth.d + 0.1 * rng.uniform(-1, 1, truth.m)
    state = state_at(ensemble, y, xi, gamma)
    mu_xi, _ = exact_line_search(state, ensemble, y)
    from blindcal.objective import gradients
    g = gradients(ensemble, y, (xi, gamma)).grad_xi

    def f_along(mu):
        return objective_value(ensemble, y, (xi - mu * g, gamma))

    best = f_along(mu_xi)
    assert best <= f_along(mu_xi * 1.01)
    assert best <= f_along(mu_xi * 0.99)


def test_line_search_matches_dense_scan():
    truth, ensemble, y = make_instance(n=3, m=4, p=2, seed=5)
    rng = np.random.default_rng(6)
    xi = truth.x + 0.5 * rng.standard_normal(3)
    gamma = truth.d + 0.1 * rng.uniform(-1, 1, 4)
    state = state_at(ensemble, y, xi, gamma)
    mu_xi, _ = exact_line_search(state, ensemble, y)
    from blindcal.objective import gradients
    g = gradients(ensemble, y, (xi, gamma)).grad_xi
    grid = np.linspace(0.0, 4.0 * mu_xi, 10_000)
    values = [objective_value(ensemble, y, (xi - mu * g, gamma)) for mu in grid]
    best = grid[int(np.argmin(values))]
    assert abs(best - mu_xi) <= grid[1] - grid[0]


# ---------------------------------------------------------------------------
# single iteration
# ---------------------------------------------------------------------------

def test_truth_is_fixed_point():
    truth, ensemble, y = make_instance()
    config = SolverConfig(step_mode=LINE_SEARCH, rho=truth.rho)
    state = state_at(ensemble, y, truth.x_star, truth.d_star)
    after = iterate(state, config, ensemble, y)
    np.testing.assert_allclose(after.xi, truth.x_star, atol=1e-14)
    np.testing.assert_allclose(after.gamma, truth.d_star, atol=1e-14)
    assert after.iteration == 1


def test_guaranteed_step_range_decreases_distance():
    rho, delta_param = 0.01, 0.05
    truth, ensemble, y = make_instance(n=16, m=8, p=64, rho=rho, seed=9)
    norm = float(np.linalg.norm(truth.x_star))
    diag = contraction_diagnostics(rho, delta_param, default_kappa(delta_param, rho),
                                   norm, truth.m, mu=0.0)
    assert diag.eta > 0
    mu = 0.5 * diag.mu_max
    config = SolverConfig(step_mode=FIXED, mu=mu, rho=rho)
    rng = np.random.default_rng(10)
    for _ in range(5):
        xi = truth.x_star + delta_param * norm * 0.5 * rng.standard_normal(truth.n)
        gamma = np.ones(truth.m)
        state = state_at(ensemble, y, xi, gamma)
        fixed = (mu, mu * truth.m / norm ** 2)
        after = iterate(state, config, ensemble, y, fixed_steps=fixed)
        assert delta((after.xi, after.gamma), truth) <= delta((xi, gamma), truth)


def test_projection_keeps_gamma_feasible():
    truth, ensemble, y = make_instance(rho=0.3, seed=13)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.3, apply_C_rho_projection=True)
    rng = np.random.default_rng(14)
    xi = truth.x + rng.standard_normal(truth.n)
    state = state_at(ensemble, y, xi, np.ones(truth.m))
    for _ in range(5):
        state = iterate(state, config, ensemble, y)
        assert abs(state.gamma.sum() - truth.m) <= 1e-9 * truth.m
        assert np.max(np.abs(state.gamma - 1.0)) <= 0.3 + 1e-9


def test_fixed_mode_requires_steps():
    truth, ensemble, y = make_instance()
    config = SolverConfig(step_mode=FIXED, mu=1e-3, rho=truth.rho)
    state = state_at(ensemble, y, truth.x, np.ones(truth.m))
    with pytest.raises(ParameterError):
        iterate(state, config, ensemble, y)


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
def test_divergent_step_raises(monkeypatch, lazy):
    if lazy:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    truth, ensemble, y = make_instance()
    assert (ensemble.stacked() is None) == lazy
    config = SolverConfig(step_mode=FIXED, mu=1e12, rho=truth.rho,
                          max_iterations=50)
    with pytest.raises(DivergenceError) as err:
        solve(ensemble, y, config)
    assert err.value.iteration is not None


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def test_end_to_end_recovery():
    inst = draw_instance(64, 16, 64, 0.05, seed=1)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.05,
                          objective_tolerance=1e-7)
    result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    assert result.stop_reason == CONVERGED
    assert recovery_error(result.x_hat, result.d_hat, inst.truth) < 10 ** (-70 / 20)


def test_rho_zero_reduces_to_least_squares():
    n, m, p = 16, 8, 8
    rng = np.random.default_rng(20)
    x = rng.standard_normal(n)
    ensemble = generate_ensemble(n, m, p, "gaussian", 21)
    y = sense(ensemble, x, np.ones(m))
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.0,
                          objective_tolerance=1e-26, max_iterations=20_000)
    result = solve(ensemble, y, config)
    np.testing.assert_array_equal(result.d_hat, np.ones(m))
    assert np.linalg.norm(result.x_hat - x) <= 1e-8 * np.linalg.norm(x)


def test_deterministic_traces():
    inst = draw_instance(24, 8, 16, 0.2, seed=33)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.2, objective_tolerance=1e-9)
    a = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    b = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    assert a.trace.objective == b.trace.objective
    assert a.trace.mu_xi == b.trace.mu_xi
    assert a.trace.delta == b.trace.delta
    assert a.iterations == b.iterations


def test_max_iterations_stop():
    inst = draw_instance(32, 8, 16, 0.2, seed=40)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.2,
                          objective_tolerance=1e-12, max_iterations=3)
    result = solve(inst.ensemble, inst.y, config)
    assert result.stop_reason == MAX_ITERATIONS
    assert result.iterations == 3


def test_underdetermined_instance_converges_to_wrong_solution():
    # mp < n + m leaves the data consistent with many (xi, gamma); the descent
    # reaches a residual zero that is far from the planted truth
    inst = draw_instance(32, 8, 1, 0.9, seed=41)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.9,
                          objective_tolerance=1e-9, max_iterations=5000)
    result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    assert recovery_error(result.x_hat, result.d_hat, inst.truth) > 10 ** (-70 / 20)


def test_stagnation_guard():
    # a tolerance below what floating point can reach forces the guard
    n, m, p = 12, 6, 6
    rng = np.random.default_rng(70)
    x = rng.standard_normal(n)
    ensemble = generate_ensemble(n, m, p, "gaussian", 71)
    y = sense(ensemble, x, np.ones(m))
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.0,
                          objective_tolerance=1e-40, max_iterations=50_000)
    result = solve(ensemble, y, config)
    assert result.stop_reason == "stagnated"
    assert result.objective < 1e-25


def test_default_stop_rule_is_scale_free():
    # the signal scaled from 1e-4 to 1e4: the relative tolerance scales with
    # ||y||^2, so the solve takes the same steps and reaches the same error
    inst = draw_instance(64, 16, 64, 0.3, seed=5)
    config = SolverConfig(rho=0.3, record_trace=False)
    assert config.objective_tolerance is None
    runs = []
    for scale in 10.0 ** np.arange(-4, 5):
        truth = GroundTruth(x=scale * inst.truth.x, d=inst.truth.d, rho=0.3)
        result = solve(inst.ensemble, scale * inst.y, config)
        assert result.stop_reason == CONVERGED
        runs.append((result.iterations,
                     to_db(recovery_error(result.x_hat, result.d_hat, truth))))
    iterations, errors = zip(*runs)
    assert max(iterations) - min(iterations) <= 1
    assert max(errors) - min(errors) <= 1.0
    assert max(errors) < -100.0


def test_relative_tolerance_bounds_f_by_the_data_energy():
    # identifiable (mp = 32 >= n + m - 1 = 23), so the stop is converged
    inst = draw_instance(16, 8, 4, 0.3, seed=6)
    threshold = solver.RELATIVE_TOLERANCE * float(np.sum(inst.y ** 2)) / (2 * 8 * 4)
    result = solve(inst.ensemble, inst.y, SolverConfig(rho=0.3))
    # the stop takes one step more after f first falls below the threshold
    assert result.stop_reason == CONVERGED
    assert result.trace.objective[-2] < threshold <= result.trace.objective[-3]


@pytest.mark.parametrize("mode, lazy", [
    pytest.param(mode, lazy, id=mode + ("-lazy" if lazy else ""))
    for lazy in (False, True) for mode in (LINE_SEARCH, FIXED)])
def test_carried_objective_stays_at_f_of_the_result(monkeypatch, mode, lazy):
    # a solve of thousands of steps, each carrying A xi by recurrence;
    # mp = 18 >= n + m - 1 = 17, so line search stops converged, fixed on its budget
    if lazy:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(12, 6, 3, 0.3, seed=2)
    assert (inst.ensemble.stacked() is None) == lazy
    config = SolverConfig(step_mode=mode, mu=2e-3, rho=0.3, max_iterations=12_000,
                          record_trace=False)
    result = solve(inst.ensemble, inst.y, config)
    assert result.stop_reason == (CONVERGED if mode == LINE_SEARCH else MAX_ITERATIONS)
    assert result.iterations >= 5000
    f = objective_value(inst.ensemble, inst.y, (result.x_hat, result.d_hat))
    scale = float(np.vdot(inst.y, inst.y)) / (2 * 6 * 3)
    # 100 times below RELATIVE_TOLERANCE: a converged stop bounds the true f too
    assert abs(result.objective - f) <= 1e-14 * scale


def test_underdetermined_fit_stops_underdetermined():
    # m*p = n + m - 1 is the smallest identifiable p
    assert [SensingEnsemble(9, 4, p).underdetermined for p in (2, 3)] == [True, False]
    inst = draw_instance(16, 8, 2, 0.3, seed=6)  # mp = 16 < n + m - 1 = 23
    assert solve(inst.ensemble, inst.y, SolverConfig(rho=0.3)).stop_reason == UNDERDETERMINED
    budget = solve(inst.ensemble, inst.y, SolverConfig(rho=0.3, max_iterations=3))
    assert budget.stop_reason == MAX_ITERATIONS


@pytest.mark.parametrize("step_mode", [LINE_SEARCH, FIXED])
@pytest.mark.parametrize("tolerance", [None, 1e-7])
def test_zero_data_converges_at_the_start(tolerance, step_mode):
    # zero data makes both f0 and the relative bound 0; f0 = 0 has converged
    ensemble = generate_ensemble(8, 4, 8, "gaussian", 1)
    result = solve(ensemble, np.zeros((8, 4)),
                   SolverConfig(rho=0.1, objective_tolerance=tolerance, step_mode=step_mode,
                                mu=1e-3))
    assert result.stop_reason == CONVERGED
    assert result.iterations == 0 and result.objective == 0.0


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("bad", ["x", "d"])
def test_solve_checks_truth_before_the_operator(record_trace, bad):
    inst = draw_instance(10, 4, 6, 0.1, seed=77)
    other = draw_instance(11 if bad == "x" else 10, 5 if bad == "d" else 4, 6, 0.1, seed=77)
    config = SolverConfig(rho=0.1, max_iterations=5, record_trace=record_trace)
    before = inst.ensemble.operator_passes
    with pytest.raises(DimensionError, match=f"truth.{bad}"):
        solve(inst.ensemble, inst.y, config, truth=other.truth)
    assert inst.ensemble.operator_passes == before


def test_traced_solve_with_truth_holds_few_large_iterates(monkeypatch):
    # a record of this instance holds n + m = 20016 values, more than
    # TRACE_CHUNK_CELLS, so each record's distances are filled as it is taken
    inst = draw_instance(20000, 16, 2, 0.3, seed=3)
    config = SolverConfig(rho=0.3, objective_tolerance=1e-30, max_iterations=300)
    tracemalloc.start()
    try:
        lean = solve(inst.ensemble, inst.y, config, truth=inst.truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(lean.trace.delta) == len(lean.trace.iteration) > 4 and None not in lean.trace.delta
    # filling fewer records at once changes no distance bit
    monkeypatch.setattr("blindcal.solver.TRACE_CHUNK_CELLS", 1 << 62)
    chunked = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    assert (lean.trace.delta, lean.trace.delta_F) == (chunked.trace.delta, chunked.trace.delta_F)


def test_trace_thins_after_dense_limit():
    import blindcal.solver as solver_mod
    inst = draw_instance(10, 4, 6, 0.1, seed=77)
    config = SolverConfig(step_mode=FIXED, mu=1e-12, rho=0.1,
                          objective_tolerance=1e-30, max_iterations=120)
    old = solver_mod.TRACE_DENSE_LIMIT
    solver_mod.TRACE_DENSE_LIMIT = 50
    try:
        result = solve(inst.ensemble, inst.y, config)
    finally:
        solver_mod.TRACE_DENSE_LIMIT = old
    ks = result.trace.iteration
    assert ks[:51] == list(range(51))  # dense up to the limit
    later = [k for k in ks[51:] if k != 120]
    assert later and all(k % 10 == 0 for k in later)  # thinned afterwards
    assert ks[-1] == 120  # final state always recorded


def test_thinned_trace_records_the_last_steps_taken(monkeypatch):
    monkeypatch.setattr("blindcal.solver.TRACE_DENSE_LIMIT", 3)
    inst = draw_instance(10, 4, 6, 0.1, seed=77)
    config = SolverConfig(step_mode=FIXED, mu=1e-12, rho=0.1,
                          objective_tolerance=1e-30, max_iterations=7)
    trace = solve(inst.ensemble, inst.y, config).trace
    assert trace.iteration == [0, 1, 2, 3, 7]
    assert trace.mu_xi[0] == trace.mu_gamma[0] == 0.0  # no step before the start
    assert trace.mu_xi[1:] == [1e-12] * 4
    assert trace.mu_gamma[-1] == trace.mu_gamma[1] > 0.0


def test_xi_block_line_search_monotone():
    inst = draw_instance(24, 8, 24, 0.4, seed=44)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.4, objective_tolerance=1e-10)
    state = SolverState(*initialise(inst.ensemble, inst.y), 0, 0.0)
    state = state_at(inst.ensemble, inst.y, state.xi, state.gamma)
    from blindcal.objective import gradients
    for _ in range(30):
        mu_xi, _ = exact_line_search(state, inst.ensemble, inst.y)
        g = gradients(inst.ensemble, inst.y, (state.xi, state.gamma)).grad_xi
        f_after_xi = objective_value(inst.ensemble, inst.y,
                                     (state.xi - mu_xi * g, state.gamma))
        assert f_after_xi <= state.objective * (1 + 1e-12)
        state = iterate(state, config, inst.ensemble, inst.y)
        if state.objective < 1e-14:
            break


def test_fixed_step_distance_decay_in_theory_range():
    rho, delta_param = 0.01, 0.05
    inst = draw_instance(16, 8, 128, rho, seed=50)
    truth = inst.truth
    norm = float(np.linalg.norm(truth.x_star))
    diag = contraction_diagnostics(rho, delta_param, default_kappa(delta_param, rho),
                                   norm, truth.m, mu=0.0)
    mu = 0.5 * diag.mu_max
    config = SolverConfig(step_mode=FIXED, mu=mu, rho=rho,
                          objective_tolerance=1e-9, max_iterations=4000)
    result = solve(inst.ensemble, inst.y, config, truth=truth)
    deltas = [v for v in result.trace.delta if v is not None]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    # log-linear decay until the tolerance bites
    assert deltas[-1] < deltas[0]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rho", [0.01, 0.05])
def test_fixed_steps_obey_the_contraction_guarantee(rho, seed):
    # the paper's theorem: from the backprojection start, within delta_0 ||x*|| of x*,
    # a fixed step mu < mu_max keeps every iterate in D_{kappa,rho} and contracts the
    # squared distance by at least `factor` per step
    inst = draw_instance(64, 16, 256, rho, seed)
    truth, ensemble, y = inst.truth, inst.ensemble, inst.y
    xi, gamma = initialise(ensemble, y)
    norm = float(np.sqrt(truth.x_star_sq))
    delta_0 = float(np.linalg.norm(xi - truth.x_star)) / norm
    kappa = default_kappa(delta_0, rho)
    mu = 0.5 * contraction_diagnostics(rho, delta_0, kappa, norm, truth.m, 0.0).mu_max
    diag = contraction_diagnostics(rho, delta_0, kappa, norm, truth.m, mu)
    assert diag.eta > 0
    config = SolverConfig(step_mode=FIXED, mu=mu, rho=rho, objective_tolerance=1e-300,
                          max_iterations=500)
    result = solve(ensemble, y, config, truth=truth)
    trace = result.trace
    assert result.stop_reason == MAX_ITERATIONS and trace.iteration == list(range(501))
    assert all(d <= trace.delta[0] * diag.factor ** k
               for k, d in zip(trace.iteration, trace.delta))
    grads = gradients(ensemble, y, (xi, gamma))
    state = SolverState(xi, gamma, 0, grads.objective, evaluation=grads)
    fixed = (mu, mu * truth.m / float(xi @ xi))
    assert in_neighbourhood((xi, gamma), kappa, truth)
    for _ in range(500):
        state = iterate(state, config, ensemble, y, fixed)
        assert in_neighbourhood((state.xi, state.gamma), kappa, truth)


def test_gamma_stays_feasible_without_projection():
    inst = draw_instance(32, 8, 64, 0.2, seed=60)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.2,
                          objective_tolerance=1e-7,
                          apply_C_rho_projection=False)
    result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    assert result.stop_reason == CONVERGED
    assert abs(result.d_hat.sum() - 8) <= 1e-9 * 8
    assert np.max(np.abs(result.d_hat - 1.0)) <= 0.2 + 1e-9


# ---------------------------------------------------------------------------
# the fused iteration against the unfused reference loop
# ---------------------------------------------------------------------------

def reference_solve(ensemble, y, config):
    """The descent loop written out on the stacked rows, in the solver's
    order: the gain step from the carried A xi, then A g, the signal step
    with the pre-step gamma, and A xi' = A xi - mu_xi A g by recurrence; and
    with its reductions: each squared norm one flat dot, the gain gradient's
    column sum a dot with p weights 1/(mp), and its mean a Python sum."""
    m, p = ensemble.m, ensemble.p
    mp = m * p
    rows = np.concatenate([ensemble.matrix(l) for l in range(p)])
    xi, gamma = initialise(ensemble, y)
    ax = rows.dot(xi).reshape(p, m)
    weights = np.full(p, 1.0 / mp)

    def evaluate(ax, gamma):
        r = gamma * ax - y
        g = (1.0 / mp) * (gamma * r).reshape(-1).dot(rows)
        grad_gamma = weights.dot(r * ax)
        f = float(r.reshape(-1).dot(r.reshape(-1))) / (2.0 * mp)
        return f, g, grad_gamma - sum(grad_gamma.tolist()) / m

    def step(direction, image):
        den = float(image.reshape(-1).dot(image.reshape(-1)))
        return mp * float(direction.dot(direction)) / den if den > 0.0 else 0.0

    f, g, h = evaluate(ax, gamma)
    if config.step_mode == FIXED:
        fixed = (config.mu, config.mu * ensemble.m / float(xi @ xi))
    objectives, mus, recent, k = [f], [0.0], [f], 0
    stop = CONVERGED if f < config.objective_tolerance else None
    while stop is None:
        if k >= config.max_iterations:
            stop = MAX_ITERATIONS
            break
        if len(recent) > STAGNATION_WINDOW and (
                recent[0] - f < STAGNATION_RTOL * max(recent[0], 1e-300)):
            stop = "stagnated"
            break
        previous = f
        ag = rows.dot(g).reshape(p, m)
        if config.step_mode == LINE_SEARCH:
            mu_xi, mu_gamma = step(g, gamma * ag), step(h, ax * h)
        else:
            mu_xi, mu_gamma = fixed
        gamma = project_C_rho(gamma - mu_gamma * h, config.rho)
        xi = xi - mu_xi * g
        ax = ax - mu_xi * ag
        f, g, h = evaluate(ax, gamma)
        k += 1
        objectives.append(f)
        mus.append(mu_xi)
        recent = (recent + [f])[-(STAGNATION_WINDOW + 1):]
        if previous < config.objective_tolerance:
            stop = CONVERGED
    return dict(stop=stop, iterations=k, objectives=objectives, mu_xi=mus,
                xi=xi, gamma=gamma)


def reference_conjugate_solve(ensemble, y, config):
    """``reference_solve`` with Polak-Ribiere+ signal directions, on the stacked
    rows: d = g + beta d_prev, beta = max(0, <g, g - g_prev> / ||g_prev||^2) or 0
    for a zero g_prev, restarted to d = g when <g, d> <= 0; A d replaces A g, and
    the signal step is mp <g, d> / ||gamma * A d||^2. Also counts the restarts."""
    m, p = ensemble.m, ensemble.p
    mp = m * p
    rows = np.concatenate([ensemble.matrix(l) for l in range(p)])
    xi, gamma = initialise(ensemble, y)
    ax = rows.dot(xi).reshape(p, m)
    weights = np.full(p, 1.0 / mp)

    def evaluate(ax, gamma):
        r = gamma * ax - y
        g = (1.0 / mp) * (gamma * r).reshape(-1).dot(rows)
        grad_gamma = weights.dot(r * ax)
        f = float(r.reshape(-1).dot(r.reshape(-1))) / (2.0 * mp)
        return f, g, grad_gamma - sum(grad_gamma.tolist()) / m

    def step(gradient, direction, image):
        den = float(image.reshape(-1).dot(image.reshape(-1)))
        return mp * float(gradient.dot(direction)) / den if den > 0.0 else 0.0

    f, g, h = evaluate(ax, gamma)
    objectives, mus, recent, k, d, g_prev, restarts = [f], [0.0], [f], 0, None, None, 0
    stop = CONVERGED if f < config.objective_tolerance else None
    while stop is None:
        if k >= config.max_iterations:
            stop = MAX_ITERATIONS
            break
        if len(recent) > STAGNATION_WINDOW and (
                recent[0] - f < STAGNATION_RTOL * max(recent[0], 1e-300)):
            stop = "stagnated"
            break
        previous = f
        if d is None:
            d = g
        else:
            den = float(g_prev.dot(g_prev))
            d = g + (max(0.0, float(g.dot(g - g_prev)) / den) if den > 0.0 else 0.0) * d
            if g.dot(d) <= 0.0:
                d, restarts = g, restarts + 1
        ad = rows.dot(d).reshape(p, m)
        mu_xi, mu_gamma = step(g, d, gamma * ad), step(h, h, ax * h)
        gamma = project_C_rho(gamma - mu_gamma * h, config.rho)
        xi = xi - mu_xi * d
        ax = ax - mu_xi * ad
        g_prev = g
        f, g, h = evaluate(ax, gamma)
        k += 1
        objectives.append(f)
        mus.append(mu_xi)
        recent = (recent + [f])[-(STAGNATION_WINDOW + 1):]
        if previous < config.objective_tolerance:
            stop = CONVERGED
    return dict(stop=stop, iterations=k, objectives=objectives, mu_xi=mus,
                xi=xi, gamma=gamma, restarts=restarts)


def trajectory_instance(monkeypatch, lazy):
    if lazy:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(12, 6, 6, 0.3, seed=90)
    assert (inst.ensemble.stacked() is None) == lazy
    return inst


def assert_same_trajectory(result, ref, rtol):
    assert result.stop_reason == ref["stop"]
    assert result.iterations == ref["iterations"]
    np.testing.assert_allclose(result.trace.objective, ref["objectives"], rtol=rtol, atol=0)
    np.testing.assert_allclose(result.trace.mu_xi, ref["mu_xi"], rtol=rtol, atol=0)
    np.testing.assert_allclose(result.x_hat, ref["xi"], rtol=rtol, atol=0)
    np.testing.assert_allclose(result.d_hat, ref["gamma"], rtol=rtol, atol=0)


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
def test_fixed_step_trajectory_matches_reference(monkeypatch, lazy):
    inst = trajectory_instance(monkeypatch, lazy)
    config = SolverConfig(step_mode=FIXED, mu=2e-3, rho=0.3,
                          objective_tolerance=1e-30, max_iterations=1000)
    result = solve(inst.ensemble, inst.y, config)
    ref = reference_solve(inst.ensemble, inst.y, config)
    assert result.iterations == 1000 and ref["objectives"][-1] > 1e-8
    assert_same_trajectory(result, ref, rtol=1e-10)


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
def test_line_search_solve_matches_reference(monkeypatch, lazy):
    inst = trajectory_instance(monkeypatch, lazy)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.3, objective_tolerance=1e-7)
    result = solve(inst.ensemble, inst.y, config)
    ref = reference_solve(inst.ensemble, inst.y, config)
    assert result.stop_reason == CONVERGED
    assert_same_trajectory(result, ref, rtol=1e-10)


@pytest.mark.parametrize("lazy, rho, seed, restarts", [
    pytest.param(False, 0.3, 90, 0, id="cached"), pytest.param(True, 0.3, 90, 0, id="lazy"),
    # gains up to 99% off: one PR+ direction on this path is not a descent direction (cached
    # only: near the stop the lazy recurrence's rounding reaches 3e-9 of f)
    pytest.param(False, 0.99, 1, 1, id="cached-restart")])
def test_conjugate_solve_matches_reference(monkeypatch, lazy, rho, seed, restarts):
    if lazy:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(12, 6, 6, rho, seed)
    assert (inst.ensemble.stacked() is None) == lazy
    config = mode_config(CONJUGATE, rho=rho, objective_tolerance=1e-7)
    result = solve(inst.ensemble, inst.y, config)
    ref = reference_conjugate_solve(inst.ensemble, inst.y, config)
    assert result.stop_reason == CONVERGED and ref["restarts"] == restarts
    # fewer steps than plain line search on the same instance
    plain = solve(inst.ensemble, inst.y, replace(config, conjugate=False))
    assert result.iterations < plain.iterations
    assert_same_trajectory(result, ref, rtol=1e-10)


def test_conjugate_step_restarts_unless_a_descent_direction():
    inst = draw_instance(12, 6, 6, 0.3, seed=90)
    config = mode_config(CONJUGATE, rho=0.3)
    xi, gamma = initialise(inst.ensemble, inst.y)
    grads = gradients(inst.ensemble, inst.y, (xi, gamma))
    g = grads.grad_xi
    start = SolverState(xi, gamma, 0, grads.objective, evaluation=grads)
    steepest = iterate(start, config, inst.ensemble, inst.y)
    np.testing.assert_array_equal(steepest.direction, g)
    np.testing.assert_array_equal(steepest.direction_grad, g)

    def step(direction, direction_grad):
        return iterate(replace(start, direction=direction, direction_grad=direction_grad),
                       config, inst.ensemble, inst.y)

    # beta = <g, g - g/2> / ||g/2||^2 = 2: d = g - 2g = -g, an ascent direction, restarts
    # to g; a zero g_prev takes beta = 0; either way the step is the steepest one, bit
    # for bit
    for after in (step(-g, 0.5 * g), step(-g, np.zeros_like(g))):
        np.testing.assert_array_equal(after.direction, g)
        np.testing.assert_array_equal(after.xi, steepest.xi)
        assert after.mu_xi == steepest.mu_xi
    # a descent direction is kept: d = g + 2 e, with <g, d> > 0
    e = np.random.default_rng(0).standard_normal(g.size)
    e -= (e.dot(g) / g.dot(g)) * g
    kept = step(e, 0.5 * g)
    np.testing.assert_allclose(kept.direction, g + 2.0 * e, rtol=1e-12)
    assert not np.allclose(kept.xi, steepest.xi)


def test_lazy_solve_matches_cached(monkeypatch):
    inst = draw_instance(12, 6, 6, 0.3, seed=90)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.3, objective_tolerance=1e-7)
    cached = solve(inst.ensemble, inst.y, config)
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    lazy_ensemble = generate_ensemble(12, 6, 6, "gaussian", inst.ensemble.seed)
    assert lazy_ensemble.stacked() is None
    lazy = solve(lazy_ensemble, inst.y, config)
    assert (lazy.stop_reason, lazy.iterations) == (cached.stop_reason, cached.iterations)
    np.testing.assert_allclose(lazy.x_hat, cached.x_hat, rtol=1e-10)
    np.testing.assert_allclose(lazy.d_hat, cached.d_hat, rtol=1e-10)


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
def test_line_search_uses_carried_evaluation(monkeypatch, lazy):
    inst = trajectory_instance(monkeypatch, lazy)
    xi, gamma = initialise(inst.ensemble, inst.y)
    bare = state_at(inst.ensemble, inst.y, xi, gamma)
    carried = SolverState(xi, gamma, 0, bare.objective,
                          evaluation=gradients(inst.ensemble, inst.y, (xi, gamma)))
    steps = exact_line_search(bare, inst.ensemble, inst.y)

    def no_evaluation(*args):
        raise AssertionError("a carried evaluation was computed again")

    monkeypatch.setattr("blindcal.solver.gradients", no_evaluation)
    assert exact_line_search(carried, inst.ensemble, inst.y) == steps
    assert steps[0] > 0.0 and steps[1] > 0.0


def test_lazy_solve_regenerates_two_passes_per_iteration(monkeypatch):
    inst = trajectory_instance(monkeypatch, lazy=True)
    draws = []
    draw = SensingEnsemble._draw

    def counting_draw(self, l):
        draws.append(l)
        return draw(self, l)

    monkeypatch.setattr(SensingEnsemble, "_draw", counting_draw)
    config = SolverConfig(step_mode=LINE_SEARCH, rho=0.3,
                          objective_tolerance=1e-30, max_iterations=5)
    result = solve(inst.ensemble, inst.y, config)
    k, p = result.iterations, inst.ensemble.p
    assert k == 5
    # the start: one adjoint and one evaluation; then per iteration one
    # evaluation of the new point and the line-search image A g
    assert len(draws) <= (2 * k + 2) * p


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED, CONJUGATE])
def test_solve_counts_operator_passes(monkeypatch, lazy, mode):
    inst = trajectory_instance(monkeypatch, lazy)
    config = mode_config(mode, mu=2e-3, rho=0.3, objective_tolerance=1e-30, max_iterations=6)
    before = inst.ensemble.operator_passes
    result = solve(inst.ensemble, inst.y, config)
    k = result.iterations
    assert k == 6 and min(result.trace.mu_xi[1:] + result.trace.mu_gamma[1:]) > 0.0
    # the start: one adjoint and one evaluation; then per iteration one
    # pass, which gives the line-search image A g and the new point's evaluation
    expected = k + 2
    assert result.operator_passes == expected
    assert inst.ensemble.operator_passes - before == expected


# ---------------------------------------------------------------------------
# contraction diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_zero_step():
    diag = contraction_diagnostics(0.05, 0.05, default_kappa(0.05, 0.05), 1.0, 8, 0.0)
    assert diag.factor == 1.0


def test_diagnostics_eta_at_origin():
    diag = contraction_diagnostics(0.0, 0.0, 0.0, 1.0, 8, 0.0)
    assert diag.eta == 2.0


def test_diagnostics_hand_computed():
    # rho = delta = kappa = 0, unit signal norm, m = 1
    diag = contraction_diagnostics(0.0, 0.0, 0.0, 1.0, 1, mu=1.0 / 128.0)
    assert diag.L == pytest.approx(8.0 * np.sqrt(2.0))
    assert diag.tau == 1.0
    assert diag.mu_max == pytest.approx(2.0 / 128.0)
    assert diag.factor == pytest.approx(1.0 - 1.0 / 128.0)


def test_diagnostics_warns_outside_theory():
    with pytest.warns(TheoryRangeWarning):
        contraction_diagnostics(0.5, 0.1, default_kappa(0.1, 0.5), 1.0, 8, 1e-4)


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_stagnation_stop_matches_reference(rho):
    # the instance of test_stagnation_guard; both solves stop on the window
    n, m, p = 12, 6, 6
    rng = np.random.default_rng(70)
    x = rng.standard_normal(n)
    ensemble = generate_ensemble(n, m, p, "gaussian", 71)
    y = sense(ensemble, x, np.ones(m))
    config = SolverConfig(step_mode=LINE_SEARCH, rho=rho,
                          objective_tolerance=1e-40, max_iterations=50_000)
    result = solve(ensemble, y, config)
    ref = reference_solve(ensemble, y, config)
    assert result.stop_reason == ref["stop"] == "stagnated"
    assert result.iterations == ref["iterations"]
    np.testing.assert_allclose(result.trace.objective, ref["objectives"], rtol=1e-10, atol=0)


@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED])
def test_iterate_evaluates_a_bare_state_once(mode):
    inst = draw_instance(12, 6, 6, 0.3, seed=90)
    config = SolverConfig(step_mode=mode, mu=2e-3, rho=0.3)
    xi, gamma = initialise(inst.ensemble, inst.y)
    fixed = (2e-3, 2e-3 * inst.ensemble.m / float(xi @ xi)) if mode == FIXED else None
    carried = SolverState(xi, gamma, 0, objective_value(inst.ensemble, inst.y, (xi, gamma)),
                          evaluation=gradients(inst.ensemble, inst.y, (xi, gamma)))
    bare = SolverState(xi, gamma, 0, carried.objective)
    passes = []
    for state in (carried, bare):
        before = inst.ensemble.operator_passes
        passes.append((iterate(state, config, inst.ensemble, inst.y, fixed),
                       inst.ensemble.operator_passes - before))
    (a, cost_a), (b, cost_b) = passes
    np.testing.assert_array_equal(b.xi, a.xi)
    np.testing.assert_array_equal(b.gamma, a.gamma)
    assert b.objective == a.objective and (b.mu_xi, b.mu_gamma) == (a.mu_xi, a.mu_gamma)
    assert cost_b == cost_a + 1


@pytest.mark.parametrize("step_mode", [LINE_SEARCH, FIXED, CONJUGATE])
def test_lazy_step_regenerates_one_pass_per_iteration(monkeypatch, step_mode):
    inst = trajectory_instance(monkeypatch, lazy=True)
    draws = []
    draw = SensingEnsemble._draw

    def counting_draw(self, l):
        draws.append(l)
        return draw(self, l)

    monkeypatch.setattr(SensingEnsemble, "_draw", counting_draw)
    config = mode_config(step_mode, mu=2e-3, rho=0.3, objective_tolerance=1e-30,
                         max_iterations=5)
    result = solve(inst.ensemble, inst.y, config)
    k, p = result.iterations, inst.ensemble.p
    assert k == 5
    # the start: one adjoint and one evaluation; then one sweep per iteration
    assert len(draws) == (k + 2) * p


def assert_same_evaluation(actual, expected, assert_close):
    for name in ("grad_xi", "grad_gamma", "grad_gamma_projected", "ax"):
        assert_close(getattr(actual, name), getattr(expected, name))
    assert_close(np.asarray(actual.objective), np.asarray(expected.objective))


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED])
def test_step_carries_a_fresh_evaluation(monkeypatch, lazy, mode):
    inst = trajectory_instance(monkeypatch, lazy)
    config = SolverConfig(step_mode=mode, mu=2e-3, rho=0.3)
    xi, gamma = initialise(inst.ensemble, inst.y)
    fixed = (2e-3, 2e-3 * inst.ensemble.m / float(xi @ xi)) if mode == FIXED else None
    state = SolverState(xi, gamma, 0, 0.0,
                        evaluation=gradients(inst.ensemble, inst.y, (xi, gamma)))

    def close_in_norm(a, b):
        # relative to the whole array: its small entries carry the rounding of its large ones
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for _ in range(20):
        # the public pieces: the steps, then the new point evaluated afresh
        steps = fixed or exact_line_search(state, inst.ensemble, inst.y)
        xi = state.xi - steps[0] * state.evaluation.grad_xi
        gamma = project_C_rho(state.gamma - steps[1] * state.evaluation.grad_gamma_projected,
                              config.rho)
        state = iterate(state, config, inst.ensemble, inst.y, fixed)
        np.testing.assert_array_equal(state.xi, xi)
        np.testing.assert_array_equal(state.gamma, gamma)
        assert (state.mu_xi, state.mu_gamma) == steps
        assert_same_evaluation(state.evaluation, gradients(inst.ensemble, inst.y, (xi, gamma)),
                               close_in_norm)


def poison_passed_blocks(ensemble):
    """Make ``ensemble.blocks()`` yield copies, each filled with NaN once the
    next block is asked for (and once the sweep is over)."""
    blocks = ensemble.blocks

    def sweep():
        held = None
        for sl, rows in blocks():
            if held is not None:
                held.fill(np.nan)
            held = rows.copy()
            yield sl, held
        held.fill(np.nan)

    ensemble.blocks = sweep


@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED])
def test_lazy_step_reads_no_block_after_the_sweep_moved_on(monkeypatch, mode):
    inst = trajectory_instance(monkeypatch, lazy=True)
    config = SolverConfig(step_mode=mode, mu=2e-3, rho=0.3, objective_tolerance=1e-30,
                          max_iterations=10)
    plain = solve(inst.ensemble, inst.y, config)
    poison_passed_blocks(inst.ensemble)
    result = solve(inst.ensemble, inst.y, config)
    assert (result.stop_reason, result.iterations) == (plain.stop_reason, plain.iterations)
    assert result.trace.objective == plain.trace.objective
    np.testing.assert_array_equal(result.x_hat, plain.x_hat)
    np.testing.assert_array_equal(result.d_hat, plain.d_hat)


@pytest.mark.parametrize("mode, lazy, rho, project", [
    pytest.param(mode, lazy, rho, project,
                 id="-".join((mode, "lazy" if lazy else "cached") + extra))
    for mode in (LINE_SEARCH, FIXED) for lazy in (False, True)
    for rho, project, extra in ((0.3, True, ()), (0.3, False, ("unprojected",)),
                                (0.0, True, ("rho0",)))] + [
    pytest.param(CONJUGATE, lazy, 0.3, True, id=CONJUGATE + ("-lazy" if lazy else "-cached"))
    for lazy in (False, True)])
def test_solve_is_a_loop_of_iterate(monkeypatch, lazy, mode, rho, project):
    # 41 records of n + m = 18 cells: 5 chunks of 7 records and one of 6
    monkeypatch.setattr("blindcal.solver.TRACE_CHUNK_CELLS", 7 * 18)
    inst = trajectory_instance(monkeypatch, lazy)
    config = mode_config(mode, mu=2e-3, rho=rho, objective_tolerance=1e-30, max_iterations=40,
                         apply_C_rho_projection=project)
    result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
    # the same descent by hand, through the public step
    before = inst.ensemble.operator_passes
    xi, gamma = initialise(inst.ensemble, inst.y)
    grads = gradients(inst.ensemble, inst.y, (xi, gamma))
    fixed = (2e-3, 2e-3 * inst.ensemble.m / float(xi @ xi)) if mode == FIXED else None
    states = [SolverState(xi, gamma, 0, grads.objective, evaluation=grads)]
    for _ in range(40):
        states.append(iterate(states[-1], config, inst.ensemble, inst.y, fixed))
    last = states[-1]
    assert (result.stop_reason, result.iterations) == (MAX_ITERATIONS, last.iteration)
    np.testing.assert_array_equal(result.x_hat, last.xi)
    np.testing.assert_array_equal(result.d_hat, last.gamma)
    assert result.objective == last.objective
    assert result.trace.objective == [s.objective for s in states]
    assert result.trace.mu_xi == [s.mu_xi for s in states]
    assert result.trace.mu_gamma == [s.mu_gamma for s in states]
    assert result.trace.delta == [delta((s.xi, s.gamma), inst.truth) for s in states]
    assert result.trace.delta_F == [delta_F((s.xi, s.gamma), inst.truth) for s in states]
    assert result.operator_passes == inst.ensemble.operator_passes - before == 40 + 2


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED, CONJUGATE])
@pytest.mark.parametrize("carried", [True, False], ids=["carried", "bare"])
def test_iterate_leaves_its_argument_untouched(monkeypatch, lazy, mode, carried):
    inst = trajectory_instance(monkeypatch, lazy)
    config = mode_config(mode, mu=2e-3, rho=0.3)
    xi, gamma = initialise(inst.ensemble, inst.y)
    fixed = (2e-3, 2e-3 * inst.ensemble.m / float(xi @ xi)) if mode == FIXED else None
    # one step in, so both steps are nonzero and A xi is a step's work array
    state = iterate(state_at(inst.ensemble, inst.y, xi, gamma), config, inst.ensemble, inst.y,
                    fixed)
    if not carried:  # the evaluation dropped, the PR+ memory kept
        state = replace(state, evaluation=None)
    before = copy.deepcopy(state)
    after = iterate(state, config, inst.ensemble, inst.y, fixed)
    assert after is not state and after.iteration == state.iteration + 1
    for name in ("xi", "gamma", "iteration", "objective", "mu_xi", "mu_gamma", "direction",
                 "direction_grad"):
        np.testing.assert_array_equal(getattr(state, name), getattr(before, name))
    assert state.mu_xi > 0.0 and state.mu_gamma > 0.0
    if carried:
        assert state.evaluation is not after.evaluation
        assert_same_evaluation(state.evaluation, before.evaluation,
                               np.testing.assert_array_equal)
    else:
        assert state.evaluation is None


@pytest.mark.parametrize("lazy", [False, True], ids=["cached", "lazy"])
def test_divergent_iterate_raises_without_warning(monkeypatch, lazy):
    # the divergent step of test_divergent_step_raises, one bare iterate() at a time
    if lazy:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    truth, ensemble, y = make_instance()
    assert (ensemble.stacked() is None) == lazy
    config = SolverConfig(step_mode=FIXED, mu=1e12, rho=truth.rho, max_iterations=50)
    with pytest.raises(DivergenceError) as in_solve:
        solve(ensemble, y, config)
    xi, gamma = initialise(ensemble, y)
    state = state_at(ensemble, y, xi, gamma)
    fixed = (1e12, 1e12 * ensemble.m / float(xi @ xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise in place of the guard
        with pytest.raises(DivergenceError) as err:
            for _ in range(50):
                state = iterate(state, config, ensemble, y, fixed)
    assert err.value.iteration == in_solve.value.iteration > 1


@given(arrays(np.float64, st.integers(min_value=1, max_value=40),
              elements=st.sampled_from([np.inf, -np.inf, np.nan, 1.7e308, -1.7e308,
                                        5e-324, -5e-324, 0.0, 1.0])))
def test_finite_raises_exactly_on_a_non_finite_entry(v):
    with np.errstate(over="ignore", invalid="ignore"):  # as around every step
        if np.isfinite(v).all():
            assert solver._finite(v, np.zeros(v.size), 7) is v
        else:
            with pytest.raises(DivergenceError) as err:
                solver._finite(v, np.zeros(v.size), 7)
            assert err.value.iteration == 7


def test_solve_times_its_stages():
    inst = draw_instance(12, 6, 6, 0.3, seed=90)
    config = SolverConfig(rho=0.3, max_iterations=30)
    t0 = time.perf_counter()
    result = solve(inst.ensemble, inst.y, config)
    wall = time.perf_counter() - t0
    assert result.start_seconds >= 0.0 and result.iteration_seconds >= 0.0
    assert result.start_seconds + result.iteration_seconds <= wall
