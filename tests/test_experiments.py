import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import blindcal
from blindcal import fileio
from blindcal.errors import DimensionError, ParameterError, SingularityError
from blindcal.experiments import (PhaseGridSpec, RateComparisonSpec,
                                  build_instance, check_concentration, draw_gains,
                                  draw_instance, draw_signal_ball, draw_smooth_signal,
                                  least_squares_baseline, recovery_error,
                                  run_imaging_demo, run_init_study,
                                  run_phase_transition, run_rate_comparison,
                                  to_db)
from blindcal.geometry import draw_gain_perturbation
from blindcal.model import SensingEnsemble, generate_ensemble, sense
from blindcal.seeding import derive_seed
from blindcal.solver import SolverConfig, solve


# ---------------------------------------------------------------------------
# instance draws
# ---------------------------------------------------------------------------

def test_signal_ball_draws_inside():
    for seed in range(20):
        x = draw_signal_ball(16, seed)
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_smooth_signal_range():
    x = draw_smooth_signal(64, 3)
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert x.min() == 0.0 and x.max() == 1.0  # rescaled to span [0, 1]


def test_smooth_signal_of_one_entry_is_mid_range():
    np.testing.assert_array_equal(draw_smooth_signal(1, 3), [0.5])


def test_instance_reproducible():
    a = draw_instance(8, 4, 2, 0.3, seed=9)
    b = draw_instance(8, 4, 2, 0.3, seed=9)
    np.testing.assert_array_equal(a.truth.x, b.truth.x)
    np.testing.assert_array_equal(a.truth.d, b.truth.d)
    np.testing.assert_array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# phase transition
# ---------------------------------------------------------------------------

def test_underdetermined_cell_never_succeeds():
    spec = PhaseGridSpec(n=8, m=4, p_values=(1,), rho_values=(0.9,),
                         trials_per_cell=3, base_seed=0, max_iterations=300)
    result = run_phase_transition(spec)
    assert result.success_probability[0, 0] == 0.0


def test_easy_cell_succeeds():
    spec = PhaseGridSpec(n=16, m=8, p_values=(32,), rho_values=(1e-3,),
                         trials_per_cell=5, base_seed=0)
    result = run_phase_transition(spec)
    assert result.success_probability[0, 0] == 1.0


def test_default_stop_rule_recovers_every_identifiable_desk_trial():
    # the criterion-6 grid from p = 8, half its trials, under the relative
    # stop rule: an absolute 1e-7 stops many of these trials as converged
    # before they recover
    spec = PhaseGridSpec(n=64, m=16, p_values=(8, 16, 32, 64, 128, 256),
                         rho_values=(1e-3, 1e-2, 1e-1, 0.3, 0.6, 0.99),
                         trials_per_cell=5, zeta_db=-70.0, base_seed=606)
    assert spec.tolerance is None
    result = run_phase_transition(spec)
    assert result.success_probability.min() == 1.0
    assert all(t.stop_reason == "converged" for t in result.trials)


def test_grid_deterministic():
    spec = PhaseGridSpec(n=12, m=6, p_values=(2, 16), rho_values=(0.01, 0.5),
                         trials_per_cell=3, base_seed=7, max_iterations=500)
    a = run_phase_transition(spec)
    b = run_phase_transition(spec)
    np.testing.assert_array_equal(a.success_probability, b.success_probability)
    assert [t.error_db for t in a.trials] == [t.error_db for t in b.trials]


def test_workers_match_serial():
    spec = PhaseGridSpec(n=12, m=6, p_values=(2, 16), rho_values=(0.01,),
                         trials_per_cell=2, base_seed=3, max_iterations=300)
    serial = run_phase_transition(spec, workers=1)
    parallel = run_phase_transition(spec, workers=2)
    np.testing.assert_array_equal(serial.success_probability,
                                  parallel.success_probability)
    assert [t.error_db for t in serial.trials] == [t.error_db for t in parallel.trials]


def test_lazy_workers_after_a_lazy_sweep_in_the_parent_match_serial(monkeypatch):
    # forked workers inherit the parent's draw-ahead pool without its threads
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    sense(generate_ensemble(12, 6, 16, "gaussian", 5), np.ones(12), np.ones(6))
    spec = PhaseGridSpec(n=12, m=6, p_values=(2, 16), rho_values=(0.01,),
                         trials_per_cell=2, base_seed=3, max_iterations=100)
    serial = run_phase_transition(spec, workers=1)
    parallel = run_phase_transition(spec, workers=2)
    assert [replace(t, seconds=0.0) for t in serial.trials] == \
        [replace(t, seconds=0.0) for t in parallel.trials]


@pytest.mark.parametrize("bad, error", [
    (dict(p_values=()), ParameterError),
    (dict(rho_values=()), ParameterError),
    (dict(p_values=(4, 0)), DimensionError),
    (dict(rho_values=(0.1, 1.5)), ParameterError),
    (dict(trials_per_cell=0), ParameterError),
    (dict(zeta_db=1.0), ParameterError),
    (dict(n=8.5), DimensionError),
    (dict(m=16.5), DimensionError),
    (dict(p_values=(4, 4.5)), DimensionError),
    (dict(trials_per_cell=2.5), ParameterError),
    (dict(zeta_db=float("nan")), ParameterError),
    (dict(zeta_db=float("-inf")), ParameterError),
])
def test_grid_spec_rejects_bad_values(bad, error):
    match = "zeta_db must be finite and negative" if "zeta_db" in bad else None
    with pytest.raises(error, match=match):
        PhaseGridSpec(**bad)


def test_import_leaves_the_process_pool_unloaded():
    # the process pool loads only when a grid runs on more than one worker
    code = "import sys, blindcal.experiments; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blindcal.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_grid_rejects_zero_workers():
    spec = PhaseGridSpec(n=8, m=4, p_values=(4,), rho_values=(0.1,), trials_per_cell=1)
    with pytest.raises(ParameterError):
        run_phase_transition(spec, workers=0)


def test_trial_reproducible_from_indices():
    spec = PhaseGridSpec(n=12, m=6, p_values=(16,), rho_values=(0.01,),
                         trials_per_cell=2, base_seed=3, max_iterations=500)
    result = run_phase_transition(spec)
    # replay trial 1 of cell 0 directly from the derived seed
    seed = derive_seed(3, [("cell", 0), ("trial", 1)])
    inst = draw_instance(12, 6, 16, 0.01, seed)
    from blindcal.solver import LINE_SEARCH, SolverConfig, solve
    res = solve(inst.ensemble, inst.y,
                SolverConfig(step_mode=LINE_SEARCH, rho=0.01,
                             objective_tolerance=spec.tolerance,
                             max_iterations=500, record_trace=False),
                truth=inst.truth)
    replay_db = to_db(recovery_error(res.x_hat, res.d_hat, inst.truth))
    assert replay_db == result.trials[1].error_db


# ---------------------------------------------------------------------------
# least squares baseline
# ---------------------------------------------------------------------------

def test_baseline_recovers_with_identity_gains():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(12)
    ensemble = generate_ensemble(12, 6, 6, "gaussian", 12)
    y = sense(ensemble, x, np.ones(6))
    x_ls = least_squares_baseline(ensemble, y)
    assert np.linalg.norm(x_ls - x) <= 1e-8 * np.linalg.norm(x)


def test_baseline_matches_dense_solve():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(3)
    ensemble = generate_ensemble(3, 4, 2, "gaussian", 14)
    from blindcal.geometry import draw_gain_perturbation
    d = draw_gain_perturbation(4, 0.4, 15)
    y = sense(ensemble, x, d)
    x_ls = least_squares_baseline(ensemble, y)
    stacked = ensemble.stacked()
    a_flat = stacked.reshape(-1, 3)
    dense = np.linalg.solve(a_flat.T @ a_flat, a_flat.T @ y.ravel())
    np.testing.assert_allclose(x_ls, dense, atol=1e-8)


def test_baseline_suffers_model_error():
    inst = draw_instance(16, 8, 8, 0.99, seed=17)
    x_ls = least_squares_baseline(inst.ensemble, inst.y)
    xs = inst.truth.x_star
    assert np.linalg.norm(x_ls - xs) / np.linalg.norm(xs) >= 0.1


def test_baseline_of_zero_data_is_zero():
    ensemble = generate_ensemble(8, 4, 4, "gaussian", 19)
    x_ls = least_squares_baseline(ensemble, np.zeros((4, 4)))
    np.testing.assert_array_equal(x_ls, np.zeros(8))


def test_baseline_rejects_underdetermined():
    ensemble = generate_ensemble(16, 2, 2, "gaussian", 18)
    y = np.zeros((2, 2))
    with pytest.raises(SingularityError):
        least_squares_baseline(ensemble, y)


def test_baseline_rejects_underdetermined_before_any_pass(monkeypatch):
    # on a lazy ensemble each pass regenerates every snapshot
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    ensemble = generate_ensemble(16, 2, 2, "gaussian", 18)
    assert ensemble.stacked() is None
    with pytest.raises(SingularityError):
        least_squares_baseline(ensemble, np.ones((2, 2)))
    assert ensemble.operator_passes == 0


def _rotation(n: int, k: float) -> np.ndarray:
    """I + J with J antisymmetric, k on its 2x2 blocks: v.(I + J)v = |v|^2 > 0,
    but the operator is not symmetric, so conjugate gradients need not converge."""
    j = np.zeros((n, n))
    for i in range(0, n, 2):
        j[i, i + 1], j[i + 1, i] = -k, k
    return np.eye(n) + j


@pytest.mark.parametrize("operator, match, applications", [
    (lambda n: -np.eye(n), "not positive definite", 1),
    (lambda n: _rotation(n, 1.0), "stagnated", 50),  # no step improves on the start
    (lambda n: _rotation(n, 0.1), r"did not reach rtol=1e-10 in 60 iterations", 60),
], ids=["indefinite", "stalled", "budget"])
def test_baseline_singular_exits(monkeypatch, operator, match, applications):
    # a stand-in for the normal matrix G: the baseline applies G through gradients
    from blindcal.objective import GradientPair
    n, calls = 6, []
    g = operator(n)

    def apply(ensemble, y, point):
        calls.append(point[0])
        return GradientPair(g @ point[0], np.zeros(ensemble.m), np.zeros(ensemble.m))

    monkeypatch.setattr("blindcal.experiments.gradients", apply)
    rng = np.random.default_rng(19)
    ensemble = SensingEnsemble.from_matrices(rng.standard_normal((2, 4, n)))
    with pytest.raises(SingularityError, match=match):
        least_squares_baseline(ensemble, rng.standard_normal((2, 4)))
    assert len(calls) == applications


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

def test_concentration_zero_weights():
    out = check_concentration(8, 4, 3, "gaussian", np.zeros(4), trials=3)
    assert out["max_deviation"] == 0.0


def test_concentration_rejects_zero_trials():
    with pytest.raises(ParameterError):
        check_concentration(8, 4, 3, "gaussian", np.ones(4), trials=0)


def test_concentration_gates_the_dense_eigen_computation():
    with pytest.raises(DimensionError, match="n <= 512"):
        check_concentration(513, 4, 3, "gaussian", "ones", trials=1)


def test_concentration_named_weights():
    e1 = np.zeros(4)
    e1[0] = 1.0
    for name, theta in (("ones", np.ones(4)), ("e1", e1)):
        assert (check_concentration(8, 4, 3, "gaussian", name, trials=2, seed=1)
                == check_concentration(8, 4, 3, "gaussian", theta, trials=2, seed=1))
    with pytest.raises(ParameterError):
        check_concentration(8, 4, 3, "gaussian", "twos", trials=2)


def test_concentration_shrinks_with_p():
    small = check_concentration(32, 16, 100, "gaussian", np.ones(16), trials=10, seed=5)
    large = check_concentration(32, 16, 400, "gaussian", np.ones(16), trials=10, seed=6)
    ratio = small["mean_deviation"] / large["mean_deviation"]
    assert 1.6 <= ratio <= 2.4  # 1/sqrt(p) scaling, 20% slack


def test_concentration_uniform_over_weights():
    ones = check_concentration(32, 16, 100, "gaussian", np.ones(16), trials=10, seed=7)
    e1 = np.zeros(16)
    e1[0] = 1.0
    single = check_concentration(32, 16, 100, "gaussian", e1, trials=10, seed=8)
    # the bound is uniform in theta; a single-sensor weighting is no worse
    assert single["mean_deviation"] <= 1.5 * ones["mean_deviation"]


# ---------------------------------------------------------------------------
# imaging demo
# ---------------------------------------------------------------------------

def _write_test_image(path, side=16, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, side)
    img = np.empty((channels, side, side))
    for c in range(channels):
        field = (0.5 + 0.3 * np.outer(np.sin((c + 2) * np.pi * t), np.cos(3 * np.pi * t))
                 + 0.1 * rng.standard_normal((side, side)))
        img[c] = np.clip(field, 0.0, 1.0)
    fileio.write_image(path, img)
    return fileio.read_image(path)


def test_imaging_demo_grayscale(tmp_path):
    path = tmp_path / "scene.pgm"
    _write_test_image(str(path), side=16, channels=1, seed=1)
    out = tmp_path / "out"
    report = run_imaging_demo(str(path), m=16, p=32, rho=0.9, seed=2, tol=1e-7,
                              out_dir=str(out))
    assert report.error_db < -55.0
    assert report.ls_error_db > -15.0
    for name in ("x_hat.pgm", "d_hat.pgm", "report.json"):
        assert (out / name).exists()


def test_imaging_demo_color(tmp_path):
    path = tmp_path / "scene.ppm"
    _write_test_image(str(path), side=8, channels=3, seed=3)
    out = tmp_path / "out"
    report = run_imaging_demo(str(path), m=8, p=16, rho=0.5, seed=4, tol=1e-7,
                              out_dir=str(out))
    assert len(report.channels) == 3
    assert report.error_db < -55.0
    assert (out / "x_hat.ppm").exists()


def test_color_demo_draws_its_ensemble_once(tmp_path, monkeypatch):
    path = tmp_path / "scene.ppm"
    _write_test_image(str(path), side=8, channels=3, seed=3)
    draws = []
    original = SensingEnsemble._draw
    monkeypatch.setattr(SensingEnsemble, "_draw",
                        lambda self, l: draws.append(l) or original(self, l))
    run_imaging_demo(str(path), m=8, p=16, rho=0.5, seed=4, tol=1e-7)
    assert draws == list(range(16))


def test_color_demo_matches_per_channel_solves(tmp_path):
    path = tmp_path / "scene.ppm"
    img = _write_test_image(str(path), side=8, channels=3, seed=3)
    m, p, rho, seed, tol = 8, 16, 0.5, 4, 1e-7
    report = run_imaging_demo(str(path), m=m, p=p, rho=rho, seed=seed, tol=tol)
    config = SolverConfig(rho=rho, objective_tolerance=tol, record_trace=False)
    for ci, channel in enumerate(report.channels):
        inst = build_instance(img[ci].ravel(), draw_gains(m, rho, seed), rho, p, seed)
        result = solve(inst.ensemble, inst.y, config)
        x_ls = least_squares_baseline(inst.ensemble, inst.y)
        truth = inst.truth
        assert channel.signal_error_db == to_db(
            np.linalg.norm(result.x_hat - truth.x_star) / np.linalg.norm(truth.x_star))
        assert channel.gain_error_db == to_db(
            np.linalg.norm(result.d_hat - truth.d_star) / np.linalg.norm(truth.d_star))
        assert channel.ls_error_db == to_db(
            np.linalg.norm(x_ls - truth.x_star) / np.linalg.norm(truth.x_star))
        assert (channel.iterations, channel.stop_reason) == (result.iterations,
                                                             result.stop_reason)


def test_imaging_demo_rho_zero_matches_baseline(tmp_path):
    path = tmp_path / "scene.pgm"
    img = _write_test_image(str(path), side=16, channels=1, seed=5)
    report = run_imaging_demo(str(path), m=16, p=32, rho=0.0, seed=6, tol=1e-7)
    x = img[0].ravel()
    ensemble = generate_ensemble(x.size, 16, 32, "gaussian",
                                 derive_seed(6, [("ensemble", 0)]))
    y = sense(ensemble, x, np.ones(16))
    x_ls = least_squares_baseline(ensemble, y)
    rel = np.linalg.norm(report.x_hat[0].ravel() - x_ls) / np.linalg.norm(x_ls)
    assert rel < 1e-3  # both solve the same well-posed least squares


def test_gain_map_matches_entrywise(tmp_path):
    path = tmp_path / "scene.pgm"
    _write_test_image(str(path), side=16, channels=1, seed=7)
    report = run_imaging_demo(str(path), m=16, p=32, rho=0.9, seed=8, tol=1e-7)
    alpha = report.truth_d.sum() / report.truth_d.size
    entrywise = np.max(np.abs(alpha * report.d_hat - report.truth_d))
    entrywise_db = to_db(entrywise / np.max(np.abs(report.truth_d)))
    # l-inf error is within sqrt(m) of the l2-based reported level
    assert entrywise_db <= report.error_db + 10 * np.log10(report.truth_d.size)


# ---------------------------------------------------------------------------
# rate comparison and init study
# ---------------------------------------------------------------------------

def test_rate_comparison_small():
    spec = RateComparisonSpec(n=24, m=8, p=24, rho=0.3, seed=5, tolerance=1e-7,
                              mu=1e-3, max_iterations=100_000)
    result = run_rate_comparison(spec)
    assert result.line_search.stop_reason == "converged"
    assert result.fixed.stop_reason == "converged"
    assert result.line_search.iterations < result.fixed.iterations
    assert result.line_search_error_db < -70.0
    assert result.fixed_error_db < -70.0


def test_init_study_slope():
    result = run_init_study(n=16, m=8, p_values=(8, 32, 128, 512), trials=20,
                            rho=0.5, base_seed=2)
    assert -0.65 <= result.slope <= -0.35


@pytest.mark.parametrize("bad", [dict(trials=0), dict(p_values=(8,)), dict(trials=1.5),
                                 dict(p_values=(16, 16))])
def test_init_study_rejects_bad_values(bad):
    with pytest.raises(ParameterError):
        run_init_study(**dict(dict(n=8, m=4, p_values=(8, 16), trials=2), **bad))


@pytest.mark.parametrize("draw", [
    lambda seed: draw_signal_ball(4, seed),
    lambda seed: draw_smooth_signal(4, seed),
    lambda seed: draw_gain_perturbation(4, 0.3, seed),
], ids=["draw_signal_ball", "draw_smooth_signal", "draw_gain_perturbation"])
def test_sampler_takes_seed_mod_2_64(draw):
    np.testing.assert_array_equal(draw(-1), draw(2**64 - 1))
