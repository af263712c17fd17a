"""Every public entry point rejects a bad size, count, seed, rho, tolerance
or step: DimensionError for sizes, ParameterError for everything else. Never
a bare TypeError, and never silently (NaN included)."""

import numpy as np
import pytest

from blindcal import fileio
from blindcal.errors import (DimensionError, ParameterError, check_array,
                             check_count, check_positive, check_rho, check_seed, check_size)
from blindcal.experiments import (PhaseGridSpec, RateComparisonSpec, check_concentration,
                                  draw_instance, draw_signal_ball, draw_smooth_signal,
                                  run_imaging_demo, run_init_study, run_phase_transition,
                                  run_rate_comparison)
from blindcal.geometry import NeighbourhoodSpec, draw_gain_perturbation, project_C_rho
from blindcal.model import GroundTruth, SensingEnsemble, generate_ensemble
from blindcal.seeding import derive_seed
from blindcal.objective import gradients
from blindcal.solver import (FIXED, LINE_SEARCH, SolverConfig, SolverState, initialise, iterate,
                             solve)

NAN, INF = float("nan"), float("inf")

# The error and the bad values of each kind of argument. A "list" argument
# holds values of the kind, and gets the bad value as its second entry.
BAD = {
    "size": (DimensionError, (2.5, 8.0, NAN, 0)),
    "count": (ParameterError, (2.5, NAN, 0)),
    "seed": (ParameterError, (1.5, 2.0, NAN)),
    "rho": (ParameterError, (1.0, -0.1, NAN)),
    "positive": (ParameterError, (0.0, INF, NAN)),
    "negative": (ParameterError, (0.0, -INF, NAN)),
    "nonnegative": (ParameterError, (-0.1, -INF, NAN)),
    "step_mode": (ParameterError, ("sideways",)),
}


def _scene(tmp):
    path = tmp / "scene.pgm"
    fileio.write_image(path, np.full((1, 2, 2), 0.5))
    return path


def _grid(workers=1, **spec):
    return run_phase_transition(PhaseGridSpec(**spec), workers=workers)


_SPEC = dict(n=4, m=2, p_values=(4,), rho_values=(0.1,), trials_per_cell=1,
             max_iterations=5)

# name, call(tmp, **kwargs), valid kwargs, {argument: kind}
ENTRY_POINTS = [
    ("generate_ensemble", lambda tmp, **k: generate_ensemble(**k),
     dict(n=8, m=4, p=2, seed=0), dict(n="size", m="size", p="size", seed="seed")),
    ("SensingEnsemble", lambda tmp, **k: SensingEnsemble(**k),
     dict(n=8, m=4, p=2, seed=0), dict(n="size", m="size", p="size", seed="seed")),
    ("derive_seed", lambda tmp, base, index: derive_seed(base, [("trial", index)]),
     dict(base=0, index=0), dict(base="seed", index="seed")),
    ("GroundTruth", lambda tmp, **k: GroundTruth(**k),
     dict(x=np.ones(3), d=np.ones(2), rho=0.3), dict(rho="rho")),
    ("project_C_rho", lambda tmp, **k: project_C_rho(**k),
     dict(gamma=np.ones(3), rho=0.3), dict(rho="rho")),
    ("NeighbourhoodSpec", lambda tmp, **k: NeighbourhoodSpec(**k),
     dict(kappa=0.1, rho=0.3, x_star_norm=1.0),
     dict(rho="rho", kappa="nonnegative", x_star_norm="nonnegative")),
    ("SolverConfig", lambda tmp, **k: SolverConfig(**k),
     dict(step_mode=FIXED, mu=1e-3, rho=0.3, objective_tolerance=1e-7, max_iterations=10),
     dict(step_mode="step_mode", mu="positive", rho="rho", objective_tolerance="positive",
          max_iterations="count")),
    ("PhaseGridSpec", lambda tmp, **k: PhaseGridSpec(**k),
     dict(_SPEC, zeta_db=-70.0), dict(n="size", m="size", p_values="size list",
                                     rho_values="rho list", trials_per_cell="count",
                                     zeta_db="negative")),
    # the grid's solver settings and seed are checked where the trials use them
    ("run_phase_transition", lambda tmp, **k: _grid(**k),
     dict(_SPEC, workers=1, base_seed=0, tolerance=1e-7),
     dict(workers="count", base_seed="seed", tolerance="positive", max_iterations="count")),
    ("run_imaging_demo", lambda tmp, **k: run_imaging_demo(_scene(tmp), **k),
     dict(m=4, p=None, rho=0.3, seed=0, tol=1e-6, max_iterations=5),
     dict(m="size", p="size", rho="rho", seed="seed", tol="positive",
          max_iterations="count")),
    ("check_concentration", lambda tmp, **k: check_concentration(**k),
     dict(n=4, m=2, p=3, distribution="gaussian", theta="ones", trials=2, seed=0),
     dict(n="size", m="size", p="size", trials="count", seed="seed")),
    ("run_init_study", lambda tmp, **k: run_init_study(**k),
     dict(n=4, m=2, p_values=(4, 8), trials=1, rho=0.3, base_seed=0),
     dict(n="size", m="size", p_values="size list", trials="count", rho="rho",
          base_seed="seed")),
    ("run_rate_comparison", lambda tmp, **k: run_rate_comparison(RateComparisonSpec(**k)),
     dict(n=8, m=4, p=8, rho=0.3, seed=0, tolerance=1e-7, mu=1e-3, max_iterations=5),
     dict(n="size", m="size", p="size", rho="rho", seed="seed", tolerance="positive",
          mu="positive", max_iterations="count")),
    ("draw_instance", lambda tmp, **k: draw_instance(**k),
     dict(n=8, m=4, p=2, rho=0.3, seed=0),
     dict(n="size", m="size", p="size", rho="rho", seed="seed")),
    ("draw_signal_ball", lambda tmp, **k: draw_signal_ball(**k),
     dict(n=4, seed=1), dict(n="size", seed="seed")),
    ("draw_smooth_signal", lambda tmp, **k: draw_smooth_signal(**k),
     dict(n=4, seed=1), dict(n="size", seed="seed")),
    ("draw_gain_perturbation", lambda tmp, **k: draw_gain_perturbation(**k),
     dict(m=4, rho=0.3, seed=1), dict(m="size", seed="seed")),
]


def _bad_cases():
    for entry, call, valid, kinds in ENTRY_POINTS:
        for arg, kind in kinds.items():
            error, values = BAD[kind.split()[0]]
            for v in values:
                value = (valid[arg][0], v) if kind.endswith(" list") else v
                yield pytest.param(call, dict(valid, **{arg: value}), error,
                                   id=f"{entry}-{arg}={v!r}")


@pytest.mark.parametrize("call, kwargs", [pytest.param(call, valid, id=entry)
                                          for entry, call, valid, _ in ENTRY_POINTS])
def test_entry_point_accepts_valid_arguments(tmp_path, call, kwargs):
    call(tmp_path, **kwargs)  # so that each bad case below fails on its one bad value


@pytest.mark.parametrize("call, kwargs, error", _bad_cases())
def test_entry_point_rejects_bad_argument(tmp_path, call, kwargs, error):
    with pytest.raises(error):
        call(tmp_path, **kwargs)


def test_checkers_return_the_computed_form():
    assert type(check_size(np.int64(5), "n")) is int and check_size(np.uint8(3), "p") == 3
    assert check_count(np.int32(2), "trials") == 2
    assert check_seed(-7, "seed") == -7 and check_seed(2**70, "seed") == 2**70
    assert check_rho(0.0) == 0.0 and check_positive(1e-300, "tol") == 1e-300
    a = check_array([1, 2], (2,), "v")
    assert a.dtype == float and a.shape == (2,)


@pytest.mark.parametrize("call", [
    lambda: check_positive(None, "mu"), lambda: check_seed("1", "seed"),
    lambda: check_count(None, "trials"), lambda: check_array([1.0, NAN], (2,), "x", finite=True),
], ids=["positive-None", "seed-str", "count-None", "array-nan"])
def test_checkers_raise_parameter_error_on_non_numbers(call):
    with pytest.raises(ParameterError):
        call()


def _carried_start(inst):
    """The start state of a solve of inst, carrying its evaluation."""
    xi0, gamma0 = initialise(inst.ensemble, inst.y)
    grads = gradients(inst.ensemble, inst.y, (xi0, gamma0))
    return SolverState(xi0, gamma0, 0, grads.objective, evaluation=grads)


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", ["solve", "initialise", "least_squares_baseline", "iterate"])
def test_non_finite_snapshot_is_parameter_error(entry, bad):
    from blindcal.experiments import least_squares_baseline
    inst = draw_instance(8, 4, 6, 0.3, seed=5)
    y = inst.y.copy()
    y[2, 1] = bad
    calls = {"solve": lambda: solve(inst.ensemble, y, SolverConfig(rho=0.3)),
             "initialise": lambda: initialise(inst.ensemble, y),
             "least_squares_baseline": lambda: least_squares_baseline(inst.ensemble, y),
             "iterate": lambda: iterate(_carried_start(inst), SolverConfig(rho=0.3),
                                        inst.ensemble, y)}
    with pytest.raises(ParameterError, match="snapshots"):
        calls[entry]()


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "lazy"])
def test_iterate_from_a_carried_state_checks_the_snapshot_shape(monkeypatch, cached):
    if not cached:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(16, 4, 8, 0.3, seed=1)
    assert (inst.ensemble.stacked() is not None) == cached
    with pytest.raises(DimensionError, match="snapshots"):
        iterate(_carried_start(inst), SolverConfig(rho=0.3), inst.ensemble, inst.y[0])


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "lazy"])
@pytest.mark.parametrize("field, name", [pytest.param(*pair, id=pair[0]) for pair in (
    ("xi", "xi"), ("gamma", "gamma"), ("ax", "carried A xi"), ("grad_xi", "carried grad_xi"),
    ("grad_gamma_projected", "carried P grad_gamma"))])
def test_iterate_checks_the_shapes_of_a_carried_state(monkeypatch, field, name, cached):
    if not cached:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(16, 4, 8, 0.3, seed=1)
    assert (inst.ensemble.stacked() is not None) == cached
    state = _carried_start(inst)
    holder = state if field in ("xi", "gamma") else state.evaluation
    setattr(holder, field, getattr(holder, field)[:3])
    with pytest.raises(DimensionError, match=f"^{name} must have shape"):
        iterate(state, SolverConfig(rho=0.3), inst.ensemble, inst.y)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "lazy"])
@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED])
def test_solve_checks_the_snapshots_for_finite_entries_once(monkeypatch, mode, cached):
    if not cached:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 0)
    inst = draw_instance(16, 4, 8, 0.3, seed=1)
    assert (inst.ensemble.stacked() is not None) == cached
    calls = []

    def spy(value, shape, name, finite=False):
        calls.append((name, finite))
        return check_array(value, shape, name, finite)

    for module in ("solver", "objective"):
        monkeypatch.setattr(f"blindcal.{module}.check_array", spy)
    config = SolverConfig(step_mode=mode, mu=1e-3, rho=0.3, objective_tolerance=1e-30,
                          max_iterations=5)
    assert solve(inst.ensemble, inst.y, config).iterations == 5
    assert calls.count(("snapshots", True)) == 1


def test_fixed_step_solve_from_a_zero_backprojection_is_parameter_error():
    # A^T y = 0 while f0 = 0.5, so the gain step mu * m / ||xi_0||^2 has no scale
    ensemble = SensingEnsemble.from_matrices(np.array([[[1.0], [1.0]]]))
    with pytest.raises(ParameterError, match="zero initial signal estimate"):
        solve(ensemble, np.array([[1.0, -1.0]]), SolverConfig(step_mode=FIXED, mu=1e-3))
