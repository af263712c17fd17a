"""Desk-scale reproductions of the empirical studies.

Covers the exact-recovery phase transition over (p, rho), the randomized
imaging-system calibration demo with a least-squares baseline, the
line-search versus fixed-step rate comparison, the initialisation proximity
sweep, and the weighted-covariance concentration check. Every trial is
reproducible from (base_seed, cell index, trial index) alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio
from .errors import (BlindcalError, DimensionError, ParameterError, SingularityError,
                     check_array, check_count, check_rho, check_size)
from .geometry import draw_gain_perturbation
from .model import GroundTruth, SensingEnsemble, sense
from .objective import adjoint, gradients
from .seeding import derive_seed
from .solver import CONVERGED, FIXED, LINE_SEARCH, SolveResult, SolverConfig, initialise, solve


def to_db(ratio: float) -> float:
    """Relative-error ratio in decibels: 20 log10(r)."""
    if ratio <= 0.0:
        return -np.inf
    return 20.0 * float(np.log10(ratio))


def _relative_error(v, ref) -> float:
    return float(np.linalg.norm(v - ref) / np.linalg.norm(ref))


def recovery_error(x_hat, d_hat, truth: GroundTruth) -> float:
    """max of the two relative l2 errors against the canonical (x*, d*)."""
    return max(_relative_error(x_hat, truth.x_star), _relative_error(d_hat, truth.d_star))


def draw_gains(m: int, rho: float, seed: int) -> np.ndarray:
    """Gains on the zero-sum l-infinity sphere of radius rho, drawn from
    ``derive_seed(seed, [("gains", 0)])``; identity gains when rho = 0."""
    if rho == 0.0:
        return np.ones(check_size(m, "m"))
    return draw_gain_perturbation(m, rho, derive_seed(seed, [("gains", 0)]))


def draw_signal_ball(n: int, seed: int) -> np.ndarray:
    """Uniform draw from the n-dimensional unit l2 ball.

    Gaussian direction scaled by radius U^(1/n); this is the natural reading
    of "x in the unit ball" when no distribution is stated.
    """
    n = check_size(n, "n")
    rng = np.random.default_rng(derive_seed(seed))
    while True:
        g = rng.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            break
    return (rng.uniform() ** (1.0 / n) / norm) * g


def draw_smooth_signal(n: int, seed: int) -> np.ndarray:
    """Smooth image-like signal with entries in [0, 1].

    Random mixture of the 8 lowest-frequency cosines rescaled to span [0, 1];
    its l2 norm grows like sqrt(n), matching pixel-valued imagery rather than
    unit-ball draws.
    """
    n = check_size(n, "n")
    rng = np.random.default_rng(derive_seed(seed))
    t = np.arange(n) / n
    x = np.zeros(n)
    for k in range(1, 9):
        x += rng.standard_normal() / k * np.cos(np.pi * k * t + rng.uniform(0, 2 * np.pi))
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.full(n, 0.5)
    return (x - lo) / (hi - lo)


@dataclass
class Instance:
    truth: GroundTruth
    ensemble: SensingEnsemble
    y: np.ndarray


def build_instance(x, d, rho: float, p: int, seed: int,
                   distribution: str = "gaussian") -> Instance:
    """The instance sensing (x, d) through p snapshots of an ensemble drawn
    from ``derive_seed(seed, [("ensemble", 0)])``."""
    truth = GroundTruth(x=x, d=d, rho=rho)
    ensemble = SensingEnsemble(truth.n, truth.m, p, distribution,
                               derive_seed(seed, [("ensemble", 0)]))
    return Instance(truth=truth, ensemble=ensemble, y=sense(ensemble, truth.x, truth.d))


def draw_instance(n: int, m: int, p: int, rho: float, seed: int,
                  distribution: str = "gaussian") -> Instance:
    """Seeded random problem instance: signal in the unit ball, gains from
    :func:`draw_gains`."""
    x = draw_signal_ball(n, derive_seed(seed, [("signal", 0)]))
    return build_instance(x, draw_gains(m, rho, seed), rho, p, seed, distribution)


# ---------------------------------------------------------------------------
# Empirical phase transition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseGridSpec:
    n: int = 64
    m: int = 16
    p_values: tuple = (4, 8, 16, 32, 64, 128, 256)
    rho_values: tuple = (1e-3, 1e-2, 1e-1, 0.3, 0.6, 0.99)
    trials_per_cell: int = 10
    zeta_db: float = -70.0
    base_seed: int = 0
    tolerance: float | None = SolverConfig.objective_tolerance
    max_iterations: int = 3000

    def __post_init__(self):
        if not self.p_values or not self.rho_values:
            raise ParameterError("p_values and rho_values must be non-empty")
        check_size(self.n, "n")
        check_size(self.m, "m")
        for p in self.p_values:
            check_size(p, "p value")
        for rho in self.rho_values:
            check_rho(rho, "rho value")
        check_count(self.trials_per_cell, "trials_per_cell")
        if not -np.inf < self.zeta_db < 0.0:  # nan fails too
            raise ParameterError(f"zeta_db must be finite and negative, got {self.zeta_db!r}")


@dataclass
class TrialOutcome:
    cell: int
    p: int
    rho: float
    trial: int
    success: bool
    error_db: float
    iterations: int
    stop_reason: str
    seed: int
    objective: float  # final f; nan when the solve raised
    operator_passes: int
    underdetermined: bool  # the trial's SensingEnsemble.underdetermined
    seconds: float  # wall time of the trial, instance draw included


@dataclass
class PhaseGridResult:
    spec: PhaseGridSpec
    success_probability: np.ndarray  # (len(p_values), len(rho_values))
    trials: list[TrialOutcome]


def _phase_trial(args) -> TrialOutcome:
    t0 = time.perf_counter()
    spec, cell, t = args
    ip, ir = divmod(cell, len(spec.rho_values))
    p, rho = spec.p_values[ip], spec.rho_values[ir]
    seed = derive_seed(spec.base_seed, [("cell", cell), ("trial", t)])
    inst = draw_instance(spec.n, spec.m, p, rho, seed)
    passes0 = inst.ensemble.operator_passes
    config = SolverConfig(rho=rho, objective_tolerance=spec.tolerance,
                          max_iterations=spec.max_iterations, record_trace=False)
    try:
        # untraced: solve only checks truth's shapes, but benchmarks/workloads.py reads it
        result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
        err = recovery_error(result.x_hat, result.d_hat, inst.truth)
        success, err_db = err < 10.0 ** (spec.zeta_db / 20.0), to_db(err)
        iterations, stop, f = result.iterations, result.stop_reason, result.objective
    except BlindcalError as exc:  # a diverging trial is a failure, not an abort
        success, err_db, iterations, stop, f = False, np.inf, 0, f"error: {exc}", np.nan
    return TrialOutcome(cell, p, rho, t, success, err_db, iterations, stop, seed, f,
                        inst.ensemble.operator_passes - passes0, inst.ensemble.underdetermined,
                        time.perf_counter() - t0)


def run_phase_transition(spec: PhaseGridSpec, workers: int = 1) -> PhaseGridResult:
    """Success probability of exact recovery over the (p, rho) grid.

    Success means the max relative error of (x_hat, d_hat) against the
    canonical truth falls below 10^(zeta_db / 20) after a line-search solve.
    """
    workers = check_count(workers, "workers")
    shape = (len(spec.p_values), len(spec.rho_values), spec.trials_per_cell)
    tasks = [(spec, cell, t) for cell in range(shape[0] * shape[1]) for t in range(shape[2])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_phase_trial, tasks, chunksize=1))
    else:
        outcomes = [_phase_trial(task) for task in tasks]

    # tasks are cell-major and map keeps their order
    successes = np.array([out.success for out in outcomes]).reshape(shape)
    prob = successes.sum(axis=2) / spec.trials_per_cell
    return PhaseGridResult(spec=spec, success_probability=prob, trials=outcomes)


# ---------------------------------------------------------------------------
# Least-squares baseline (gains pinned to one)
# ---------------------------------------------------------------------------

def least_squares_baseline(ensemble, y) -> np.ndarray:
    """Minimise f(xi, 1) by conjugate gradients on the normal equations.

    Solves G xi = b with G = (1/mp) sum_l A_l^T A_l and b = (1/mp) sum_l
    A_l^T y_l, matrix free, down to relative residual 1e-10 within 10 n
    iterations. Non-finite snapshots raise ParameterError; underdetermined
    systems (mp < n), residual stagnation and an exhausted budget raise
    SingularityError.
    """
    n, m, p = ensemble.n, ensemble.m, ensemble.p
    rtol, max_iterations = 1e-10, 10 * n
    scale = 1.0 / (m * p)
    y = check_array(y, (p, m), "snapshots", finite=True)
    if m * p < n:
        raise SingularityError(f"normal equations underdetermined: mp = {m * p} < n = {n}")
    b = scale * adjoint(ensemble, y)

    zeros, ones = np.zeros((p, m)), np.ones(m)

    def apply(v):  # G v is the signal gradient of f(., 1) with y = 0: one pass
        return gradients(ensemble, zeros, (v, ones)).grad_xi

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)

    x = np.zeros(n)
    r = b.copy()
    d = r.copy()
    rr = float(r @ r)
    best = np.sqrt(rr) / b_norm
    stalled = 0
    for _ in range(max_iterations):
        gd = apply(d)
        dgd = float(d @ gd)
        if dgd <= 0.0:
            raise SingularityError("normal matrix not positive definite along search direction")
        alpha = rr / dgd
        x = x + alpha * d
        r = r - alpha * gd
        rr_new = float(r @ r)
        rel = np.sqrt(rr_new) / b_norm
        if rel <= rtol:
            return x
        if rel < best * 0.999999:
            best = rel
            stalled = 0
        else:
            stalled += 1
            if stalled >= 50:
                raise SingularityError(
                    f"conjugate gradients stagnated at relative residual {rel:.3e}")
        d = r + (rr_new / rr) * d
        rr = rr_new
    raise SingularityError(
        f"conjugate gradients did not reach rtol={rtol:g} in {max_iterations} iterations")


# ---------------------------------------------------------------------------
# Randomized imaging-system calibration demo
# ---------------------------------------------------------------------------

@dataclass
class ChannelReport:
    signal_error_db: float
    gain_error_db: float
    ls_error_db: float
    iterations: int
    stop_reason: str


@dataclass
class DemoReport:
    error_db: float
    ls_error_db: float
    iterations: int
    stop_reason: str
    channels: list[ChannelReport]
    x_hat: np.ndarray  # (c, h, w)
    d_hat: np.ndarray  # gain estimate of the first channel, length m
    truth_d: np.ndarray

    def summary(self) -> dict:
        return {
            "error_db": self.error_db,
            "ls_error_db": self.ls_error_db,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "channels": [asdict(c) for c in self.channels],
        }


def run_imaging_demo(image_path, m: int, p: int | None, rho: float, seed: int = 0,
                     tol: float | None = None,
                     max_iterations: int = SolverConfig.max_iterations,
                     out_dir=None) -> DemoReport:
    """Blind calibration of an m-sensor array imaging a fixed picture.

    Each colour channel is flattened to a signal of length n = h * w and
    sensed through one ensemble, drawn once from ``seed`` by
    :func:`build_instance` (so every channel sees the same matrices), and one
    shared gain profile of maximum deviation rho; p = None takes mp = 2n
    snapshots, and tol = None stops on the solver's scale-free default rule.
    Channels are solved independently; the baseline fixes the gains to one
    and solves the resulting least-squares problem, fully absorbing the
    model error. With out_dir set, the reconstruction, the recovered gain
    map, and a JSON error report are written there.
    """
    m = check_size(m, "m")
    config = SolverConfig(rho=rho, objective_tolerance=tol, max_iterations=max_iterations,
                          record_trace=False)
    image = fileio.read_image(image_path)
    c, h, w = image.shape
    n = h * w
    if p is None:
        p = max(1, int(round(2 * n / m)))
    d = draw_gains(m, rho, seed)

    channels = []
    x_hat = np.empty_like(image)
    stop = CONVERGED
    inst = build_instance(image[0].ravel(), d, rho, p, seed)
    for ci in range(c):
        if ci:  # later channels sense through the first channel's ensemble
            truth = GroundTruth(x=image[ci].ravel(), d=d, rho=rho)
            inst = Instance(truth, inst.ensemble, sense(inst.ensemble, truth.x, truth.d))
        # untraced: solve only checks truth's shapes, but benchmarks/workloads.py reads it
        result = solve(inst.ensemble, inst.y, config, truth=inst.truth)
        x_ls = least_squares_baseline(inst.ensemble, inst.y)
        channels.append(ChannelReport(
            signal_error_db=to_db(_relative_error(result.x_hat, inst.truth.x_star)),
            gain_error_db=to_db(_relative_error(result.d_hat, inst.truth.d_star)),
            ls_error_db=to_db(_relative_error(x_ls, inst.truth.x_star)),
            iterations=result.iterations, stop_reason=result.stop_reason))
        x_hat[ci] = result.x_hat.reshape(h, w)
        if not ci:
            d_hat = result.d_hat
        if result.stop_reason != CONVERGED:
            stop = result.stop_reason

    error_db = max(max(ch.signal_error_db, ch.gain_error_db) for ch in channels)
    ls_error_db = max(ch.ls_error_db for ch in channels)
    report = DemoReport(error_db=error_db, ls_error_db=ls_error_db,
                        iterations=max(ch.iterations for ch in channels),
                        stop_reason=stop, channels=channels, x_hat=x_hat,
                        d_hat=d_hat, truth_d=d)
    if out_dir is not None:
        _write_demo_outputs(report, out_dir)
    return report


def _write_demo_outputs(report: DemoReport, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    c = report.x_hat.shape[0]
    suffix = "pgm" if c == 1 else "ppm"
    fileio.write_image(os.path.join(out_dir, f"x_hat.{suffix}"),
                       np.clip(report.x_hat, 0.0, 1.0))
    # gain map rendered min-to-max over 8 bits, square layout when possible
    d = report.d_hat
    side = int(round(np.sqrt(d.size)))
    shape = (side, side) if side * side == d.size else (1, d.size)
    span = float(d.max() - d.min())
    scaled = (d - d.min()) / span if span > 0 else np.full(d.size, 0.5)
    fileio.write_image(os.path.join(out_dir, "d_hat.pgm"),
                       scaled.reshape(1, *shape))
    fileio.write_report_json(os.path.join(out_dir, "report.json"), report.summary())


# ---------------------------------------------------------------------------
# Weighted covariance concentration
# ---------------------------------------------------------------------------

# Weightings check_concentration accepts by name: all sensors, or the first.
NAMED_WEIGHTS = {"ones": lambda m: np.ones(m), "e1": lambda m: np.eye(1, m)[0]}


def check_concentration(n: int, m: int, p: int, distribution: str, theta,
                        trials: int, seed: int = 0) -> dict:
    """Spectral deviation of the theta-weighted covariance from its mean.

    For each trial the statistic is
    || (1/mp) sum_{i,l} theta_i (a_il a_il^T - I) ||_2 / ||theta||_inf
    (zero when theta = 0). ``theta`` holds m weights or names one of
    NAMED_WEIGHTS. Returns the max and mean over trials.
    """
    trials = check_count(trials, "trials")
    n, m = check_size(n, "n"), check_size(m, "m")
    if n > 512:
        raise DimensionError("dense eigen-computation gated to n <= 512")
    if isinstance(theta, str):
        if theta not in NAMED_WEIGHTS:
            raise ParameterError(f"unknown weighting {theta!r}; expected weights "
                                 f"or one of {sorted(NAMED_WEIGHTS)}")
        theta = NAMED_WEIGHTS[theta](m)
    theta = check_array(theta, (m,), "theta", finite=True)
    theta_inf = float(np.max(np.abs(theta)))
    deviations = []
    for t in range(trials):
        # drawn lazily, so the first trial checks p, the distribution and the seed
        ensemble = SensingEnsemble(n, m, p, distribution, derive_seed(seed, [("trial", t)]))
        if theta_inf == 0.0:
            deviations.append(0.0)
            continue
        acc = np.zeros((n, n))
        for a in ensemble.iter_matrices():
            acc += a.T @ (theta[:, None] * a)
        acc -= p * float(np.sum(theta)) * np.eye(n)
        acc /= m * p
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (acc + acc.T)))))
        deviations.append(spectral / theta_inf)
    return {
        "max_deviation": float(np.max(deviations)),
        "mean_deviation": float(np.mean(deviations)),
        "deviations": [float(v) for v in deviations],
    }


# ---------------------------------------------------------------------------
# Line search versus fixed step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateComparisonSpec:
    """Scaled replica of the imaging-system comparison: image-like signal,
    strongly perturbed gains.

    The snapshot count is chosen well above the identifiability limit
    (mp = 16 n) so the fixed-step run is not throttled by the worst
    eigenvalue of the sensing Gram matrix and finishes in seconds.
    """

    n: int = 64
    m: int = 16
    p: int = 64
    rho: float = 0.5
    seed: int = 0
    tolerance: float | None = SolverConfig.objective_tolerance
    mu: float = 1e-4
    max_iterations: int = 400_000


@dataclass
class RateComparisonResult:
    line_search: SolveResult
    fixed: SolveResult
    line_search_error_db: float
    fixed_error_db: float


def draw_imaging_instance(n: int, m: int, p: int, rho: float, seed: int) -> Instance:
    """Like draw_instance but with a smooth pixel-valued signal in [0, 1]."""
    x = draw_smooth_signal(n, derive_seed(seed, [("signal", 0)]))
    return build_instance(x, draw_gains(m, rho, seed), rho, p, seed)


def run_rate_comparison(spec: RateComparisonSpec) -> RateComparisonResult:
    """Solve one seeded instance twice: exact line searches vs fixed steps.

    Both runs share the instance and the stop tolerance; the fixed run uses
    mu_xi = mu and mu_gamma = mu * m / ||xi_0||^2.
    """
    inst = draw_imaging_instance(spec.n, spec.m, spec.p, spec.rho, spec.seed)
    configs = [SolverConfig(step_mode=mode, mu=spec.mu if mode == FIXED else None,
                            rho=spec.rho, objective_tolerance=spec.tolerance,
                            max_iterations=spec.max_iterations)
               for mode in (LINE_SEARCH, FIXED)]  # both checked before the first solve
    runs = [solve(inst.ensemble, inst.y, config, truth=inst.truth) for config in configs]
    return RateComparisonResult(
        *runs, *(to_db(recovery_error(run.x_hat, run.d_hat, inst.truth)) for run in runs))


# ---------------------------------------------------------------------------
# Initialisation proximity sweep
# ---------------------------------------------------------------------------

@dataclass
class InitStudyResult:
    mp_values: list[int]
    mean_relative_error: list[float]
    slope: float


def run_init_study(n: int = 32, m: int = 16,
                   p_values=(16, 32, 64, 128, 256, 512, 1024),
                   trials: int = 50, rho: float = 0.5,
                   base_seed: int = 0) -> InitStudyResult:
    """Mean relative error of the backprojection start versus mp.

    Fits the regression slope of log error against log(mp); the concentration
    analysis predicts a slope near -1/2.
    """
    trials = check_count(trials, "trials")
    if len(set(p_values)) < 2:
        raise ParameterError("the slope fit needs at least two distinct p values")
    mp_values = []
    means = []
    for ip, p in enumerate(p_values):
        errors = []
        for t in range(trials):
            seed = derive_seed(base_seed, [("point", ip), ("trial", t)])
            inst = draw_instance(n, m, p, rho, seed)
            xi0, _ = initialise(inst.ensemble, inst.y)
            errors.append(_relative_error(xi0, inst.truth.x_star))
        mp_values.append(m * p)
        means.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log(mp_values), np.log(means), 1)[0])
    return InitStudyResult(mp_values=mp_values, mean_relative_error=means, slope=slope)
