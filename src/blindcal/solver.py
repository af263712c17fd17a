"""Projected gradient descent for joint signal/gain recovery.

The solver initialises the signal with the backprojection average
``xi_0 = (1/mp) sum_l A_l^T y_l`` (an unbiased estimate of the canonical
solution) and the gains with the all-ones vector, then descends f with the
signal gradient and the zero-sum-projected gain gradient. Steps come either
from exact per-block line searches or from a fixed step pair
``(mu, mu * m / ||xi_0||^2)``; each gain update may be re-projected onto
C_rho. A start below the objective tolerance has converged. Otherwise one
stop block decides before each step, in this order: the budget is spent
(max_iterations), f fell by less than STAGNATION_RTOL (relative) over the
last STAGNATION_WINDOW iterations (stagnated), else the step is taken and
the solve has converged if the objective stepped from was below the
tolerance.

The tolerance is ``objective_tolerance`` if given, else the scale-free
``RELATIVE_TOLERANCE * ||y||^2 / (2mp)`` (f at a zero signal), computed once
per solve; all-zero data (f0 = 0) has converged at the start under either
and in either step mode, as the fixed step pair is derived only for a solve
that steps.
On an underdetermined ensemble (m*p < n + m - 1,
``SensingEnsemble.underdetermined``) data that is fit does not identify x
and d, so a stop that would be CONVERGED is UNDERDETERMINED; budget and
stagnation stops keep their reasons.

Note on the line searches: each step is the exact minimiser of the 1-d
quadratic along the descent direction, computed in closed form from the
residuals. Because the directions are the gradient blocks themselves, the
numerators reduce to mp times the squared direction norms.

Operator cost: every iterate is evaluated once (f, A xi and both
gradients) and the state carries that evaluation into the next step. The
gain step needs only the carried A xi; one pass over the operator then gives
A g and the new point's evaluation, in either step mode and on either shape,
with A xi' = A xi - mu_xi A g by recurrence: a cached pass reads the stack
twice, a lazy pass makes three block products per regenerated snapshot. A
k-iteration solve, with the start's adjoint and evaluation, applies the
operator exactly k + 2 times; a zero direction still costs its pass.

Allocation and floating-point state: the descent loop, ``_descend``, is
built once per solve and run for one step by ``iterate``, on y and a state
its caller checked. It allocates its work arrays and enters
``np.errstate(over="ignore", invalid="ignore")`` once. The iterate, its
evaluation and the steps are its local variables, which a trace record
takes as values; it writes no state it is handed and builds the returned
``SolverState`` and ``GradientPair`` once, at the stop. An iteration
allocates vectors of length n or m only (the new iterate, the projection's
temporaries, A^T (gamma * r), the gradients). Overflow, and its inf - inf,
signals divergence: a non-finite iterate or objective raises DivergenceError.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import (DivergenceError, ParameterError, TheoryRangeWarning, check_array,
                     check_count, check_positive, check_rho)
from .model import GroundTruth
from .objective import GradientPair, adjoint, forward, gradients, residual_block, residual_terms

LINE_SEARCH = "line_search"
FIXED = "fixed"

CONVERGED = "converged"
UNDERDETERMINED = "underdetermined"  # CONVERGED on an underdetermined ensemble
MAX_ITERATIONS = "max_iterations"
STAGNATED = "stagnated"

# Trace thinning: record every iteration up to this count, then every 10th.
TRACE_DENSE_LIMIT = 10_000
# Trace distances are computed once the pending iterates hold this many
# cells (n + m per record).
TRACE_CHUNK_CELLS = 1 << 14

# Stagnation: stop when f fell by less than STAGNATION_RTOL (relative) over
# the last STAGNATION_WINDOW iterations.
STAGNATION_WINDOW = 100
STAGNATION_RTOL = 1e-14

# Default convergence bound, relative to f at a zero signal, ||y||^2 / (2mp),
# when a config gives no absolute objective_tolerance.
RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    step_mode: str = LINE_SEARCH
    mu: float | None = None  # signal step for fixed mode
    rho: float = 0.0
    # absolute bound on f (None: relative). The carried f tracks f at (x_hat, d_hat) only
    # to about 1e-14 ||y||^2 / (2mp), so a bound below that can stop converged with f at
    # the result above it: draw_instance(12, 6, 3, 0.3, 2) at 1e-29 ended at 1.8e-28.
    objective_tolerance: float | None = None
    max_iterations: int = 100_000
    apply_C_rho_projection: bool = True
    record_trace: bool = True

    def __post_init__(self):
        if self.step_mode not in (LINE_SEARCH, FIXED):
            raise ParameterError(f"unknown step mode {self.step_mode!r}")
        if self.step_mode == FIXED:
            check_positive(self.mu, "mu (fixed step mode)")
        check_rho(self.rho)
        if self.objective_tolerance is not None:
            check_positive(self.objective_tolerance, "objective_tolerance")
        check_count(self.max_iterations, "max_iterations")


@dataclass(slots=True)
class SolverState:
    """An iterate, its objective, and the steps that produced it (0 at the start).

    ``evaluation`` is ``gradients`` at (xi, gamma) for the ensemble and data
    the state is iterated with, to rounding once a step carried A xi by
    recurrence; ``iterate`` carries it on. Left None, it is computed when needed.
    """

    xi: np.ndarray
    gamma: np.ndarray
    iteration: int
    objective: float
    mu_xi: float = 0.0
    mu_gamma: float = 0.0
    evaluation: GradientPair | None = field(default=None, repr=False, compare=False)


@dataclass
class SolverTrace:
    """Per-iteration history, one row per ``record`` of an iterate's k, f,
    steps and (xi, gamma); delta columns stay None without ground truth. With
    it, each recorded iterate is kept (no step writes into one) and the
    distances are filled whenever the pending iterates hold TRACE_CHUNK_CELLS
    cells, in one stacked call each, and complete when ``solve`` returns; only
    those fills add distance work to ``elapsed_seconds``."""

    iteration: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    mu_xi: list[float] = field(default_factory=list)
    mu_gamma: list[float] = field(default_factory=list)
    delta: list[float | None] = field(default_factory=list)
    delta_F: list[float | None] = field(default_factory=list)
    elapsed_seconds: list[float] = field(default_factory=list)

    def __post_init__(self):
        self._pending = []  # recorded (xi, gamma) whose distances are not filled yet

    def record(self, k: int, f: float, mu_xi: float, mu_gamma: float, xi: np.ndarray,
               gamma: np.ndarray, elapsed: float, truth: GroundTruth | None):
        self.iteration.append(k)
        self.objective.append(f)
        self.mu_xi.append(mu_xi)
        self.mu_gamma.append(mu_gamma)
        self.delta.append(None)
        self.delta_F.append(None)
        self.elapsed_seconds.append(elapsed)
        if truth is not None:
            self._pending.append((xi, gamma))
            cells = len(self._pending) * (xi.size + gamma.size)
            if cells >= TRACE_CHUNK_CELLS:
                self.fill_distances(truth)

    def fill_distances(self, truth: GroundTruth | None):
        """Fill in the distances of the iterates recorded since the last fill."""
        if self._pending:
            k, stack = len(self._pending), tuple(map(np.stack, zip(*self._pending)))
            self.delta[-k:] = geometry.delta(stack, truth).tolist()
            self.delta_F[-k:] = geometry.delta_F(stack, truth).tolist()
            self._pending.clear()


def initialise(ensemble, y) -> tuple[np.ndarray, np.ndarray]:
    """Backprojection start: xi_0 = (1/mp) sum_l A_l^T y_l, gamma_0 = 1.

    The snapshots are checked here, once per solve: a non-finite entry
    raises ParameterError.
    """
    y = check_array(y, (ensemble.p, ensemble.m), "snapshots", finite=True)
    xi0 = adjoint(ensemble, y) / (ensemble.m * ensemble.p)
    return xi0, np.ones(ensemble.m)


def _step(direction: np.ndarray, image: np.ndarray, mp: int) -> float:
    """Exact step mp ||direction||^2 / ||image||^2, or 0 when the image
    vanishes; the image is squared in place."""
    den = float(np.add.reduce(np.multiply(image, image, image), None))
    return mp * float(direction.dot(direction)) / den if den > 0.0 else 0.0


def exact_line_search(state: SolverState, ensemble, y) -> tuple[float, float]:
    """Exact minimisers of f along the two block descent directions.

    For direction g in the signal block the residual moves along
    s_l = gamma * (A_l g), so the minimiser of the 1-d quadratic is
    sum_l <r_l, s_l> / sum_l ||s_l||^2 = mp ||g||^2 / sum_l ||s_l||^2,
    and symmetrically for the projected gain direction h, whose residual
    moves along (A_l xi) * h. A vanishing direction has a vanishing image
    and yields step 0 for that block. A state that carries its evaluation is
    not evaluated again.
    """
    grads = state.evaluation or gradients(ensemble, y, (state.xi, state.gamma))
    mp = ensemble.m * ensemble.p
    g, h = grads.grad_xi, grads.grad_gamma_projected
    return _step(g, state.gamma * forward(ensemble, g), mp), _step(h, grads.ax * h, mp)


def _finite(v: np.ndarray, zeros: np.ndarray, iteration: int) -> np.ndarray:
    if math.isnan(v.dot(zeros)):  # 0 * +-inf and 0 * nan are nan, 0 * finite is +-0
        raise DivergenceError(f"iterate became non-finite at iteration {iteration}", iteration)
    return v


def _descend(state: SolverState, config: SolverConfig, ensemble, y, fixed_steps,
             tolerance: float, budget: int, record=None) -> tuple[str, SolverState]:
    """The descent loop of ``iterate`` and ``solve``: step from ``state``, checked
    and evaluated by the caller, until the iteration count reaches ``budget``,
    f stagnates or the objective stepped from is below ``tolerance``; return
    the stop reason and a new state with its steps and evaluation, writing
    none into ``state``. ``record(k, f, mu_xi, mu_gamma, xi, gamma)``, if
    given, takes each thinned trace row.

    A step projects the gain step taken from the carried A xi. One pass over
    ``blocks()`` gives A g, for mu_xi in line search and for the recurrence
    A xi' = A xi - mu_xi A g, on a copy of the carried A xi. A lazy sweep's
    block also adds bv = A_b^T (gamma' * r_b), r_b from the carried A xi, and
    bu = A_b^T (gamma'^2 * A_b g): three block products per snapshot, and
    A^T (gamma' * r') = bv - mu_xi bu. The cached stack takes one more read.
    """
    m, p, xi, gamma, grads = ensemble.m, ensemble.p, state.xi, state.gamma, state.evaluation
    mp, rho, k, f = m * p, config.rho, state.iteration, state.objective
    line_search, project = config.step_mode == LINE_SEARCH, config.apply_C_rho_projection
    g, grad_gamma, h, ax = grads.grad_xi, grads.grad_gamma, grads.grad_gamma_projected, grads.ax
    mu_xi, mu_gamma = fixed_steps or (state.mu_xi, state.mu_gamma)
    ag, r, image = (np.empty((p, m)) for _ in range(3))
    ax = np.array(ax)  # a copy of the carried A xi, stepped in place by the recurrence
    lazy = ensemble.stacked() is None
    # a block's rows of A g (flat), A xi, y, r, image: the stack's made once, a sweep's per step
    stack_block, image_flat = [(ag.reshape(-1), ax, y, r, image)], image.reshape(-1)
    zeros_n, zeros_m = np.zeros(ensemble.n), np.zeros(m)
    recent = deque([f], maxlen=STAGNATION_WINDOW + 1)
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        while True:
            if k >= budget:
                stop = MAX_ITERATIONS
            elif (len(recent) > STAGNATION_WINDOW
                  and recent[0] - f < STAGNATION_RTOL * max(recent[0], 1e-300)):
                stop = STAGNATED
            else:
                previous, k = f, k + 1
                if line_search:
                    mu_gamma = _step(h, np.multiply(ax, h, image), mp)
                gamma_next = _finite(gamma - mu_gamma * h, zeros_m, k)
                if project:
                    gamma_next = geometry.project_C_rho(gamma_next, rho)
                bv, bu, parts = 0.0, 0.0, zip(ag, ax, y, r, image) if lazy else stack_block
                for (_, rows), (ag_b, ax_b, y_b, r_b, image_b) in zip(ensemble.blocks(), parts):
                    rows.dot(g, ag_b)
                    if lazy:  # a snapshot's block: its two partials
                        bv += residual_block(rows, ax_b, gamma_next, y_b, r_b, image_b)
                        bu += rows.T.dot(gamma_next * gamma_next * ag_b)
                if line_search:
                    mu_xi = _step(g, np.multiply(gamma, ag, image), mp)
                xi_next = _finite(xi - mu_xi * g, zeros_n, k)
                np.subtract(ax, np.multiply(mu_xi, ag, ag), ax)
                np.subtract(np.multiply(gamma_next, ax, r), y, r)
                if lazy:
                    back = bv - mu_xi * bu
                else:  # the cached stack's second read
                    np.multiply(gamma_next, r, image)
                    back = rows.T.dot(image_flat)
                g, grad_gamma, h, f = residual_terms(ax, r, back, image)
                if not math.isfinite(f):
                    raise DivergenceError(f"objective became non-finite at iteration {k}", k)
                xi, gamma = xi_next, gamma_next
                recent.append(f)
                if previous < tolerance:
                    stop = CONVERGED
                elif record is None or (k > TRACE_DENSE_LIMIT and k % 10):
                    continue
            if stop is not None:
                return stop, SolverState(xi, gamma, k, f, mu_xi, mu_gamma,
                                         GradientPair(g, grad_gamma, h, f, ax))
            record(k, f, mu_xi, mu_gamma, xi, gamma)


def iterate(state: SolverState, config: SolverConfig, ensemble, y,
            fixed_steps=None) -> SolverState:
    """Apply one descent update, the loop of ``solve`` run for one step, and
    return a new state that carries the steps taken and its own evaluation;
    ``state`` is never written. Each call checks ``y`` (finite entries
    included) and the shapes of the state and its carried evaluation.

    Line-search mode takes the exact block steps; fixed mode needs the step
    pair (mu_xi, mu_gamma) in ``fixed_steps``.
    """
    if config.step_mode == FIXED and fixed_steps is None:
        raise ParameterError("fixed step mode needs explicit (mu_xi, mu_gamma); "
                             "solve() derives mu_gamma = mu * m / ||xi_0||^2")
    n, m, p = ensemble.n, ensemble.m, ensemble.p
    y = check_array(y, (p, m), "snapshots", finite=True)
    xi, gamma = check_array(state.xi, (n,), "xi"), check_array(state.gamma, (m,), "gamma")
    grads = state.evaluation or gradients(ensemble, y, (xi, gamma))
    grads = GradientPair(check_array(grads.grad_xi, (n,), "carried grad_xi"), grads.grad_gamma,
                         check_array(grads.grad_gamma_projected, (m,), "carried P grad_gamma"),
                         grads.objective, check_array(grads.ax, (p, m), "carried A xi"))
    return _descend(replace(state, xi=xi, gamma=gamma, evaluation=grads), config, ensemble, y,
                    fixed_steps, -math.inf, state.iteration + 1)[1]


@dataclass
class SolveResult:
    x_hat: np.ndarray
    d_hat: np.ndarray
    trace: SolverTrace
    stop_reason: str
    iterations: int
    objective: float
    operator_passes: int = 0  # applications of the operator, start point included
    # wall time of the start (initialise and the first evaluation) and of
    # everything after it (the descent loop and its trace)
    start_seconds: float = 0.0
    iteration_seconds: float = 0.0


def solve(ensemble, y, config: SolverConfig, truth: GroundTruth | None = None) -> SolveResult:
    """Run the full descent until convergence, stagnation, or the budget.

    The convergence test consumes the objective evaluated together with each
    gradient computation, i.e. the value at the point being stepped from; the
    loop therefore applies one final update after the objective first crosses
    the tolerance, and the returned objective sits below it.

    With ground truth supplied, the trace additionally records the distances
    delta and delta_F of each recorded iterate.
    """
    t0 = time.perf_counter()
    if truth is not None:
        check_array(truth.x, (ensemble.n,), "truth.x")
        check_array(truth.d, (ensemble.m,), "truth.d")
    passes0 = ensemble.operator_passes
    y = np.asarray(y, dtype=float)  # checked, finite included, by initialise
    xi0, gamma0 = initialise(ensemble, y)
    grads0 = gradients(ensemble, y, (xi0, gamma0))
    t_start = time.perf_counter()
    f0 = grads0.objective
    tolerance = config.objective_tolerance
    if tolerance is None:  # relative to f at a zero signal
        tolerance = RELATIVE_TOLERANCE * float(np.vdot(y, y)) / (2.0 * ensemble.m * ensemble.p)

    converged = f0 < tolerance or f0 == 0.0
    fixed_steps = None
    if config.step_mode == FIXED and not converged:
        norm0 = float(xi0 @ xi0)
        if norm0 == 0.0:
            raise ParameterError("zero initial signal estimate; cannot scale gain step")
        fixed_steps = (config.mu, config.mu * ensemble.m / norm0)
    state = SolverState(xi0, gamma0, 0, f0, evaluation=grads0)

    trace = SolverTrace()
    record = None
    if config.record_trace:
        def record(*row):
            trace.record(*row, time.perf_counter() - t0, truth)
        record(0, f0, 0.0, 0.0, xi0, gamma0)

    stop, state = (CONVERGED, state) if converged else _descend(
        state, config, ensemble, y, fixed_steps, tolerance, config.max_iterations, record)
    if stop == CONVERGED and ensemble.underdetermined:
        stop = UNDERDETERMINED
    if record is not None and trace.iteration[-1] != state.iteration:
        record(state.iteration, state.objective, state.mu_xi, state.mu_gamma, state.xi,
               state.gamma)
    trace.fill_distances(truth)
    return SolveResult(x_hat=state.xi, d_hat=state.gamma, trace=trace,
                       stop_reason=stop, iterations=state.iteration,
                       objective=state.objective,
                       operator_passes=ensemble.operator_passes - passes0,
                       start_seconds=t_start - t0,
                       iteration_seconds=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Convergence-theory diagnostics
# ---------------------------------------------------------------------------

def default_kappa(delta: float, rho: float) -> float:
    """Basin radius implied by an initialisation within delta * ||x*||."""
    return float(np.hypot(delta, rho))


@dataclass(frozen=True)
class ContractionDiagnostics:
    eta: float
    L: float
    tau: float
    factor: float
    mu_max: float


def contraction_diagnostics(rho: float, delta: float, kappa: float,
                            x_star_norm: float, m: int, mu: float) -> ContractionDiagnostics:
    """Constants of the guaranteed error decay and the per-iteration factor.

    eta = 2 (1 - 9 rho - 2 delta), L = 4 sqrt(2) (1 + rho + (1 + kappa) ||x*||),
    tau = min(1, ||x*||^2 / m); the squared distance contracts by
    1 - eta mu + (L^2 / tau) mu^2 per iteration for mu in (0, tau eta / L^2).
    A non-positive eta means the requirement rho < (1 - 2 delta) / 9 fails and
    the guarantee is void (empirical convergence may still occur).
    """
    eta = 2.0 * (1.0 - 9.0 * rho - 2.0 * delta)
    L = 4.0 * np.sqrt(2.0) * (1.0 + rho + (1.0 + kappa) * x_star_norm)
    tau = min(1.0, x_star_norm ** 2 / m)
    factor = 1.0 - eta * mu + (L ** 2 / tau) * mu ** 2
    mu_max = tau * eta / L ** 2
    if eta <= 0.0:
        warnings.warn(
            f"contraction guarantee void: eta = {eta:.3g} <= 0 "
            f"(requires rho < (1 - 2 delta) / 9)", TheoryRangeWarning, stacklevel=2)
    return ContractionDiagnostics(eta=eta, L=float(L), tau=float(tau),
                                  factor=float(factor), mu_max=float(mu_max))
