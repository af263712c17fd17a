"""Data-fidelity objective, its gradients and Hessian, and their expectations.

All finite-sample quantities average over the mp scalar measurements:

    f(xi, gamma) = (1 / 2mp) sum_l || gamma * (A_l xi) - y_l ||^2

with gradients

    grad_xi    = (1 / mp) sum_l A_l^T (gamma * r_l)
    grad_gamma = (1 / mp) sum_l (A_l xi) * r_l,   r_l = gamma * (A_l xi) - y_l

and the projected gain gradient P (grad_gamma) with P the zero-sum projector.
As p grows each quantity is an unbiased estimate of a closed form in
(xi, gamma, x*, d*); the expectation forms are provided for Monte-Carlo
verification and for the objective's Frobenius interpretation
E f = (1 / 2m) || xi gamma^T - x* d*^T ||_F^2.

``gradients`` evaluates a point in one sweep over ``ensemble.blocks()`` and
also returns f and the image A xi: each block of rows gives its part of
A xi, then ``residual_block`` its part of r and of A^T (gamma * r), so a
lazy ensemble regenerates each A_l once per evaluation; ``residual_terms``
then forms the gradients and f on whole arrays, as it does after each
solver step. Sums follow the order of the blocks, so for one ensemble, BLAS
build (on a fixed BLAS thread count) and Python version, whatever the CPU
count, every result repeats bit for bit; across operator shapes, BLAS builds
or Python versions, results may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DimensionError, check_array
# the sensing operator lives in model; forward and adjoint are re-exported here
from .model import GroundTruth, SensingEnsemble, adjoint, as_point, forward

# Dense Hessian assembly is for diagnostics only; refuse absurd sizes.
HESSIAN_SIZE_LIMIT = 2048


def _check_shapes(ensemble: SensingEnsemble, y, point):
    """(xi, gamma, y) as float arrays, checked against the ensemble's n, m, p."""
    xi, gamma = point
    return (check_array(xi, (ensemble.n,), "xi"), check_array(gamma, (ensemble.m,), "gamma"),
            check_array(y, (ensemble.p, ensemble.m), "snapshots"))


def objective_value(ensemble, y, point) -> float:
    xi, gamma, y = _check_shapes(ensemble, y, point)
    r = gamma[None, :] * forward(ensemble, xi) - y
    return float(np.sum(r * r)) / (2.0 * ensemble.m * ensemble.p)


@dataclass(slots=True)
class GradientPair:
    """Signal gradient, gain gradient, and the zero-sum-projected gain gradient.

    ``gradients`` also fills in the objective f and the image A xi, shape
    (p, m), of the point it evaluated; the expectation forms leave them None.
    """

    grad_xi: np.ndarray
    grad_gamma: np.ndarray
    grad_gamma_projected: np.ndarray
    objective: float | None = None
    ax: np.ndarray | None = None


def residual_block(rows, ax_b, gamma, y_b, r_b, image_b) -> np.ndarray:
    """gamma * ax_b - y_b into r_b and gamma * r_b into image_b, for the block
    image ax_b = A_b xi; returns A_b^T (gamma * r_b)."""
    np.subtract(np.multiply(gamma, ax_b, r_b), y_b, r_b)
    return rows.T.dot(np.multiply(gamma, r_b, image_b).reshape(-1))


def residual_terms(ax, r, back, weights) -> tuple:
    """grad_xi, grad_gamma, P grad_gamma and f, the first four fields of a
    ``GradientPair``, from A xi, the residual r (overwritten by r * A xi),
    A^T (gamma * r) and p weights 1/(mp): f is one dot of the flat r, grad_gamma
    the dot weights . (r * A xi), and its mean is a Python sum."""
    (p, m), flat = r.shape, r.reshape(-1)
    objective = float(flat.dot(flat)) / (2.0 * m * p)
    grad_gamma = weights.dot(np.multiply(r, ax, r))
    return (1.0 / (m * p)) * back, grad_gamma, grad_gamma - sum(grad_gamma.tolist()) / m, objective


def gradients(ensemble, y, point) -> GradientPair:
    """Both gradient blocks, f and A xi, from one sweep over the operator."""
    xi, gamma, y = _check_shapes(ensemble, y, point)
    ax, r, image = (np.empty((ensemble.p, ensemble.m)) for _ in range(3))
    back, weights = np.zeros(ensemble.n), np.full(ensemble.p, 1.0 / (ensemble.m * ensemble.p))
    for sl, rows in ensemble.blocks():
        rows.dot(xi, ax[sl].reshape(-1))
        back += residual_block(rows, ax[sl], gamma, y[sl], r[sl], image[sl])
    return GradientPair(*residual_terms(ax, r, back, weights), ax)


def hessian(ensemble, y, point) -> np.ndarray:
    """Dense (n+m)-by-(n+m) Hessian of f at the given point (diagnostic use).

    Block form per snapshot, averaged over (i, l):

        [ A^T diag(gamma)^2 A        A^T diag(2 gamma * (A xi) - y) ]
        [ diag(...) A                diag((A xi)^2)                 ]
    """
    xi, gamma, y = _check_shapes(ensemble, y, point)
    n, m, p = ensemble.n, ensemble.m, ensemble.p
    if n + m > HESSIAN_SIZE_LIMIT:
        raise DimensionError(
            f"dense Hessian limited to n + m <= {HESSIAN_SIZE_LIMIT}, got {n + m}")
    h_xx = np.zeros((n, n))
    h_xg = np.zeros((n, m))
    h_gg_diag = np.zeros(m)
    gamma_sq = gamma ** 2
    for l, a in enumerate(ensemble.iter_matrices()):
        ax = a @ xi
        h_xx += a.T @ (gamma_sq[:, None] * a)
        h_xg += a.T * (2.0 * gamma * ax - y[l])[None, :]
        h_gg_diag += ax ** 2
    scale = 1.0 / (m * p)
    out = np.empty((n + m, n + m))
    out[:n, :n] = scale * h_xx
    out[:n, n:] = scale * h_xg
    out[n:, :n] = scale * h_xg.T
    out[n:, n:] = np.diag(scale * h_gg_diag)
    return out


# ---------------------------------------------------------------------------
# Expectation forms (p -> infinity limits over the sensing rows)
# ---------------------------------------------------------------------------

def expected_objective(point, truth: GroundTruth) -> float:
    """E f(xi, gamma) = (1 / 2m) || xi gamma^T - x* d*^T ||_F^2."""
    return 0.5 * geometry.delta_F(point, truth)


def expected_gradients(point, truth: GroundTruth) -> GradientPair:
    xi, gamma = as_point(point)
    xs = truth.x_star
    ds = truth.d_star
    m = truth.m
    grad_xi = (float(gamma @ gamma) * xi - float(gamma @ ds) * xs) / m
    grad_gamma = (float(xi @ xi) * gamma - float(xi @ xs) * ds) / m
    return GradientPair(grad_xi=grad_xi, grad_gamma=grad_gamma,
                        grad_gamma_projected=geometry.project_zero_sum(grad_gamma))


def expected_hessian(point, truth: GroundTruth) -> np.ndarray:
    xi, gamma = as_point(point)
    xs = truth.x_star
    ds = truth.d_star
    n, m = xi.size, gamma.size
    out = np.empty((n + m, n + m))
    out[:n, :n] = (float(gamma @ gamma) / m) * np.eye(n)
    cross = (2.0 * np.outer(xi, gamma) - np.outer(xs, ds)) / m
    out[:n, n:] = cross
    out[n:, :n] = cross.T
    out[n:, n:] = (float(xi @ xi) / m) * np.eye(m)
    return out
