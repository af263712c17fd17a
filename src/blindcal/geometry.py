"""Constraint sets and metric structure for the gain-calibrated problem.

The feasible gain set is the slice of the scaled simplex within l-infinity
distance rho of the all-ones vector:

    C_rho = { g : sum(g) = m, max|g_i - 1| <= rho },  0 <= rho < 1,

and iterates are measured against the ground truth with the weighted squared
distance ``delta`` or the rank-one Frobenius pre-metric ``delta_F``. The two
are equivalent on C_rho up to factors (1 - rho) and (1 + 2 rho).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError, check_rho, check_size
from .model import GroundTruth, as_point
from .seeding import derive_seed


def project_zero_sum(v) -> np.ndarray:
    """Orthogonal projection onto zero-sum vectors: v - mean(v).

    This is the action of P = I - (1/m) 11^T; it is idempotent and
    self-adjoint, with the constant vectors as its kernel.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise DimensionError(f"v must be a non-empty vector, got shape {v.shape}")
    return v - v.mean()


def project_C_rho(gamma, rho: float) -> np.ndarray:
    """Euclidean projection onto C_rho.

    Writing z = gamma - 1, the projection solves

        min ||e - z||^2  s.t.  sum(e) = 0,  |e_i| <= rho,

    a continuous quadratic knapsack problem whose KKT conditions give
    e_i = clip(z_i - lam, -rho, rho) with the multiplier lam chosen so the
    coordinates sum to zero. When no box constraint is active, lam = mean(z)
    and e = z - mean(z), the projection onto the zero-sum hyperplane; that
    case is returned directly. It is decided from the two extremes of the
    sorted entries, max(z) - mean <= rho and mean - min(z) <= rho, which is
    max|z - mean| <= rho bit for bit: rounded subtraction is monotone, so
    the largest z_i - mean is max(z) - mean, and fl(a - b) = -fl(b - a), so
    the most negative one is -(mean - min(z)). A nan entry sorts last and
    makes the mean nan, and an infinite one makes a difference nan or +inf,
    so either takes the clipped path, as an abs test would.

    Otherwise s(lam) = sum_i e_i(lam) is piecewise linear and non-increasing,
    equal to rho*m left of every breakpoint {z_i - rho, z_i + rho}. The same
    sort of z gives the sorted breakpoints z - rho (tag -1: a coordinate
    leaves its upper bound) and z + rho (tag +1: it reaches its lower bound).
    A scalar walk over both in merged order, forming each breakpoint as it
    reaches it, carries the slope right of each breakpoint (the running sum
    of the tags) and s there (rho*m plus the running sum of slope times gap);
    lam is one linear step inside the segment where s first drops to zero or
    below (Kiwiel, Math. Programming 2008). These are the operations, in
    order, of a cumsum over all 2m breakpoints sorted together, and the same
    bits: tied breakpoints add zero gaps, so their order changes no bit. If
    the clipped sum leaves a residual above 1e-12 * m (inputs of extreme
    magnitude), a bisection on the directly evaluated clipped sum replaces lam.

    Returns 1 + e, which satisfies both constraints to near machine accuracy.
    """
    rho, gamma = check_rho(rho), np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or not gamma.size:
        raise DimensionError(f"gamma must be a non-empty vector, got shape {gamma.shape}")
    return _project_C_rho(gamma, rho)


def _project_C_rho(gamma: np.ndarray, rho: float) -> np.ndarray:
    """``project_C_rho`` of a non-empty float vector, for a rho already checked."""
    if rho == 0.0:
        return np.ones(gamma.size)
    z = gamma - 1.0
    zs = _sorted(z)
    mean = float(np.add.reduce(z)) / z.size
    if zs[-1] - mean <= rho and mean - zs[0] <= rho:
        return 1.0 + (z - mean)
    return 1.0 + _breakpoint_projection(z, rho, zs)


def _sorted(z: np.ndarray) -> list:
    zs = z.copy()
    zs.sort()  # nan last, as np.sort
    return zs.tolist()


def _clip(z: np.ndarray, lam: float, rho: float) -> np.ndarray:
    e = z - lam
    np.maximum(e, -rho, out=e)
    return np.minimum(e, rho, out=e)


def _breakpoint_projection(z: np.ndarray, rho: float, zs: list) -> np.ndarray:
    """The e = clip(z - lam, -rho, rho) summing to zero, lam found by the
    merged slope scan of ``project_C_rho``. zs, required, is ``_sorted(z)``,
    the entries of z sorted into a list; the scan extends it by one sentinel."""
    m = z.size
    # a sentinel whose lower breakpoint is nan, never <= an upper one (+inf
    # would tie with the upper breakpoint of an infinite entry)
    zs.append(math.nan)
    lower, upper = zs[0] - rho, zs[0] + rho  # the next breakpoint of each side
    s, slope, prev, i, k = rho * m, 0.0, lower, 0, 0
    lam = zs[m - 1] + rho  # if s stays positive up to the last breakpoint
    while k < m:  # s and slope right of prev: s falls, slope <= 0
        if lower <= upper:
            point, tag, i = lower, -1.0, i + 1
            lower = zs[i] - rho
        else:
            point, tag, k = upper, 1.0, k + 1
            upper = zs[k] + rho
        t = s + slope * (point - prev)
        if t <= 0.0:  # s crosses zero in this segment, so its slope is negative
            lam = prev - s / slope
            break
        s, slope, prev = t, slope + tag, point
    e = _clip(z, lam, rho)
    if abs(np.add.reduce(e)) > 1e-12 * m:
        lo, hi = (zs[0] - rho) - 1.0, (zs[m - 1] + rho) + 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # down to adjacent doubles
            if np.add.reduce(_clip(z, mid, rho)) > 0.0:
                lo = mid
            else:
                hi = mid
        e = _clip(z, hi, rho)
    return e


def _dot(a: np.ndarray, b: np.ndarray):
    """Row-wise a . b; stacked matmul runs numpy's 1-d dot kernel per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def delta(point, truth: GroundTruth):
    """Weighted squared distance to the canonical minimiser:

    ||xi - x*||^2 + (||x*||^2 / m) ||gamma - d*||^2.

    A point (xi (n,), gamma (m,)) gives a float; a stack ((k, n), (k, m))
    gives an array of the k row distances, each the bits of its own call.
    """
    xi, gamma = as_point(point)
    value = (np.add.reduce((xi - truth.x_star) ** 2, axis=-1)
             + truth.x_star_sq / truth.m * np.add.reduce((gamma - truth.d_star) ** 2, axis=-1))
    return float(value) if xi.ndim == 1 else value


def delta_F(point, truth: GroundTruth):
    """Frobenius pre-metric (1/m) || xi gamma^T - x* d*^T ||_F^2.

    Evaluated through the expanded form to avoid materialising the n-by-m
    outer products; tiny negative values from cancellation clamp to zero
    (-0.0 stays, as with max). Takes a point or a stack, as ``delta`` does.
    """
    xi, gamma = as_point(point)
    value = (_dot(xi, xi) * _dot(gamma, gamma) + truth.x_star_sq * truth.d_star_sq
             - 2.0 * _dot(gamma, truth.d_star) * _dot(xi, truth.x_star)) / truth.m
    value = np.where(value < 0.0, 0.0, value)
    return float(value) if xi.ndim == 1 else value


def draw_gain_perturbation(m: int, rho: float, seed: int) -> np.ndarray:
    """Draw gains d = 1 + w with sum(w) = 0 and ||w||_inf = rho exactly.

    The sampler projects a uniform cube draw onto the zero-sum hyperplane and
    rescales it to touch the l-infinity sphere of radius rho; draws that
    collapse below 1e-12 in l-infinity norm are rejected and retried. The
    distribution over the constraint set is a free choice of this sampler.
    """
    if check_size(m, "m") < 2:
        raise ParameterError("m must be at least 2 (zero-sum sphere is empty for m=1)")
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
    rng = np.random.default_rng(derive_seed(seed))
    while True:
        u = rng.uniform(-1.0, 1.0, size=m)
        w = u - u.mean()
        linf = float(np.max(np.abs(w)))
        if linf >= 1e-12:
            return 1.0 + (rho / linf) * w


# Slack for boundary membership tests, relative to the scale of each test, so
# that floating-point iterates sitting exactly on the boundary do not flip the
# answer and the answer does not depend on the units of the signal.
_MEMBERSHIP_SLACK = 1e-9


def in_neighbourhood(point, kappa: float, truth: GroundTruth) -> bool:
    """Closed-set membership test for D_{kappa,rho}, with rho and ||x*|| read
    from truth: sum(gamma) = m to 1e-9 m, max|gamma - 1| <= rho + 1e-9 and
    delta <= (kappa^2 + 1e-9) ||x*||^2. kappa must be nonnegative."""
    if not kappa >= 0.0:  # NaN fails
        raise ParameterError(f"kappa must be nonnegative, got {kappa!r}")
    _, gamma = as_point(point)
    m = gamma.size
    if abs(float(np.sum(gamma)) - m) > _MEMBERSHIP_SLACK * m:
        return False
    if float(np.max(np.abs(gamma - 1.0))) > truth.rho + _MEMBERSHIP_SLACK:
        return False
    return delta(point, truth) <= (kappa ** 2 + _MEMBERSHIP_SLACK) * truth.x_star_sq
