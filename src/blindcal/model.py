"""Sensing model: random snapshot ensembles, the sensing operator (forward
map ``A xi`` and adjoint ``sum_l A_l^T w_l``) and the gained forward map.

The measurement model is ``y_l = diag(d) A_l x`` for ``l = 1..p`` snapshots,
where the ``A_l`` are independent m-by-n random matrices with i.i.d. centred
isotropic rows and ``d`` is a fixed vector of positive per-sensor gains.

Every application of the operator is one loop over ``SensingEnsemble.blocks()``,
which chooses between the cached stack and regeneration and counts one
operator pass per call. A cached ensemble builds its one block, the
flattened (p*m, n) view of the stack, once and hands out that same block on
every pass; a lazy pass holds one window of snapshots, drawn ahead on pool
threads with the same bits. ``matrix(l)`` makes the same choice for one
snapshot; diagnostics reading one at a time through ``iter_matrices()``
(``objective.hessian``, ``experiments.check_concentration``) count no pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import (DimensionError, ParameterError, check_array, check_rho, check_seed,
                     check_size)
from .seeding import derive_seed

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
DISTRIBUTIONS = (GAUSSIAN, RADEMACHER)

# Ensembles with at most this many cells (p*m*n) are kept stacked in memory;
# larger ones are regenerated snapshot by snapshot so that grid experiments
# never hold all p matrices at once, only one window drawn ahead. The stack
# is filled in place: its peak is 8 bytes per cell plus one snapshot.
CACHE_LIMIT_CELLS = 1 << 25

# Snapshots are drawn ahead in tasks of at least this many cells, one hand-off each.
DRAW_TASK_CELLS = 1 << 15


@lru_cache
def _pool(pid: int):
    """Process pid's draw-ahead pool, one thread per CPU (a forked child has its own)."""
    from concurrent.futures import ThreadPoolExecutor
    affinity = getattr(os, "sched_getaffinity", None)
    threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    return ThreadPoolExecutor(threads), threads


def as_point(point) -> tuple[np.ndarray, np.ndarray]:
    """The signal/gain iterate pair (xi, gamma) as two float arrays."""
    xi, gamma = point
    return np.asarray(xi, dtype=float), np.asarray(gamma, dtype=float)


@dataclass
class SensingEnsemble:
    """p random m-by-n sensing matrices, generated lazily per snapshot.

    Gaussian rows have standard normal entries; Rademacher rows have entries
    +-1 with equal probability. Both are centred with identity covariance.
    Snapshot ``l`` is drawn from ``derive_seed(seed, [("snapshot", l)])``, so
    any single matrix can be regenerated independently and deterministically.
    Ensembles of at most ``CACHE_LIMIT_CELLS`` cells are cached stacked as a
    C-contiguous (p, m, n) array on first use, allocated once and filled one
    snapshot at a time, so building it never holds the operator twice;
    ``blocks()`` hands the operator that stack or one regenerated snapshot at
    a time, from a window of two tasks per CPU drawn ahead; ``operator_passes``
    counts its calls, one per application of the operator.
    """

    n: int
    m: int
    p: int
    distribution: str = GAUSSIAN
    seed: int = 0
    _cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _blocks: tuple | None = field(default=None, init=False, repr=False, compare=False)
    operator_passes: int = field(default=0, init=False, repr=False, compare=False)
    _ahead: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "m", "p"):
            setattr(self, name, check_size(getattr(self, name), name))
        self.seed = check_seed(self.seed, "seed")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}; "
                                 f"expected one of {DISTRIBUTIONS}")

    @classmethod
    def from_matrices(cls, matrices) -> SensingEnsemble:
        """An ensemble holding explicit matrices, given stacked as (p, m, n)."""
        matrices = np.ascontiguousarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise DimensionError(
                f"stacked matrices must be 3-d (p, m, n), got ndim={matrices.ndim}")
        p, m, n = matrices.shape
        return cls(n=n, m=m, p=p, _cache=matrices)

    def matrix(self, l: int) -> np.ndarray:
        """The l-th snapshot matrix A_l, shape (m, n)."""
        if not 0 <= l < self.p:
            raise DimensionError(f"snapshot index {l} outside [0, {self.p})")
        if self._cache is not None:
            return self._cache[l]
        return self._draw(l)

    def _draw(self, l: int) -> np.ndarray:
        future, j = self._ahead.pop(l, (None, 0))  # drawn ahead by a lazy pass?
        return self._fill(self._generator(l)) if future is None else future.result()[j]

    def _generator(self, l: int) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.seed, [("snapshot", l)]))

    def _fill(self, rng: np.random.Generator) -> np.ndarray:
        # numpy releases the GIL while it fills, so this runs on pool threads
        if self.distribution == GAUSSIAN:
            return rng.standard_normal((self.m, self.n))
        return 2.0 * rng.integers(0, 2, size=(self.m, self.n)) - 1.0

    def stacked(self) -> np.ndarray | None:
        """All matrices as a (p, m, n) array, or None when too large to cache."""
        if self._cache is None:
            if self.p * self.m * self.n > CACHE_LIMIT_CELLS:
                return None
            stack = np.empty((self.p, self.m, self.n))
            for l in range(self.p):
                stack[l] = self._draw(l)
            self._cache = stack
        return self._cache

    def iter_matrices(self) -> Iterator[np.ndarray]:
        for l in range(self.p):
            yield self.matrix(l)

    def blocks(self) -> Iterable[tuple[slice, np.ndarray]]:
        """The operator's rows as (snapshot slice, (k*m, n) matrix) blocks.

        A cached ensemble is one block, a view of the flattened (p*m, n)
        stack built on the first call, so each application is one BLAS call;
        a lazy one yields p blocks, each snapshot regenerated once by
        ``matrix(l)``. Every call counts one operator pass.
        """
        self.operator_passes += 1
        if self._blocks is None:
            stacked = self.stacked()
            if stacked is None:
                return self._sweep()
            self._blocks = ((slice(0, self.p), stacked.reshape(self.p * self.m, self.n)),)
        return self._blocks

    def _sweep(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The lazy blocks in order, seeded here and filled ahead on pool threads."""
        per_task = -(-DRAW_TASK_CELLS // (self.m * self.n))
        drawn = min(per_task, self.p)  # matrix(l) draws the first task here
        pool, threads = _pool(os.getpid())
        try:
            for l in range(self.p):
                while drawn < min(l + 2 * threads * per_task, self.p):
                    task = range(drawn, min(drawn + per_task, self.p))
                    future = pool.submit(list, map(self._fill, [self._generator(k) for k in task]))
                    self._ahead.update((k, (future, j)) for j, k in enumerate(task))
                    drawn = task.stop
                yield slice(l, l + 1), self.matrix(l)
        finally:  # left early: cancel the fills not begun, wait for the running ones
            for future, _ in [self._ahead.pop(k) for k in range(drawn) if k in self._ahead]:
                future.cancel() or future.exception()


# The public name for making a seeded ensemble: the class itself.
generate_ensemble = SensingEnsemble


# ---------------------------------------------------------------------------
# The sensing operator: one matrix-vector product per block of rows
# ---------------------------------------------------------------------------

def forward(ensemble: SensingEnsemble, v) -> np.ndarray:
    """Stack of A_l @ v over snapshots, shape (p, m)."""
    v = check_array(v, (ensemble.n,), "vector")
    out = np.empty((ensemble.p, ensemble.m))
    for sl, rows in ensemble.blocks():
        np.dot(rows, v, out=out[sl].reshape(-1))
    return out


def adjoint(ensemble: SensingEnsemble, w) -> np.ndarray:
    """sum_l A_l^T w_l for per-snapshot weights w of shape (p, m)."""
    p, m = ensemble.p, ensemble.m
    w = check_array(w, (p, m), "weights")
    out = np.zeros(ensemble.n)
    for sl, rows in ensemble.blocks():
        out += w[sl].reshape(-1) @ rows
    return out


def sense(ensemble: SensingEnsemble, x, d) -> np.ndarray:
    """Apply the forward model: snapshot l is ``d * (A_l @ x)``.

    Returns the (p, m) array of measurements. Linear in x and in d; invariant
    under the rescaling (x, d) -> (x / a, a * d) for any a != 0.
    """
    x = check_array(x, (ensemble.n,), "x", finite=True)
    d = check_array(d, (ensemble.m,), "d", finite=True)
    return d[None, :] * forward(ensemble, x)


@dataclass(frozen=True)
class GroundTruth:
    """The unknowns (x, d) of one problem instance plus the gain deviation bound.

    Gains are stored already rescaled onto the scaled simplex (sum(d) = m),
    which pins the one representative of the scaling orbit that all error
    metrics compare against. ``x_star``/``d_star`` apply the exact rescaling
    once more to absorb any residual drift in sum(d); they and their squared
    norms ``x_star_sq``/``d_star_sq`` are computed once, at construction, and
    are read-only.
    """

    x: np.ndarray
    d: np.ndarray
    rho: float
    x_star: np.ndarray = field(init=False, repr=False, compare=False)
    d_star: np.ndarray = field(init=False, repr=False, compare=False)
    x_star_sq: float = field(init=False, repr=False, compare=False)
    d_star_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x", "d"):  # each a non-empty finite vector
            value = getattr(self, name)
            size = check_size(np.size(value), f"length of {name}")
            object.__setattr__(self, name, check_array(value, (size,), name, finite=True))
        check_rho(self.rho)
        m = self.d.size
        if np.any(self.d <= 0.0):
            raise ParameterError("gains must be strictly positive")
        if abs(float(np.sum(self.d)) - m) > 1e-9 * m:
            raise ParameterError("gains must sum to m (scaled-simplex representative)")
        if float(np.max(np.abs(self.d - 1.0))) > self.rho + 1e-12:
            raise ParameterError("max gain deviation exceeds rho")
        total = float(np.sum(self.d))
        for name, value in (("x_star", (total / m) * self.x), ("d_star", (m / total) * self.d)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
            object.__setattr__(self, f"{name}_sq", float(value @ value))

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.d.size
