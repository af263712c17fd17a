"""Sensing model: random snapshot ensembles, the sensing operator (forward
map ``A xi`` and adjoint ``sum_l A_l^T w_l``) and the gained forward map.

The measurement model is ``y_l = diag(d) A_l x`` for ``l = 1..p`` snapshots,
where the ``A_l`` are independent m-by-n random matrices with i.i.d. centred
isotropic rows and ``d`` is a fixed vector of positive per-sensor gains.

Every application of the operator is one loop over ``SensingEnsemble.blocks()``,
which chooses between the cached stack and regeneration and counts one
operator pass per call. ``matrix(l)`` makes the same choice for one
snapshot; diagnostics reading one at a time through ``matrix(l)``
(``objective.hessian``, ``experiments.check_concentration``) count no pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
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

# A cached stack is applied as two halves, one on the pool, once each half holds at
# least this many cells; the cut is at a whole 16-row group, so a row keeps one dot's
# gemv path.
SPLIT_CELLS = 1 << 20


@lru_cache
def _pool(pid: int):
    """Process pid's draw-ahead and split pool, one thread per CPU (a fork has its own)."""
    from concurrent.futures import ThreadPoolExecutor
    affinity = getattr(os, "sched_getaffinity", None)
    threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    return ThreadPoolExecutor(threads), threads


def _split(rows: np.ndarray):
    """rows, or once each half holds SPLIT_CELLS cells its two halves, applied as rows
    is: ``dot(v, out)`` is rows @ v into out, bit for bit one single-threaded dot,
    ``T.dot(w)`` is w @ rows, the first half's product plus the second's. The caller
    applies the first half, the pool the second."""
    cut = 16 * (len(rows) // 32)
    if cut * rows.shape[1] < SPLIT_CELLS:
        return rows
    first, second = slice(0, cut), slice(cut, None)

    def run(call):  # (call(first), call(second)); both are done on return
        future = _pool(os.getpid())[0].submit(call, second)
        try:
            return call(first), future.result()
        finally:
            future.exception()

    def forward(v, out):
        run(lambda sl: rows[sl].dot(v, out[sl]))
        return out

    def adjoint(w):
        return sum(run(lambda sl: w[sl].dot(rows[sl])))

    return SimpleNamespace(dot=forward, T=SimpleNamespace(dot=adjoint))


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
    snapshot at a time, so building it never holds the operator twice.
    ``operator_passes`` counts the calls of ``blocks()``, one per application
    of the operator.
    """

    n: int
    m: int
    p: int
    distribution: str = GAUSSIAN
    seed: int = 0
    _cache: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
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
        """An ensemble holding explicit matrices, given stacked as (p, m, n): the one
        way to supply matrices, checked to be 3-d with no empty axis and finite. A
        float64 C-contiguous stack is held without a copy, so a later write to it
        changes the operator unchecked; pass a copy to keep the operator fixed."""
        matrices = np.ascontiguousarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise DimensionError(
                f"stacked matrices must be 3-d (p, m, n), got ndim={matrices.ndim}")
        ensemble = cls(*matrices.shape[::-1])
        ensemble._cache = check_array(matrices, matrices.shape, "stacked matrices", finite=True)
        return ensemble

    @property
    def underdetermined(self) -> bool:
        """m*p < n + m - 1: too few measurements for fitted data to identify x and d."""
        return self.m * self.p < self.n + self.m - 1

    def matrix(self, l: int) -> np.ndarray:
        """The l-th snapshot matrix A_l, shape (m, n)."""
        if not 0 <= l < self.p:
            raise DimensionError(f"snapshot index {l} outside [0, {self.p})")
        if self._cache is not None:
            return self._cache[l]
        return self._draw(l)

    def _draw(self, l: int) -> np.ndarray:
        future = self._ahead.pop(l, None)  # drawn ahead by a lazy pass?
        return self._fill(self._generator(l)) if future is None else future.result()

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

    def blocks(self) -> Iterable[tuple[slice, np.ndarray]]:
        """The operator's rows as (snapshot slice, (k*m, n) matrix) blocks.

        A cached ensemble is one block, a view of the flattened (p*m, n)
        stack built on the first call, so each application is one BLAS call
        (or, from 2 * SPLIT_CELLS cells, one per ``_split`` half); a lazy one
        yields p blocks, each snapshot regenerated once, drawn ahead by ``_sweep``.
        Every call counts one operator pass.
        """
        self.operator_passes += 1
        if self._blocks is None:
            stacked = self.stacked()
            if stacked is None:
                return self._sweep()
            self._blocks = ((slice(0, self.p), _split(stacked.reshape(self.p * self.m, self.n))),)
        return self._blocks

    def _sweep(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The lazy blocks in order, seeded here and filled ahead with the same bits on
        pool threads, one snapshot per task and at most two tasks per thread in flight."""
        drawn = 1  # matrix(l) draws the first snapshot here
        pool, threads = _pool(os.getpid())
        try:
            for l in range(self.p):
                while drawn < min(l + 2 * threads, self.p):
                    self._ahead[drawn] = pool.submit(self._fill, self._generator(drawn))
                    drawn += 1
                yield slice(l, l + 1), self.matrix(l)
        finally:  # left early: cancel the fills not begun, wait for the running ones
            for future in [self._ahead.pop(k) for k in range(drawn) if k in self._ahead]:
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
        rows.dot(v, out[sl].reshape(-1))
    return out


def adjoint(ensemble: SensingEnsemble, w) -> np.ndarray:
    """sum_l A_l^T w_l for per-snapshot weights w of shape (p, m)."""
    p, m = ensemble.p, ensemble.m
    w = check_array(w, (p, m), "weights")
    out = np.zeros(ensemble.n)
    for sl, rows in ensemble.blocks():
        out += rows.T.dot(w[sl].reshape(-1))
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
        if not np.any(self.x):  # every relative error would be 0/0
            raise ParameterError("signal x is all zero, so the gains are not identifiable")
        m = self.d.size
        if np.any(self.d <= 0.0):
            raise ParameterError("gains must be strictly positive")
        total = float(np.sum(self.d))
        if abs(total - m) > 1e-9 * m:
            raise ParameterError("gains must sum to m (scaled-simplex representative)")
        if float(np.max(np.abs(self.d - 1.0))) > self.rho + 1e-12:
            raise ParameterError("max gain deviation exceeds rho")
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
