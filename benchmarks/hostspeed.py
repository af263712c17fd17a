"""A host speed reference, timed between pieces of benchmark work.

On a shared virtual machine the speed of the host drifts with the load of
other tenants: the same unit of work takes 30% longer in one run than in
the next, and the host stays slow or fast for minutes. Medians within a run
do not remove a drift that lasts longer than the run.

So the harness times a short reference kernel, which runs no blindcal code,
about every ``INTERVAL_S`` seconds of timed work: at the next item
boundary, solve call or matrix regeneration. The time spent in it is kept
out of the timed work. End-to-end times are reported scaled by the
kernel's nominal time over its trimmed mean time in the run: seconds on a
host that runs the kernel in its nominal time. A change to the library
moves the timed work and not the kernel, so it shows in full.

Each workload names the kernel that does its kind of work:

* ``small_ops`` - a 64x16 matrix-vector product, its adjoint, a norm and a
  clip, from Python: the solver's inner loop on small operators, which
  costs interpreter and call overhead (``desk_grid``, ``rate_compare``);
* ``stream`` - products with a 4 MiB matrix and its transpose, larger than
  L2: the operator applications of ``imaging``, which cost bytes moved;
* ``draws`` - a fresh seeded generator and a 64x512 block of normal draws,
  20 times: the per-snapshot regeneration of ``lazy``.

The host's speed flips between a fast and a slow state within a second, so
a run's samples have two modes. Their mean, less the outer tenths, tracks
the share of time spent in each state; their median jumps from one mode to
the other.
"""

from __future__ import annotations

import time

import numpy as np

# median time of one call of each kernel on the 2-vCPU machine used to size
# the benchmark, with one BLAS thread; they fix the unit of the scaled times
NOMINAL_S = {"small_ops": 0.0115, "stream": 0.0061, "draws": 0.0100}
INTERVAL_S = 0.25
MIN_SAMPLES = 15
TRIM = 0.1  # share of samples dropped at each end before averaging

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((64, 16))
_V0 = _rng.standard_normal(16)
_STREAM = None  # made on first use, so workloads that do not stream pay no memory for it


def small_ops(iterations: int = 1000):
    v = _V0
    for _ in range(iterations):
        a = _M @ v
        s = float(np.dot(a, a))
        v = np.clip((_M.T @ a) / (s ** 0.5 + 1.0), -1.0, 1.0)
    return v


def stream(repeats: int = 16):
    global _STREAM
    if _STREAM is None:
        rng = np.random.default_rng(1)
        _STREAM = (rng.standard_normal((1024, 512)), rng.standard_normal(512),
                   rng.standard_normal(1024))
    a, x, y = _STREAM
    for _ in range(repeats):
        z = a @ x
        w = a.T @ y
    return z, w


def draws(blocks: int = 20):
    for i in range(blocks):
        g = np.random.default_rng(i).standard_normal((64, 512))
    return g


KERNELS = {"small_ops": small_ops, "stream": stream, "draws": draws}


class HostClock:
    """Samples a reference kernel now and then, and keeps it out of timed work.

    ``clock()`` is ``time.perf_counter()`` less every second spent in the
    kernel, so intervals measured with it hold only the work. A disabled
    clock never samples, and its ``factor()`` is 1.
    """

    def __init__(self, kernel: str, enabled: bool = True):
        self.kernel = kernel
        self._run = KERNELS[kernel]
        self.enabled = enabled
        self.samples: list[float] = []
        self.paused = 0.0
        self._last = float("-inf")
        if enabled:
            self._run()  # the first call allocates; keep it out of the samples

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self):
        """Time the kernel if ``INTERVAL_S`` has passed since the last time."""
        if self.enabled and time.perf_counter() - self._last >= INTERVAL_S:
            self._sample()

    def top_up(self):
        while self.enabled and len(self.samples) < MIN_SAMPLES:
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        self._run()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += t1 - t0
        self._last = t1

    def factor(self) -> float:
        """Multiply a measured time by this to get it at the nominal speed."""
        if not self.enabled or not self.samples:
            return 1.0
        s = sorted(self.samples)
        cut = int(TRIM * len(s))
        kept = s[cut:len(s) - cut]
        return NOMINAL_S[self.kernel] / (sum(kept) / len(kept))

    def install(self, patches):
        """Sample between the matrix regenerations of a lazy ensemble, too,
        whose single solve runs for seconds without another boundary."""
        from blindcal import model

        original = model.SensingEnsemble.matrix
        tick = self.tick

        def matrix(ensemble, l):
            tick()
            return original(ensemble, l)

        patches.set(model.SensingEnsemble, "matrix", matrix)


class Laps(list):
    """The work time of each item of a unit, in order."""

    def __init__(self, host: HostClock):
        super().__init__()
        self.host = host
        self._t0 = 0.0

    def start(self):
        self.host.tick()
        self._t0 = self.host.clock()

    def stop(self):
        self.append(self.host.clock() - self._t0)
