"""CPU-speed calibration interleaved with the timed work.

On a shared machine the speed of one vCPU drifts with what other tenants
run: the same pass can take 1.8 s in one second and 3.2 s a few seconds
later, with process CPU time equal to wall time. A calibration kernel timed
before or after a pass tracks that drift poorly, so :class:`Sampler` times
a small fixed numpy kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
seconds *during* the pass, on the same thread. Each tick runs the kernel
twice and times the second call, so what the workload left in the caches
does not change the kernel's time. A time measured under the
sampler is reported at a reference speed::

    calibrated seconds = wall seconds * REF_KERNEL_S / mean kernel time

The kernel is the benchmark's own code and never calls iplfilter, so a
change to the package moves the wall time and not the kernel. It does what
the package's hot loops do (short Python loops of numpy calls on small
arrays: ``logaddexp``, ``where``, slicing, a small matmul and ``exp``),
because such code slows with contention more than a pure-Python loop does.
It costs about 1.5% of the timed work.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# The kernel's duration at the reference speed: calibrated seconds are
# seconds on a CPU where one kernel call takes this long.
REF_KERNEL_S = 1e-4

_rng = np.random.default_rng(0)
_E = _rng.standard_normal((16, 9))
_M = _rng.standard_normal((9, 9))
_ALLOW = _rng.random(9) > 0.3


def kernel() -> float:
    x = _E[0].copy()
    for t in range(1, _E.shape[0]):
        acc = x.copy()
        acc[1:] = np.logaddexp(acc[1:], x[:-1])
        acc[2:] = np.where(_ALLOW[2:], np.logaddexp(acc[2:], x[:-2]), acc[2:])
        x = acc + _E[t]
    return float(np.exp(_E @ _M - x.max()).sum())


class Sampler:
    """Times :func:`kernel` every ``INTERVAL_S`` s while active.

    ``samples`` holds (start, duration) of every kernel call. Use as a
    context manager; only one sampler may be active in a process.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a slow kernel call must not nest
            return
        self._busy = True
        try:
            kernel()  # untimed: the workload has just evicted the kernel's data from cache
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken in [start, end]."""
        ds = [d for t, d in self.samples if start <= t <= end]
        if not ds:
            raise RuntimeError("no calibration sample in the timed interval")
        return sum(ds) / len(ds)

    def calibrated(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed."""
        return (end - start) * REF_KERNEL_S / self.mean_kernel_s(start, end)
