"""The host's momentary speed, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants.  Their
load changes how fast one core runs the same code by a fifth or more
within seconds, and the two cores of a 2-vCPU guest vary independently,
so a probe on another core says nothing about this one.  A
:class:`SpeedClock` therefore runs :func:`reference_kernel` on the
operation's own thread, at the operation's own boundaries (an RHS call,
a compiler pass) every ``SAMPLE_INTERVAL`` seconds, and scales each
stretch of the operation by ``REFERENCE_S`` over the kernel's wall
around it: the seconds the operation would take on a host that runs the
kernel in ``REFERENCE_S``.  The kernel's own time is left out.  The
kernel mixes what the workloads spend their time on (interpreted Python
loops, batched NumPy arithmetic, small dense LU) and calls nothing from
``repro``, so no change to the program moves it.  Interpreted loops
alone react to contention more than the batched NumPy of the ensemble
workload does, and whole-array NumPy alone less than the compiler does;
the mix tracks both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

__all__ = ["REFERENCE_S", "SpeedClock", "reference_kernel", "kernel_s"]

#: the kernel's median wall on a 2-vCPU x86-64 cloud VM (Python 3.11,
#: NumPy with one OpenBLAS thread); it only sets the unit of ``op_s``
REFERENCE_S = 0.006
#: kernel calls per sample; the sample is their median
KERNEL_REPS = 3
#: seconds of operation between two kernel samples
SAMPLE_INTERVAL = 0.2

_MATRIX = np.eye(48) * 4.0 + np.tri(48, k=1) * 0.25
_LANES = np.random.default_rng(0).random((256, 60))


def reference_kernel() -> float:
    """About 6 ms of interpreted loops, whole-array NumPy over a
    256 x 60 batch and small dense LU solves, in similar shares."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(15000):
        acc += (i * 0.5) % 3.0
        table[i & 127] = acc
    a = _LANES
    for _ in range(60):
        a = np.sqrt(a * a + 1.0) - 0.5
    b = a[0, :48].copy()
    for _ in range(20):
        lu = scipy.linalg.lu_factor(_MATRIX)
        b = scipy.linalg.lu_solve(lu, b)
    return acc + float(b.sum())


def kernel_s() -> float:
    """One sample of the kernel's wall time (median of ``KERNEL_REPS``)."""
    walls = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


class SpeedClock:
    """Time of one stretch of work (an operation, a set-up) at the
    reference speed.

    ``start()`` and ``stop()`` take a kernel sample each; in between,
    ``tick()`` takes one when ``SAMPLE_INTERVAL`` has passed since the
    last, and only while ``sampling`` is on (traced operations keep it
    off, so spans hold no kernel time).  Each stretch between two samples
    counts ``REFERENCE_S`` over their mean times its wall.  ``now()`` is
    a wall clock that stops while the kernel runs.
    """

    def __init__(self) -> None:
        self.sampling = True
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._paused = 0.0
        self._k = 0.0
        self._t = 0.0
        self._next = float("inf")

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def start(self) -> None:
        self.wall_s = self.scaled_s = 0.0
        self._k = self._kernel()
        self._t = self.now()
        self._next = time.perf_counter() + SAMPLE_INTERVAL

    def tick(self) -> None:
        if self.sampling and time.perf_counter() >= self._next:
            self._sample()

    def stop(self) -> float:
        """End the stretch; returns its time at the reference speed."""
        self._sample()
        self._next = float("inf")
        return self.scaled_s

    def ticking(self, fn):
        """``fn`` calling :meth:`tick` first; ``fn`` itself when not sampling."""
        if not self.sampling:
            return fn
        tick = self.tick

        def ticked(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return ticked

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        k = kernel_s()
        self._paused += time.perf_counter() - t0
        return k

    def _sample(self) -> None:
        stretch = self.now() - self._t
        k = self._kernel()
        self.wall_s += stretch
        self.scaled_s += stretch * REFERENCE_S * 2.0 / (self._k + k)
        self._k = k
        self._t = self.now()
        self._next = time.perf_counter() + SAMPLE_INTERVAL
