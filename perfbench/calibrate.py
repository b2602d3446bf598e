"""Machine speed, measured with a fixed reference kernel.

The CPU a worker runs on does not run at a steady speed: on a shared host
the same level-4 solve took 0.24 s at one minute and 0.44 s a few minutes
later, with process CPU time tracking wall time (the slowdown is not
descheduling, so CPU time does not remove it), and the two CPUs of a
2-CPU box slow down independently.  Raw wall times of runs made minutes
apart therefore spread by more than any useful bound.

The reference kernel does not depend on the package: a pure-Python loop,
a scipy CG on a fixed 2-D Laplacian (sparse products and vector updates,
as in the package's solver) and many small numpy calls (as in its
geometry code).  ``NOMINAL_S`` is a typical time of one run on a 2-CPU
Intel Xeon VM with one BLAS thread; ``NOMINAL_S / t`` for a run that took
``t`` is the machine's speed at that moment.

* ``Sampler`` runs the kernel from a SIGALRM handler ``INTERVAL_S`` of
  wall time after the previous sample while a pass runs, in the same process and
  on the same CPU, and removes the kernel's own time from the pass.  The
  pass time times the mean speed of the samples is its time at nominal
  speed.  Samples spread over the whole pass follow the speed changes
  within it; samples taken only before and after an operation do not.
* ``speed`` runs the kernel back to back, for a time measured right after
  a short stretch such as the set-up.

A change to the package moves a rescaled time as it moves the raw time; a
change of machine speed moves both the raw time and the kernel's, and
cancels.
"""
from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# typical time (s) of one kernel run on a 2-CPU Intel Xeon VM, one BLAS thread
NOMINAL_S = 0.0125
# wall time from the end of one sample of a pass to the next
INTERVAL_S = 0.25
# kernel runs behind one ``speed`` reading
SPEED_RUNS = 20

_GRID = 128
_CG_ITERATIONS = 30
_LOOP = 60_000
_SMALL_CALLS = 600


@functools.cache
def _inputs():
    t = sp.diags([-np.ones(_GRID - 1), 2.0 * np.ones(_GRID), -np.ones(_GRID - 1)], [-1, 0, 1])
    eye = sp.eye(_GRID)
    matrix = (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()
    return matrix, np.ones(matrix.shape[0]), np.random.default_rng(1).random((50, 2))


def kernel() -> float:
    """The reference kernel: a fixed amount of work."""
    matrix, rhs, points = _inputs()
    total = 0
    for i in range(_LOOP):
        total += i * i
    # rtol far below reach: always _CG_ITERATIONS iterations
    spla.cg(matrix, rhs, maxiter=_CG_ITERATIONS, rtol=1e-30)
    farthest = 0.0
    for _ in range(_SMALL_CALLS):
        d = points - points[0]
        farthest += float(np.hypot(d[:, 0], d[:, 1]).max())
    return total + farthest


def _timed_kernel(clock) -> float:
    t0 = clock()
    kernel()
    return clock() - t0


def speed(runs: int = SPEED_RUNS, clock=time.perf_counter) -> float:
    """Mean speed over ``runs`` kernel runs back to back."""
    _timed_kernel(clock)   # inputs built, code warm
    return statistics.fmean(NOMINAL_S / _timed_kernel(clock) for _ in range(runs))


class Sampler:
    """Samples the machine's speed ``interval`` seconds of wall time after
    the previous sample.

    Only the main thread receives the signal; a handler due during a long
    call into C runs when the call returns.
    """

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter):
        self.interval = interval
        self.clock = clock
        self.samples: list[float] = []   # kernel times (s)
        self.spent = 0.0                 # wall time inside the handler (s)
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = self.clock()
        kernel()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent += self.clock() - t0
        # one-shot, re-armed after the sample: samples never overlap
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Sampler":
        kernel()   # inputs built before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed of the samples; 1 when there are none."""
        if not self.samples:
            return 1.0
        return statistics.fmean(NOMINAL_S / t for t in self.samples)
