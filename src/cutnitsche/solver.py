"""Jacobi-preconditioned conjugate gradients, the package's linear solver.

`solve` stops when the true residual relative to ||b|| is at most _TOL,
and raises StagnationError with its iterate when restarts from the exact
residual stop improving it.  At high coefficient contrast that relative
residual floors far above round-off, because it measures against ||b||
alone.  Every iterate the solver returns or raises therefore carries its
normwise backward error ||b - Ax|| / (||A|| ||x|| + ||b||) in inf-norms,
which has no such scale (Rigal & Gaches 1967; Arioli, Duff & Ruiz 1992);
callers accept a stagnated iterate when it is at most BACKWARD_ERROR_TOL.
Its |A| row sums go ``BLOCK`` rows at a time, so a solve holds its
system, its vectors and one row window; np.add.reduceat sums each row
alone along numpy's pairwise tree, so the norm is the whole pass's.

A system with at least ``_SPLIT_NNZ`` stored entries, on a process
allowed two or more CPUs, is solved by two threads.  A second thread
writes rows [mid, n) of each product A p, mid splitting the entries in
half, while the caller writes rows [0, mid); after alpha it does
x += alpha p while the caller updates r and z and takes their dots.
scipy's CSR kernel and numpy's element-wise loops release the GIL, so
the halves overlap.  The bits are the one-thread solve's: each row of
A p is summed by one thread in the kernel's order, the updates are
element-wise, and every dot and norm is one whole-vector call on the
caller, so no reduction changes its order.  The threads hand work over
through two locks held as semaphores, and the caller waits for the
second thread before it reads x or overwrites p.  Smaller systems, where
the handover costs more than half a product saves, run the same
iteration on the caller alone.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import _sparsetools

from .assembly import SparseSystem
from .mesh import blocks

__all__ = [
    "SolveStats", "SolverError", "NotSPDError", "MaxIterationsError",
    "StagnationError", "BACKWARD_ERROR_TOL", "solve",
]

# true residual relative to ||b|| at which a solve has converged
_TOL = 1e-12

# About 450 machine epsilons: stagnated CG iterates of the contrast
# studies reach 1.4e-16 or less, converged solves 9.4e-15 or less.
BACKWARD_ERROR_TOL = 1e-13

# stored entries from which a solve runs on two threads: below it the
# handover costs more than half a product saves (circle plus at contrast
# 1e9: L5 holds 173k entries, L6 673k)
_SPLIT_NNZ = 400_000


class SolverError(RuntimeError):
    pass


class NotSPDError(SolverError):
    """Negative curvature encountered: matrix not SPD, check gamma."""


class MaxIterationsError(SolverError):
    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class StagnationError(SolverError):
    """True residual stopped improving above tol (round-off floor)."""

    def __init__(self, message, stats, x):
        super().__init__(message)
        self.stats = stats
        self.x = x


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    relative_residual: float
    method: str
    backward_error: float


def _stats(it: int, a, b: np.ndarray, x: np.ndarray, r: np.ndarray,
           bnorm: float) -> SolveStats:
    """Stats of the iterate x with true residual r = b - Ax.  np.maximum
    keeps a NaN row sum as one max would.  Every row of a stores its
    positive diagonal, so no row sum is empty."""
    a_norm = 0.0
    for rows in blocks(a.shape[0]):
        lo, hi = a.indptr[rows.start], a.indptr[rows.stop]
        a_norm = np.maximum(a_norm, np.add.reduceat(np.abs(a.data[lo:hi]),
                                                    a.indptr[rows] - lo).max())
    den = float(a_norm) * float(np.abs(x).max()) + float(np.abs(b).max())
    return SolveStats(it, math.sqrt(r @ r) / bnorm, "cg_jacobi",
                      float(np.abs(r).max()) / den)


def _matvec(a, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ v`` for a CSR matrix, written into ``out``: scipy's kernel
    adds each row's products onto out's entry in turn, so from the zero
    given here it sums them as ``a @ v`` does, without a new vector."""
    _rows_product(a, v, out, 0, a.shape[0])()
    return out


def _rows_product(a, v: np.ndarray, out: np.ndarray, lo: int, hi: int):
    """A job that writes rows [lo, hi) of ``a @ v`` into the same rows of
    ``out``, each row summed as ``_matvec`` sums it.  The kernel reads
    the row pointers from lo on, which index the whole entry arrays, so
    the rows need no copy.  A job over no rows does nothing: the
    kernel's call alone would cost a one-thread solve about a
    microsecond an iteration."""
    if lo == hi:
        return lambda: None
    rows, indptr = out[lo:hi], a.indptr[lo:hi + 1]

    def job():
        rows.fill(0.0)
        _sparsetools.csr_matvec(hi - lo, a.shape[1], indptr, a.indices, a.data, v, rows)

    return job


def _axpy(y: np.ndarray, alpha: float, v: np.ndarray, step: np.ndarray) -> None:
    """``y += alpha * v``, the product written into ``step``."""
    y += np.multiply(alpha, v, out=step)


class _Inline:
    """Runs each job at once on the caller's thread."""

    def start(self, job) -> None:
        job()

    def wait(self) -> None:
        pass

    def close(self) -> None:
        pass


class _Worker:
    """Runs one job at a time on a second thread.  ``start`` hands a job
    over, ``wait`` blocks until it is done and re-raises what it raised,
    ``close`` waits for a running job and ends the thread.  Each lock is
    held while its event has not happened, so neither side spins."""

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = None
        self._error = None
        self._busy = False
        self._thread = threading.Thread(target=self._run, name="cg-rows", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self._go.acquire()
            job = self._job
            if job is None:
                return
            try:
                job()
            except BaseException as exc:
                self._error = exc
            self._done.release()

    def start(self, job) -> None:
        self._job = job
        self._busy = True
        self._go.release()

    def wait(self) -> None:
        if self._busy:
            self._done.acquire()
            self._busy = False
            error, self._error = self._error, None
            if error is not None:
                raise error

    def close(self) -> None:
        if self._busy:
            self._done.acquire()
            self._busy = False
        self._job = None
        self._go.release()
        self._thread.join()


def _split_rows(a) -> int:
    """The row that halves a's entries when a solve of a runs on two
    threads, else 0, which gives the caller's one-thread job every row."""
    if a.nnz < _SPLIT_NNZ:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return 0
    return int(np.searchsorted(a.indptr, a.nnz // 2))


def solve(system: SparseSystem,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the reduced system to a true relative residual <= _TOL
    (at most max_iter iterations, default 20 n).  A non-finite recurrence
    residual raises SolverError at once, since no later iterate can mend it.

    The iteration updates preallocated vectors in place, the products
    with the matrix among them; it computes the same values, in the same
    order, as the textbook expressions, on one thread or, for a large
    system, on two (see the module docstring).
    """
    a = system.matrix
    b = system.rhs
    n = b.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    bnorm = math.sqrt(b @ b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, "cg_jacobi", 0.0)

    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise NotSPDError("matrix not SPD (nonpositive diagonal) - check gamma")
    inv_diag = 1.0 / diag
    del diag

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    ap = np.empty(n)
    mid = _split_rows(a)
    # rows [mid, n) of A p, and x += alpha p, go to the worker
    worker = _Worker() if mid else _Inline()
    lower, upper = _rows_product(a, p, ap, 0, mid), _rows_product(a, p, ap, mid, n)
    rz = float(r @ z)
    it = 0
    best_true = np.inf
    stalls = 0
    try:
        while it < max_iter:
            it += 1
            worker.start(upper)
            lower()
            worker.wait()
            pap = float(p @ ap)
            if pap <= 0.0:
                raise NotSPDError("matrix not SPD (negative curvature in CG) - check gamma")
            alpha = rz / pap
            worker.start(partial(_axpy, x, alpha, p, step))
            # z is rewritten from r before it is read again
            r -= np.multiply(alpha, ap, out=z)
            rnorm = math.sqrt(r @ r)
            if not math.isfinite(rnorm):
                raise SolverError(f"CG residual is {rnorm} at iteration {it}: the system "
                                  "or its scaling is not finite")
            if rnorm <= _TOL * bnorm:
                worker.wait()
                np.subtract(b, _matvec(a, x, ap), out=r)
                true_r = math.sqrt(r @ r)
                if true_r <= _TOL * bnorm:
                    return x, _stats(it, a, b, x, r, bnorm)
                # Recurrence residual converged but the true residual did
                # not: restart from the exact residual.  Two consecutive
                # restarts without improvement mean the round-off floor is
                # reached and more iterations cannot help.
                if true_r >= 0.5 * best_true:
                    stalls += 1
                else:
                    stalls = 0
                best_true = min(best_true, true_r)
                if stalls >= 2:
                    raise StagnationError(
                        f"CG stagnated at relative residual {true_r / bnorm:.3e} "
                        f"above tol={_TOL:g} (round-off floor, {it} iterations)",
                        _stats(it, a, b, x, r, bnorm),
                        x,
                    )
                np.multiply(inv_diag, r, out=z)
                p[:] = z
                rz = float(r @ z)
                continue
            np.multiply(inv_diag, r, out=z)
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            worker.wait()
            p *= beta
            p += z
    finally:
        worker.close()
    stats = _stats(it, a, b, x, b - _matvec(a, x, ap), bnorm)
    raise MaxIterationsError(
        f"CG did not reach tol={_TOL:g} in {max_iter} iterations "
        f"(relative residual {stats.relative_residual:.3e})",
        stats,
    )
