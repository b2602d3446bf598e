"""Jacobi-preconditioned conjugate gradients, the package's linear solver.

`solve` stops when the true residual relative to ||b|| is at most _TOL,
and raises StagnationError with its iterate when restarts from the exact
residual stop improving it.  At high coefficient contrast that relative
residual floors far above round-off, because it measures against ||b||
alone.  Every iterate the solver returns or raises therefore carries its
normwise backward error ||b - Ax|| / (||A|| ||x|| + ||b||) in inf-norms,
which has no such scale (Rigal & Gaches 1967; Arioli, Duff & Ruiz 1992);
callers accept a stagnated iterate when it is at most BACKWARD_ERROR_TOL.
Its norms go ``BLOCK`` rows at a time, so a solve holds its system, its
vectors and one row window; np.add.reduceat sums each |A| row alone along
numpy's pairwise tree, so the norm is the whole pass's.

The loop holds six n-vectors, x, r, z, p, A p and the inverse diagonal,
plus ``step``, the product alpha p.  None of them outlives the loop: it
runs in its own function, which returns the error to raise rather than
raising it, so a raised StagnationError holds only its iterate and stats.

A system with at least ``_SPLIT_NNZ`` stored entries, on a process
allowed two or more CPUs, is solved by two threads.  A helper thread
writes rows [mid, n) of each product A p, mid splitting the entries in
half, while the caller writes rows [0, mid); after alpha it does
x += alpha p while the caller updates r and z and takes their dots.
scipy's CSR kernel and numpy's element-wise loops release the GIL, so
the halves overlap.  The bits are the one-thread solve's: each row of
A p is summed by one thread in the kernel's order, the updates are
element-wise, and every dot and norm is one whole-vector call on the
caller, so no reduction changes its order.  The caller hands each call
over on one ``queue.SimpleQueue`` and waits for its end on another
before it reads x or overwrites p.  Smaller systems, where the handover
costs more than half a product saves, make the same calls on the caller
alone.
"""
from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

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
    """Stats of the iterate x with true residual r = b - Ax.  Its four
    inf-norms, |A| row sums among them, go ``BLOCK`` rows at a time: max
    is exact, and np.maximum keeps a NaN as one max would.  Every row of
    a stores its positive diagonal, so no row sum is empty."""
    norms = np.zeros(4)  # of |A|, x, b and r
    for rows in blocks(a.shape[0]):
        lo, hi = a.indptr[rows.start], a.indptr[rows.stop]
        np.maximum(norms, [np.add.reduceat(np.abs(a.data[lo:hi]), a.indptr[rows] - lo).max(),
                           np.abs(x[rows]).max(), np.abs(b[rows]).max(), np.abs(r[rows]).max()],
                   out=norms)
    a_norm, x_norm, b_norm, r_norm = norms.tolist()
    return SolveStats(it, math.sqrt(r @ r) / bnorm, "cg_jacobi",
                      r_norm / (a_norm * x_norm + b_norm))


def _rows(a, v: np.ndarray, out: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of ``a @ v`` for a CSR matrix, all rows by default,
    written into the same rows of ``out``, which is returned.  scipy's
    kernel adds each row's products onto out's entry in turn, so from the
    zero given here it sums them as ``a @ v`` does, without a new vector.
    It reads the row pointers from lo on, which index the whole entry
    arrays, so the rows need no copy.  An empty range does nothing: the
    kernel's call alone would cost a one-thread solve about a microsecond
    an iteration."""
    if hi is None:
        hi = a.shape[0]
    if lo < hi:
        rows = out[lo:hi]
        rows.fill(0.0)
        _sparsetools.csr_matvec(hi - lo, a.shape[1], a.indptr[lo:hi + 1], a.indices, a.data,
                                v, rows)
    return out


def _axpy(y: np.ndarray, alpha: float, v: np.ndarray, step: np.ndarray) -> None:
    """``y += alpha * v``, the product written into ``step``."""
    y += np.multiply(alpha, v, out=step)


class _Helper:
    """Runs calls in turn on a second thread, or at once on the caller's
    unless ``threaded``.  ``wait``, once after each ``start``, blocks until
    that call is done and re-raises what it raised; ``close`` lets a
    running call finish and joins the thread."""

    def __init__(self, threaded: bool) -> None:
        self._thread = None
        if threaded:
            self._calls, self._done = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=self._run, name="cg-rows", daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while (call := self._calls.get()) is not None:
            fn, args = call
            try:
                fn(*args)
            except BaseException as exc:
                self._done.put(exc)
            else:
                self._done.put(None)

    def start(self, fn, *args) -> None:
        if self._thread is None:
            fn(*args)
        else:
            self._calls.put((fn, args))

    def wait(self) -> None:
        if self._thread is not None and (error := self._done.get()) is not None:
            raise error

    def close(self) -> None:
        if self._thread is not None:
            self._calls.put(None)
            self._thread.join()


def _split_rows(a) -> int:
    """The row that halves a's entries when a solve of a runs on two
    threads, else 0, which leaves the caller no rows and the helper,
    running on the caller, every row."""
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
    b = system.rhs
    if max_iter is None:
        max_iter = 20 * b.shape[0]
    bnorm = math.sqrt(b @ b)
    if bnorm == 0.0:
        return np.zeros(b.shape[0]), SolveStats(0, 0.0, "cg_jacobi", 0.0)
    if np.any(system.matrix.diagonal() <= 0.0):
        raise NotSPDError("matrix not SPD (nonpositive diagonal) - check gamma")
    outcome = _iterate(system.matrix, b, bnorm, max_iter)
    if isinstance(outcome, SolverError):
        try:
            raise outcome
        finally:
            # the traceback keeps this frame; it must not keep the error
            del outcome
    return outcome


def _iterate(a, b: np.ndarray, bnorm: float,
             max_iter: int) -> tuple[np.ndarray, SolveStats] | SolverError:
    """The CG loop of ``solve``: (x, stats) of a converged iterate, or the
    error for ``solve`` to raise, returned rather than raised so that no
    traceback keeps this frame."""
    n = b.shape[0]
    inv_diag = 1.0 / a.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    ap = np.empty(n)
    mid = _split_rows(a)
    # rows [mid, n) of A p, and x += alpha p, go to the helper
    helper = _Helper(threaded=mid > 0)
    rz = float(r @ z)
    it = 0
    best_true = np.inf
    stalls = 0
    try:
        while it < max_iter:
            it += 1
            helper.start(_rows, a, p, ap, mid, n)
            _rows(a, p, ap, 0, mid)
            helper.wait()
            pap = float(p @ ap)
            if pap <= 0.0:
                return NotSPDError("matrix not SPD (negative curvature in CG) - check gamma")
            alpha = rz / pap
            helper.start(_axpy, x, alpha, p, step)
            # z is rewritten from r before it is read again
            r -= np.multiply(alpha, ap, out=z)
            rnorm = math.sqrt(r @ r)
            if not math.isfinite(rnorm):
                return SolverError(f"CG residual is {rnorm} at iteration {it}: the system "
                                   "or its scaling is not finite")
            if rnorm <= _TOL * bnorm:
                helper.wait()
                np.subtract(b, _rows(a, x, ap), out=r)
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
                    return StagnationError(
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
            helper.wait()
            p *= beta
            p += z
    finally:
        helper.close()
    stats = _stats(it, a, b, x, b - _rows(a, x, ap), bnorm)
    return MaxIterationsError(
        f"CG did not reach tol={_TOL:g} in {max_iter} iterations "
        f"(relative residual {stats.relative_residual:.3e})",
        stats,
    )
