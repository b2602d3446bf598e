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
"""
from __future__ import annotations

import math
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
    out.fill(0.0)
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, v, out)
    return out


def solve(system: SparseSystem,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the reduced system to a true relative residual <= _TOL
    (at most max_iter iterations, default 20 n).  A non-finite recurrence
    residual raises SolverError at once, since no later iterate can mend it.

    The iteration updates preallocated vectors in place, the products
    with the matrix among them; it computes the same values, in the same
    order, as the textbook expressions.
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
    rz = float(r @ z)
    it = 0
    best_true = np.inf
    stalls = 0
    while it < max_iter:
        it += 1
        _matvec(a, p, ap)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NotSPDError("matrix not SPD (negative curvature in CG) - check gamma")
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rnorm = math.sqrt(r @ r)
        if not math.isfinite(rnorm):
            raise SolverError(f"CG residual is {rnorm} at iteration {it}: the system "
                              "or its scaling is not finite")
        if rnorm <= _TOL * bnorm:
            np.subtract(b, _matvec(a, x, ap), out=r)
            true_r = math.sqrt(r @ r)
            if true_r <= _TOL * bnorm:
                return x, _stats(it, a, b, x, r, bnorm)
            # Recurrence residual converged but the true residual did not:
            # restart from the exact residual.  Two consecutive restarts
            # without improvement mean the round-off floor is reached and
            # more iterations cannot help.
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
        p *= beta
        p += z
    stats = _stats(it, a, b, x, b - _matvec(a, x, ap), bnorm)
    raise MaxIterationsError(
        f"CG did not reach tol={_TOL:g} in {max_iter} iterations "
        f"(relative residual {stats.relative_residual:.3e})",
        stats,
    )
