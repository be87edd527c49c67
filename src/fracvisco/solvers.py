"""SPD linear solvers with enforced residual verification.

Direct solves use a dense Cholesky factorization up to ``dense_limit``
unknowns and a banded Cholesky factorization beyond it: the unknowns are
ordered once by reverse Cuthill-McKee, which gives the P1 matrices of
``fem.build_rect_mesh`` meshes a half-bandwidth of about 2 (min(nx, ny) + 1)
(35 at 16x16, 53 at 25x25, 201 at 100x100), and LAPACK ``pbtrf``/``pbtrs``
factor and solve in that order.  Iterative solves use conjugate gradients
with a diagonal preconditioner.  Every solve is verified against the
requested relative residual on the original matrix; violations raise
``SolverError`` carrying the achieved residual, and a non-finite right-hand
side is refused before solving.  A matrix that is not finite or not positive
definite is refused at factorization.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["SolverError", "SpdSolver", "make_spd_solver"]

# Largest system solved by dense Cholesky.  On P1 elasticity mass-plus-
# stiffness matrices the two tie at 84 to 112 unknowns, the banded solve is
# 15-20% faster at 144 and 1.5x faster from 220 on (``benchmarks/
# bench_kernels.py``, direct_solve rows).  The limit keeps 8x8 meshes (144
# unknowns) on the dense path: the banded factor changes their results in the
# last digits, and ``test_residual_tracks_solver_tolerance`` compares two
# energy-ledger residuals that differ only at that level.
DENSE_LIMIT = 144


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpdSolver:
    """Factorized (or preconditioned-iterative) solver for a fixed SPD matrix."""

    def __init__(self, a_csr, method="direct", rtol=1e-10,
                 dense_limit=DENSE_LIMIT, maxiter=None):
        if method not in ("direct", "cg"):
            raise ValueError(f"unknown solver method {method!r}")
        self.a = sp.csr_matrix(a_csr)
        self.method = method
        self.rtol = rtol
        n = self.a.shape[0]
        if method == "direct":
            if n <= dense_limit:
                # lower Cholesky factor; cho_factor checks the matrix finite
                self._chol, _ = sla.cho_factor(self.a.toarray(), lower=True)
                self._band = None
            else:
                self._perm, self._band = _banded_cholesky(self.a)
                self._chol = None
        else:
            d = self.a.diagonal()
            if np.any(d <= 0.0):
                raise SolverError("matrix diagonal not positive; not SPD")
            self._minv = 1.0 / d
            self._maxiter = maxiter or 20 * n

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        nb = np.linalg.norm(b)
        if not math.isfinite(nb):
            raise SolverError("right-hand side is not finite")
        if nb == 0.0:
            return np.zeros_like(b)
        if self.method == "direct":
            if self._chol is not None:
                # LAPACK potrs itself: cho_solve's argument checks would
                # repeat the finite check on b made through nb above and cost
                # more than the solve on small systems; the residual is
                # checked below
                x, info = dpotrs(self._chol, b, lower=1)
                if info != 0:
                    raise SolverError(f"potrs failed (info={info})")
            else:
                xp, info = dpbtrs(self._band, b[self._perm], lower=1)
                if info != 0:
                    raise SolverError(f"pbtrs failed (info={info})")
                x = np.empty_like(xp)
                x[self._perm] = xp
        else:
            precond = spla.LinearOperator(self.a.shape,
                                          matvec=lambda v: self._minv * v)
            x, info = spla.cg(self.a, b, rtol=self.rtol * 1e-2, atol=0.0,
                              M=precond, maxiter=self._maxiter)
            if info != 0:
                res = np.linalg.norm(self.a @ x - b) / nb
                raise SolverError(f"cg did not converge (info={info})",
                                  residual=res)
        res = np.linalg.norm(self.a @ x - b) / nb
        if not res <= self.rtol:
            raise SolverError(
                f"solve residual {res:.3e} exceeds tolerance {self.rtol:.1e}",
                residual=res)
        return x


def _banded_cholesky(a):
    """Reverse Cuthill-McKee order of ``a`` and the lower Cholesky factor of
    the reordered matrix in LAPACK band storage, ``band[i - j, j] = L[i, j]``
    for the (bw + 1) x n band."""
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    low = sp.tril(a[perm][:, perm], format="coo")
    low.sum_duplicates()
    offset = low.row - low.col
    band = np.zeros((offset.max(initial=0) + 1, a.shape[0]))
    band[offset, low.col] = low.data
    if not np.isfinite(band).all():
        raise SolverError("matrix is not finite")
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"matrix is not positive definite (pbtrf info={info})")
    return perm, band


def make_spd_solver(a_csr, method="direct", rtol=1e-10,
                    dense_limit=DENSE_LIMIT):
    return SpdSolver(a_csr, method=method, rtol=rtol, dense_limit=dense_limit)
