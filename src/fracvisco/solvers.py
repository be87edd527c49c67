"""SPD linear solvers with enforced residual verification.

Direct solves use a banded Cholesky factorization: the unknowns are ordered
once by reverse Cuthill-McKee, which gives the P1 matrices of
``fem.build_rect_mesh`` meshes a half-bandwidth of about 2 (min(nx, ny) + 1)
(17 at 8x8, 35 at 16x16, 53 at 25x25, 201 at 100x100), and LAPACK
``pbtrf``/``pbtrs`` factor and solve in that order.  Iterative solves use
conjugate gradients with a diagonal preconditioner.  Every solve is verified
against the requested relative residual on the original matrix; violations
raise ``SolverError`` carrying the achieved residual, and a non-finite
right-hand side is refused before solving.  A matrix that is not finite or
not positive definite is refused at factorization.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["SolverError", "SpdSolver", "make_spd_solver"]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpdSolver:
    """Factorized (or preconditioned-iterative) solver for a fixed SPD matrix."""

    def __init__(self, a_csr, method="direct", rtol=1e-10):
        if method not in ("direct", "cg"):
            raise ValueError(f"unknown solver method {method!r}")
        self.a = sp.csr_matrix(a_csr)
        self.method = method
        self.rtol = rtol
        if method == "direct":
            self._perm, self._band = _banded_factor(self.a)
        else:
            d = self.a.diagonal()
            if np.any(d <= 0.0):
                raise SolverError("matrix diagonal not positive; not SPD")
            self._minv = 1.0 / d
            self._maxiter = 20 * self.a.shape[0]

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        nb = np.linalg.norm(b)
        if not math.isfinite(nb):
            raise SolverError("right-hand side is not finite")
        if nb == 0.0:
            return np.zeros_like(b)
        if self.method == "direct":
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


def _banded_factor(a):
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


def make_spd_solver(a_csr, method="direct", rtol=1e-10, dense_limit=0):
    # dense_limit stays only because perfbench reads its default for its run
    # metadata: 0, no system is solved densely, and no other value is valid
    if dense_limit != 0:
        raise ValueError("dense_limit must be 0: there is no dense solver")
    return SpdSolver(a_csr, method=method, rtol=rtol)
