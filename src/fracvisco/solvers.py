"""SPD linear solvers with enforced residual verification.

Direct solves use a dense Cholesky factorization up to ``dense_limit``
unknowns and a sparse LU beyond it; iterative solves use conjugate gradients
with a diagonal preconditioner.  Every solve is verified against the
requested relative residual; violations raise ``SolverError`` carrying the
achieved residual, and a non-finite right-hand side is refused before solving.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrs

__all__ = ["SolverError", "SpdSolver", "make_spd_solver"]

# Largest system solved by dense Cholesky.  On P1 elasticity mass-plus-
# stiffness matrices sparse LU solves faster from between 220 and 264
# unknowns on (``benchmarks/bench_kernels.py``, direct_solve rows).
DENSE_LIMIT = 240


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
                self._lu = None
            else:
                self._lu = spla.splu(self.a.tocsc())
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
                x = self._lu.solve(b)
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


def make_spd_solver(a_csr, method="direct", rtol=1e-10,
                    dense_limit=DENSE_LIMIT):
    return SpdSolver(a_csr, method=method, rtol=rtol, dense_limit=dense_limit)
