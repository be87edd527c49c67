"""SPD linear solves by banded Cholesky with enforced backward-error checks.

LAPACK ``pbtrf``/``pbtrs`` factor and solve the matrix in the order it is
given, with the half-bandwidth of that order: ``fem.assemble`` numbers the
free dofs in reverse Cuthill-McKee order, so the step matrices of a run come
banded (half-bandwidth 17 at 8x8, 35 at 16x16, 53 at 25x25) and a solve
needs no permutation.  The factor is the upper one, A = U^T U, in LAPACK
upper band storage, so ``pbtrs`` sweeps U^T y = b and then U x = y.  Both
sweeps run through the fast ``tbsv`` variants; the lower factor's
transposed sweep L^T x = y measured 2 to 3 times slower than the other
three (one BLAS thread, OpenBLAS), and the whole checked solve with the
lower factor 1.6 times slower at nf = 544 and 1300.  A matrix that is not
finite or not positive definite is refused at factorization, and a
non-finite right-hand side before solving.

Every solve is checked by the normwise backward error of its solution
(Rigal & Gaches, J. ACM 14 (1967) 543; Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., section 7.1),

    eta = ||b - A x||_2 / (||A||_inf ||x||_2 + ||b||_2),

the smallest relative change of A and b (A measured by ||A||_inf, which
bounds ||A||_2 for a symmetric matrix) that x solves exactly.  ||A||_inf is
taken once, at factorization.  A solve that fails ``eta <= tol`` (a NaN
fails) raises ``SolverError`` carrying eta.  ``tol`` is the a-priori bound
of a banded Cholesky solve of half-bandwidth bw, computed at factorization:
Higham's Theorem 10.4 gives (A + dA) x = b with |dA| <= g(3 bw + 4) |R^T||R|,
g(n) = n u / (1 - n u), since every inner product of the factorization and
of the two triangular solves has at most bw + 1 terms; Cauchy-Schwarz bounds
the entries of |R^T||R| by max a_ii and its rows by 2 bw + 1 entries, so
eta <= g(3 bw + 4) (2 bw + 1), and forming the residual adds at most
g(2 bw + 2).  That is 2.2e-13 at bw = 17 and 1.1e-11 at bw = 129, whatever
the conditioning; the solves of this package measure 4e-17 to 1.4e-16 from
8x8 to 128x128 meshes, and a solution with a random relative error of 1e-8
has eta of about 3e-9.

A solve costs one ``pbtrs``, one residual product and three norms, of b, x
and the residual.  A norm is one BLAS ``ddot`` and a square root, and the
scaled ``dnrm2`` when the sum of squares comes out 0, subnormal or infinite:
the norms feed only the check, so their last bits are free, but their range
is that of the vector, so a right-hand side as small as 1e-170 or as large
as 1e160 is solved and checked as it is, and only an exactly zero one takes
the shortcut.  Products with a CSR matrix go through ``csr_product``, which
binds the arguments of the kernel behind scipy's ``a @ x``
(``scipy.sparse._sparsetools.csr_matvec``) once and calls it without scipy's
dispatch: the same kernel on the same zeroed output, so bit for bit the same
product.  ``_sparsetools`` is private scipy API;
``tests/test_fem.py::TestMatvec`` fails if it moves or changes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import ddot, dnrm2
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import _sparsetools

__all__ = ["SolverError", "SpdSolver", "csr_product", "make_spd_solver"]

_UNIT = 0.5 * np.finfo(np.float64).eps     # unit roundoff u = 2**-53
_TINY = np.finfo(np.float64).tiny           # smallest normal number


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpdSolver:
    """Banded Cholesky factor of a fixed SPD matrix in its given order,
    solved with a check of the solution's backward error against ``tol``
    on every solve."""

    def __init__(self, a_csr):
        self.a = sp.csr_matrix(a_csr, dtype=np.float64)
        self._band = _banded_factor(self.a)
        bw = self._band.shape[0] - 1
        self.tol = _gamma(3 * bw + 4) * (2 * bw + 1) + _gamma(2 * bw + 2)
        # ||A||_inf; no row is empty, as every row holds its positive pivot
        self._norm = float(np.add.reduceat(np.abs(self.a.data),
                                           self.a.indptr[:-1]).max())
        self._product = csr_product(self.a)
        self._r = np.empty(self.a.shape[0])

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        nb = _norm2(b)
        if not math.isfinite(nb):
            raise SolverError("right-hand side is not finite")
        if nb == 0.0:
            return np.zeros_like(b)
        x, info = dpbtrs(self._band, b, lower=0)
        if info != 0:
            raise SolverError(f"pbtrs failed (info={info})")
        r = self._product(x, self._r)
        r -= b
        eta = _norm2(r) / (self._norm * _norm2(x) + nb)
        if not eta <= self.tol:
            raise SolverError(
                f"solve backward error {eta:.3e} exceeds tolerance "
                f"{self.tol:.1e}", residual=eta)
        return x


def _norm2(v):
    """||v||_2: one ``ddot`` where the sum of squares is a normal number,
    the scaled ``dnrm2`` where it under- or overflowed (a NaN stays NaN)."""
    s = ddot(v, v)
    if s < _TINY or s == math.inf:
        return dnrm2(v)
    return math.sqrt(s)


def _gamma(n):
    return n * _UNIT / (1.0 - n * _UNIT)


def csr_product(a):
    """The product ``out[:] = a @ x`` of a float64 CSR matrix ``a`` as a
    function of contiguous float64 vectors ``(x, out)`` that returns
    ``out``, with the kernel's arguments bound once.  Bit for bit scipy's
    product."""
    kernel = _sparsetools.csr_matvec
    n_row, n_col = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data

    def product(x, out):
        out.fill(0.0)
        kernel(n_row, n_col, indptr, indices, data, x, out)
        return out

    return product


def _banded_factor(a):
    """The upper Cholesky factor U (A = U^T U) of ``a`` in LAPACK band
    storage, ``band[bw + i - j, j] = U[i, j]`` for the (bw + 1) x n band of
    half-bandwidth bw.  Upper, not lower: ``pbtrs`` then runs its two sweeps
    U^T y = b and U x = y through the fast ``tbsv`` variants, where the
    lower factor's transposed sweep L^T x = y measured 2 to 3 times
    slower."""
    up = sp.triu(a, format="coo")
    up.sum_duplicates()
    offset = up.col - up.row
    bw = offset.max(initial=0)
    band = np.zeros((bw + 1, a.shape[0]))
    band[bw - offset, up.col] = up.data
    if not np.isfinite(band).all():
        raise SolverError("matrix is not finite")
    band, info = dpbtrf(band, lower=0, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"matrix is not positive definite (pbtrf info={info})")
    return band


def make_spd_solver(a_csr, dense_limit=0):
    # dense_limit stays only because perfbench reads its default for its run
    # metadata: 0, no system is solved densely, and no other value is valid
    if dense_limit != 0:
        raise ValueError("dense_limit must be 0: there is no dense solver")
    return SpdSolver(a_csr)
