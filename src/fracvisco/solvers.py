"""SPD linear solves by banded Cholesky with enforced residual verification.

LAPACK ``pbtrf``/``pbtrs`` factor and solve the matrix in the order it is
given, with the half-bandwidth of that order: ``fem.assemble`` numbers the
free dofs in reverse Cuthill-McKee order, so the step matrices of a run come
banded (half-bandwidth 17 at 8x8, 35 at 16x16, 53 at 25x25) and a solve
needs no permutation.  Every solve is verified by its relative residual,
against 1e-10 unless the caller sets another bound; violations raise
``SolverError`` carrying the achieved residual, and a non-finite right-hand
side is refused before solving.  A matrix that is not finite or not positive
definite is refused at factorization.

A solve costs one ``pbtrs`` and one residual product.  Products with a CSR
matrix go through ``matvec``, which calls the kernel behind scipy's
``a @ x`` (``scipy.sparse._sparsetools.csr_matvec``) without scipy's
dispatch: the same kernel on the same zeroed output, so bit for bit the same
product.  ``_sparsetools`` is private scipy API;
``tests/test_fem.py::TestMatvec`` fails if it moves or changes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import _sparsetools

__all__ = ["SolverError", "SpdSolver", "make_spd_solver"]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpdSolver:
    """Banded Cholesky factor of a fixed SPD matrix in its given order,
    solved with a check of the relative residual against ``rtol`` on every
    solve."""

    def __init__(self, a_csr, rtol=1e-10):
        self.a = sp.csr_matrix(a_csr, dtype=np.float64)
        self.rtol = rtol
        self._band = _banded_factor(self.a)

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        # sqrt(b @ b) is numpy's 2-norm of b bit for bit on 1-D float64
        nb = math.sqrt(b @ b)
        if not math.isfinite(nb):
            raise SolverError("right-hand side is not finite")
        if nb == 0.0:
            return np.zeros_like(b)
        x, info = dpbtrs(self._band, b, lower=1)
        if info != 0:
            raise SolverError(f"pbtrs failed (info={info})")
        r = matvec(self.a, x, np.empty_like(x))
        r -= b
        res = math.sqrt(r @ r) / nb
        if not res <= self.rtol:
            raise SolverError(
                f"solve residual {res:.3e} exceeds tolerance {self.rtol:.1e}",
                residual=res)
        return x


def matvec(a, x, out):
    """``out[:] = a @ x`` for a float64 CSR matrix ``a`` and contiguous
    float64 vectors; returns ``out``.  Bit for bit scipy's product."""
    out.fill(0.0)
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices,
                            a.data, x, out)
    return out


def _banded_factor(a):
    """The lower Cholesky factor of ``a`` in LAPACK band storage,
    ``band[i - j, j] = L[i, j]`` for the (bw + 1) x n band of half-bandwidth
    bw."""
    low = sp.tril(a, format="coo")
    low.sum_duplicates()
    offset = low.row - low.col
    band = np.zeros((offset.max(initial=0) + 1, a.shape[0]))
    band[offset, low.col] = low.data
    if not np.isfinite(band).all():
        raise SolverError("matrix is not finite")
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"matrix is not positive definite (pbtrf info={info})")
    return band


def make_spd_solver(a_csr, rtol=1e-10, dense_limit=0):
    # dense_limit stays only because perfbench reads its default for its run
    # metadata: 0, no system is solved densely, and no other value is valid
    if dense_limit != 0:
        raise ValueError("dense_limit must be 0: there is no dense solver")
    return SpdSolver(a_csr, rtol=rtol)
