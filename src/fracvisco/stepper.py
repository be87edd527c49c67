"""dG(0) time stepping for the viscoelastic equation of motion.

Piecewise-constant trial/test functions in time reduce each step to one SPD
solve for the velocity plus an explicit displacement update:

    [M + k_n (k_n - omega_nn) K] U2_n
        = M U2_{n-1} - (k_n - omega_nn) K U1_{n-1} + K H_n + k_n (Fbar_n + Gbar_n)
    U1_n = U1_{n-1} + k_n U2_n

with the memory term H_n = sum_{j<n} omega_nj U1_j.  M here is the
rho-weighted mass, so the density never appears explicitly.  The memory
terms come from ``history_sums``, an online blocked convolution: O(N log^2 N)
work per unknown on uniform grids, O(N^2) on nonuniform ones.  A run holds
one factorization at a time, refactored when (k_n, k_n - omega_nn)
changes: once on a uniform grid (``TimeGrid.steps`` exactly equal).  H_n
accumulates in row n of the velocity history, which step n then overwrites
with U2_n, so a run holds exactly its two (N+1) x nf histories and no
scratch copy of either.  Every square of the sum adds into those rows in
place (a dense one by BLAS ``dgemm`` with beta = 1), so beyond its two
histories a run holds 1.8 MB at nf=1300, N=2048, 1.1 MB at nf=544,
N=2560 and 1.4 MB at nf=144, N=8192 (tracemalloc peaks, factorization
included; ``benchmarks/bench_kernels.py``, memory rows).

A step solves for its velocity increment.  Subtracting A_n U2_{n-1}, with
A_n = M + k_n co_n K the step matrix and co_n = k_n - omega_nn, from both
sides of the step equation gives

    A_n (U2_n - U2_{n-1}) = K [(H_n - co_n U1_{n-1}) - k_n co_n U2_{n-1}]
                            + k_n (Fbar_n + Gbar_n),

so a step does one CSR product with Kff for its right-hand side, one banded
``pbtrs`` and one product for its check, and a run does 2N CSR products on
any grid.  The solve's roundoff is relative to the increment rather than to
U2_n.  Where k co K outweighs M, U2_{n-1} and the increment cancel in
U2_n = U2_{n-1} + (U2_n - U2_{n-1}), so U2_n still carries roundoff of the
size of U2_{n-1}: started from a large velocity beside a small displacement,
U1 agrees with the Mff form to 1e-14 of k |U2| but not of its own size
(``tests/test_stepper.py``).

Everything that does not change from step to step is set up once: ``run``
reads the steps and the diagonal omega_nn as Python floats, binds the CSR
kernel arguments of Kff (``solvers.csr_product``, scipy's kernel without
scipy's dispatch), keeps k_n (Fbar_n + Gbar_n) with the factorization and
reuses two scratch vectors; ``history_sums`` adds its 1 x 1 squares (every
other step) through one scratch row.  ``advance`` writes U1_n and U2_n
straight into their history rows.  Each operation is the one of the plain
expression in the same order, so the histories are bit for bit those of

    u2 + SpdSolver(A).solve(Kff @ ((h - co u1) - (k co) u2) + k load)

solved step by step, with A the step matrix as a CSR ``Mff + (k co) Kff``.

The loads are constant in time, so Fbar_n + Gbar_n is the system's free-dof
``load`` at every step.  The whole computation lives on the free dofs, and
so does the history that ``run`` returns, together with the system and
weight table that produced it: the table carries the time grid and the
system the free dofs.  Full-size nodal vectors (constrained entries zero)
are expanded only when a reader asks for ``SolutionHistory.U1``/``U2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.fft import irfft, rfft
from scipy.linalg.blas import dgemm

from .fem import AssembledSystem
from .solvers import SolverError, csr_product, make_spd_solver
from .weights import WeightTable

__all__ = ["SolutionHistory", "history_sums", "time_average_load",
           "advance", "run", "fft_size"]

# Square blocks of history_sums with sides up to this many steps are dense
# products; larger ones (uniform grids only) go through real FFTs.  Dense
# blocks run at BLAS matrix-product speed, so the FFT only pays from sides
# of about 1024 on (``benchmarks/bench_kernels.py``, history rows).
DIRECT_BLOCK = 512
# A dense square copies its slice of the weight table in chunks of target
# rows of about this many weights, and an FFT square transforms its columns
# in blocks of about this many numbers: 256 KB each.  On uniform grids
# chunks of 2^15 to 2^17 numbers ran within a few percent of each other;
# 2^15 keeps a run at nf=1300 within 2 MB of its histories.
ROWS_CHUNK = 1 << 15
FFT_CHUNK = 1 << 15


def fft_size(n):
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: a length that pocketfft,
    behind ``numpy.fft``, transforms fast (``scipy.fft.next_fast_len(n,
    real=True)``)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < n:
            # the least p35 * 2^a >= n
            m = p35 << ((n - 1) // p35).bit_length()
            if m < best:
                best = m
            p35 *= 3
        if p35 < best:
            best = p35
        p5 *= 5
    return best


@dataclass
class SolutionHistory:
    """The record of one run: per-step coefficients on the free dofs, with
    the system and weight table that produced them.

    u1f[n], u2f[n] hold U1, U2 at t_n on ``system.free_dofs``, for the nodes
    t_n of ``table.grid``; row 0 holds the initial data.  The full-size nodal
    histories ``U1``/``U2`` (constrained entries exactly zero) are expanded
    on first access and cached; ``dof_history`` and ``probe_trace`` read
    single dofs without expanding anything.
    """

    u1f: np.ndarray
    u2f: np.ndarray
    system: AssembledSystem = field(repr=False)
    table: WeightTable = field(repr=False)

    def __post_init__(self):
        shape = (self.table.n_steps + 1, self.system.free_dofs.size)
        if self.u1f.shape != shape or self.u2f.shape != shape:
            raise ValueError(f"u1f and u2f must have shape {shape}, got "
                             f"{self.u1f.shape} and {self.u2f.shape}")

    @property
    def times(self):
        return self.table.grid.nodes

    @cached_property
    def U1(self):
        return self.system.expand(self.u1f)

    @cached_property
    def U2(self):
        return self.system.expand(self.u2f)

    def dof_history(self, dof):
        """Columns ``dof`` of U1 and U2 (N + 1 values each), read from the
        free-dof arrays; exact zeros on a constrained dof.  Raises
        ValueError for a dof outside 0..n_dofs - 1."""
        if not 0 <= dof < self.system.n_dofs:
            raise ValueError(f"dof {dof} outside 0..{self.system.n_dofs - 1}")
        col = np.flatnonzero(self.system.free_dofs == dof)
        if col.size == 0:
            zero = np.zeros(self.u1f.shape[0])
            return zero, zero
        return self.u1f[:, col[0]], self.u2f[:, col[0]]

    def probe_trace(self, vertex):
        """(N+1, 4) array with columns u1_x, u1_y, u2_x, u2_y at a vertex."""
        u1_x, u2_x = self.dof_history(2 * vertex)
        u1_y, u2_y = self.dof_history(2 * vertex + 1)
        return np.column_stack([u1_x, u1_y, u2_x, u2_y])


def history_sums(table: WeightTable, u, acc):
    """Yield H_n = sum_{1 <= j < n} omega_nj u[j] for n = 1..N, online.

    ``u`` has N + 1 rows (row 0 is never read) and is filled by the caller:
    row n must hold U_n before H_{n+1} is requested.  ``acc``, of the shape
    of ``u``, is the caller's zeroed C-contiguous float64 accumulator
    (ValueError otherwise: every square is added into it in place): row n of
    ``acc`` is H_n when it is yielded and is never touched again, so the
    caller may overwrite it (``run`` writes U2_n there).  Row 0 is never
    touched.  The loop reads

        for n, h in enumerate(history_sums(table, u, acc), start=1):
            u[n] = ...  # from h; acc[n] is free from here on

    The triangle {j < n} is tiled by squares (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6 (1985) 532): as soon as u[m] is known, with
    L the lowest set bit of m, the sources j in (m - L, m] are added into the
    targets n in (m, m + L].  Every pair (n, j) falls in exactly one square.
    Half the squares have L = 1: each is the one scaled row
    omega_{m+1,m} u[m], formed in a reused scratch row and added, which is
    bit for bit its 1 x 1 matrix product.  A larger square is a dense
    product with its slice of ``table.omega`` when L <= DIRECT_BLOCK or the
    grid is nonuniform, and otherwise a real-FFT convolution of the Toeplitz
    lags, which keeps the weights exact up to roundoff.  A dense square
    takes its target rows in chunks of about ROWS_CHUNK weights: each chunk
    copies its slice of the table and BLAS ``dgemm`` adds the product into
    the rows of ``acc`` themselves (beta = 1, on their transposed view), so
    no product array is formed.  An FFT square transforms its columns in
    blocks of about FFT_CHUNK numbers.  So beyond ``u`` and ``acc`` the sums
    hold a few hundred KB.  The yielded rows are views into ``acc`` (scalars
    when ``u`` is one-dimensional).
    """
    n_steps = u.shape[0] - 1
    if acc.shape != u.shape:
        raise ValueError(f"acc must have shape {u.shape}, got {acc.shape}")
    if acc.dtype != np.float64 or not acc.flags.c_contiguous:
        # dgemm would write into a copy of such an acc and drop the square
        raise ValueError("acc must be a C-contiguous float64 array")
    w = table.lags
    sub = table.omega.diagonal(-1).tolist()     # sub[m - 1] = omega[m, m - 1]
    scratch = np.empty(u.shape[1:])
    width = scratch.size            # the numbers in one row
    for m in range(1, n_steps + 1):
        yield acc[m]
        if m == n_steps:
            return
        span = m & -m
        if span == 1:
            # the 1 x 1 square, bitwise its matrix product
            np.multiply(u[m], sub[m - 1], out=scratch)
            acc[m + 1] += scratch
            continue
        hi = min(m + span, n_steps)
        n_tgt = hi - m
        src = u[m - span + 1:m + 1].reshape(span, width)
        if w is None or span <= DIRECT_BLOCK:
            # acc[m+1:hi+1] += omega[m:hi, m-span:m] @ src, transposed for
            # Fortran's dgemm: (rows of acc)^T += src^T block^T.  The block
            # is copied: f2py hands BLAS only contiguous operands, and the
            # Toeplitz view runs its rows backwards
            rows = max(1, ROWS_CHUNK // span)
            for r in range(0, n_tgt, rows):
                r2 = min(r + rows, n_tgt)
                block = np.ascontiguousarray(
                    table.omega[m + r:m + r2, m - span:m])
                dgemm(1.0, src.T, block.T, 1.0,
                      acc[m + 1 + r:m + 1 + r2].reshape(r2 - r, width).T,
                      overwrite_c=1)
            continue
        # lags 1 .. span + n_tgt - 1 against the sources, one column of
        # u per row of the transform; no wrap-around reaches the
        # targets, which sit at offsets span - 1 .. span + n_tgt - 2
        size = fft_size(span + n_tgt - 1)
        spectrum = rfft(w[1:span + n_tgt], size)
        tgt = acc[m + 1:hi + 1].reshape(n_tgt, width)     # a view
        cols_per_block = max(1, FFT_CHUNK // size)
        for c in range(0, width, cols_per_block):
            cols = slice(c, c + cols_per_block)
            # the columns copied row-major first: numpy's rfft of the
            # strided transpose is up to 25% slower.  In place, operands in
            # the order of spectrum * spec
            spec = rfft(np.ascontiguousarray(src[:, cols].T), size)
            np.multiply(spectrum, spec, out=spec)
            conv = irfft(spec, size)
            del spec
            tgt[:, cols] += conv[:, span - 1:span - 1 + n_tgt].T
            del conv        # before the next block's transforms


def time_average_load(sys: AssembledSystem):
    """The free-dof interval average Fbar_n + Gbar_n, the same on every
    interval since the loads are constant in time: ``sys.load``."""
    return sys.load


def advance(kff, k, co, kload, solver, u1_prev, u2_prev, hist, u1, u2, work):
    """One dG(0) step on free dofs with step k and co = k - omega_nn, given
    kload = k (Fbar_n + Gbar_n) and the step matrix's ``solver``: writes
    U1_n into ``u1`` and U2_n into ``u2``.

    ``kff`` is the product with Kff, a ``solvers.csr_product``; ``work``
    holds two scratch vectors of the free-dof size.  ``hist`` may be ``u2``
    itself: the right-hand side is complete before U2_n is written.  Every
    operation is the one of

        u2 = u2_prev + solver.solve(
            Kff @ ((hist - co * u1_prev) - (k * co) * u2_prev) + kload)

    in the same order, so the step is bitwise that expression.
    """
    w, kw = work
    np.multiply(u1_prev, co, out=w)
    np.subtract(hist, w, out=w)
    np.multiply(u2_prev, k * co, out=kw)
    w -= kw
    kff(w, kw)
    kw += kload
    np.add(u2_prev, solver.solve(kw), out=u2)
    np.multiply(u2, k, out=u1)
    u1 += u1_prev


def run(sys: AssembledSystem, table: WeightTable, u0, v0):
    """Integrate from initial data (u0, v0) over the grid of ``table``.

    u0 and v0 are full-size, of shape (n_dofs,), and must satisfy the
    Dirichlet constraints.  The returned history keeps the whole free-dof
    history as it was computed, with ``sys`` and ``table``.  Every solve is
    checked by the backward error of its solution (``solvers.SpdSolver``).
    """
    grid = table.grid
    n_steps = grid.n_steps
    u0 = np.asarray(u0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    for name, vec in (("u0", u0), ("v0", v0)):
        if vec.shape != (sys.n_dofs,):
            raise ValueError(f"{name} must have shape ({sys.n_dofs},), "
                             f"got {vec.shape}")
        if np.any(vec[sys.constrained_dofs] != 0.0):
            raise ValueError(f"{name} violates the Dirichlet constraints")
    nf = sys.free_dofs.size
    u1f = np.empty((n_steps + 1, nf))
    # zeroed: row n accumulates H_n until step n overwrites it with U2_n
    u2f = np.zeros((n_steps + 1, nf))
    u1f[0] = sys.restrict(u0)
    u2f[0] = sys.restrict(v0)
    ks = grid.steps.tolist()
    diag = table.omega.diagonal().tolist()
    load = time_average_load(sys)
    kff = csr_product(sys.Kff)
    work = (np.empty(nf), np.empty(nf))
    key = None
    for n, hist in enumerate(history_sums(table, u1f, u2f), start=1):
        k = ks[n - 1]
        co = k - diag[n - 1]
        if (k, co) != key:
            # one live factorization: the old one goes before the next
            key, solver = (k, co), None
            solver = make_spd_solver(sys.Mff + (k * co) * sys.Kff)
            kload = k * load
        try:
            advance(kff, k, co, kload, solver, u1f[n - 1], u2f[n - 1], hist,
                    u1f[n], u2f[n], work)
        except SolverError as err:
            raise SolverError(f"step {n} failed: {err}",
                              residual=err.residual) from err
    return SolutionHistory(u1f=u1f, u2f=u2f, system=sys, table=table)
