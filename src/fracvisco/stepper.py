"""dG(0) time stepping for the viscoelastic equation of motion.

Piecewise-constant trial/test functions in time reduce each step to one SPD
solve for the velocity plus an explicit displacement update:

    [M + k_n (k_n - omega_nn) K] U2_n
        = M U2_{n-1} - (k_n - omega_nn) K U1_{n-1} + K H_n + k_n (Fbar_n + Gbar_n)
    U1_n = U1_{n-1} + k_n U2_n

with the memory term H_n = sum_{j<n} omega_nj U1_j.  M here is the
rho-weighted mass, so the density never appears explicitly.  The memory
terms come from ``history_sums``, an online blocked convolution: O(N log^2 N)
work per unknown on uniform grids, O(N^2) on nonuniform ones.  The N solves
reuse one factorization across steps that share k_n and omega_nn (all of
them, on uniform grids).

The whole computation lives on the free dofs, and so does the history that
``run`` returns: full-size nodal vectors (constrained entries zero) are
expanded only when a reader asks for ``SolutionHistory.U1``/``U2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .fem import AssembledSystem, expand_free
from .solvers import SolverError, make_spd_solver
from .weights import TimeGrid, WeightTable

__all__ = ["SolutionHistory", "history_sums", "time_average_load", "advance",
           "run"]

# Square blocks of history_sums with sides up to this many steps are dense
# products; larger ones (uniform grids only) go through real FFTs.  Dense
# blocks run at BLAS matrix-product speed, so the FFT only pays from sides
# of about 1024 on (``benchmarks/bench_kernels.py``, history rows).
DIRECT_BLOCK = 512
# An FFT square transforms its columns in blocks of about this many numbers,
# so its temporaries stay a few MB instead of three (2L x nf) arrays.
FFT_CHUNK = 1 << 18


@dataclass
class SolutionHistory:
    """Per-step displacement/velocity coefficients on the free dofs.

    u1f[n], u2f[n] hold U1, U2 at t_n on the free dofs ``free_dofs`` (of
    ``n_dofs`` nodal dofs); row 0 holds the initial data.  The full-size
    nodal histories ``U1``/``U2`` (constrained entries exactly zero) are
    expanded on first access and cached; ``dof_history`` and
    ``probe_trace`` read single dofs without expanding anything.
    """

    u1f: np.ndarray
    u2f: np.ndarray
    free_dofs: np.ndarray
    n_dofs: int
    grid: TimeGrid
    probes: list = field(default_factory=list)  # vertex indices

    @property
    def times(self):
        return self.grid.nodes

    @cached_property
    def U1(self):
        return expand_free(self.u1f, self.free_dofs, self.n_dofs)

    @cached_property
    def U2(self):
        return expand_free(self.u2f, self.free_dofs, self.n_dofs)

    def dof_history(self, dof):
        """Columns ``dof`` of U1 and U2 (N + 1 values each), read from the
        free-dof arrays; exact zeros on a constrained dof."""
        col = np.flatnonzero(self.free_dofs == dof)
        if col.size == 0:
            zero = np.zeros(self.u1f.shape[0])
            return zero, zero
        return self.u1f[:, col[0]], self.u2f[:, col[0]]

    def probe_trace(self, vertex):
        """(N+1, 4) array with columns u1_x, u1_y, u2_x, u2_y at a vertex."""
        u1_x, u2_x = self.dof_history(2 * vertex)
        u1_y, u2_y = self.dof_history(2 * vertex + 1)
        return np.column_stack([u1_x, u1_y, u2_x, u2_y])


def history_sums(table: WeightTable, u):
    """Yield H_n = sum_{1 <= j < n} omega_nj u[j] for n = 1..N, online.

    ``u`` has N + 1 rows (row 0 is never read) and is filled by the caller:
    row n must hold U_n before H_{n+1} is requested, so the loop reads

        for n, h in enumerate(history_sums(table, u), start=1):
            u[n] = ...  # from h

    The triangle {j < n} is tiled by squares (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6 (1985) 532): as soon as u[m] is known, with
    L the lowest set bit of m, the sources j in (m - L, m] are added into the
    targets n in (m, m + L].  Every pair (n, j) falls in exactly one square.
    A square is a dense block product when L <= DIRECT_BLOCK or the grid is
    nonuniform, and otherwise a real-FFT convolution of the Toeplitz lags,
    which keeps the weights exact up to roundoff.  The yielded rows are
    views into the accumulator; each is final when yielded.
    """
    n_steps = u.shape[0] - 1
    acc = np.zeros_like(u, dtype=np.float64)
    w = table.lags
    blocks = {}     # uniform grids: (L, T) -> dense block or lag spectrum
    for m in range(1, n_steps + 1):
        yield acc[m]
        if m == n_steps:
            return
        span = m & -m
        hi = min(m + span, n_steps)
        src = u[m - span + 1:m + 1]
        if w is None:
            acc[m + 1:hi + 1] += table.omega[m:hi, m - span:m] @ src
            continue
        n_tgt = hi - m
        key = (span, n_tgt)
        if span <= DIRECT_BLOCK:
            if key not in blocks:
                # block[t, s] = omega at lag span + t - s
                lag = span + np.arange(n_tgt)[:, None] - np.arange(span)
                blocks[key] = w[lag]
            acc[m + 1:hi + 1] += blocks[key] @ src
        else:
            # lags 1 .. span + n_tgt - 1 against the sources, one column of
            # u per row of the transform; no wrap-around reaches the
            # targets, which sit at offsets span - 1 .. span + n_tgt - 2
            size = next_fast_len(span + n_tgt - 1, real=True)
            if key not in blocks:
                blocks[key] = rfft(w[1:span + n_tgt], size)
            src2 = src.reshape(span, -1)
            tgt = acc[m + 1:hi + 1].reshape(n_tgt, -1)     # a view
            width = max(1, FFT_CHUNK // size)
            for c in range(0, src2.shape[1], width):
                cols = slice(c, c + width)
                conv = irfft(blocks[key] * rfft(src2[:, cols].T, size), size)
                tgt[:, cols] += conv[:, span - 1:span - 1 + n_tgt].T


def time_average_load(sys: AssembledSystem, grid: TimeGrid, n):
    """Interval averages (Fbar_n, Gbar_n) by the midpoint rule (1-based n).

    Exact for loads constant in time; second order otherwise.
    """
    tm = grid.nodes[n - 1] + 0.5 * grid.steps[n - 1]
    return sys.volume_load(tm), sys.traction_vector(tm)


def advance(u1_prev_f, u2_prev_f, sys, table, n, hist_f, load_f, solver):
    """One dG(0) step on free dofs; returns (u1_f, u2_f) at step n."""
    k = table.grid.steps[n - 1]
    co = k - table.omega[n - 1, n - 1]
    rhs = (sys.Mff @ u2_prev_f + sys.Kff @ (hist_f - co * u1_prev_f)
           + k * load_f)
    u2 = solver.solve(rhs)
    return u1_prev_f + k * u2, u2


def run(sys: AssembledSystem, grid: TimeGrid, table: WeightTable, u0, v0,
        probes=(), solver="direct", rtol=1e-10):
    """Integrate the full history from initial data (u0, v0).

    u0 and v0 must satisfy the Dirichlet constraints.  ``probes`` is a list
    of vertex indices recorded in the returned history (the whole free-dof
    history is kept regardless, and returned as it was computed).  Loads the
    system marks constant in time are evaluated once; any other load once
    per step.
    """
    n_steps = grid.n_steps
    if table.n_steps < n_steps:
        raise ValueError(
            f"weight table covers {table.n_steps} steps, grid has {n_steps}")
    if not np.array_equal(table.grid.nodes[:n_steps + 1], grid.nodes):
        raise ValueError("weight table was built on a different grid")
    u0 = np.asarray(u0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    for name, vec in (("u0", u0), ("v0", v0)):
        if np.any(vec[sys.constrained_dofs] != 0.0):
            raise ValueError(f"{name} violates the Dirichlet constraints")
    nf = sys.free_dofs.size
    u1f = np.empty((n_steps + 1, nf))
    u2f = np.empty((n_steps + 1, nf))
    u1f[0] = sys.restrict(u0)
    u2f[0] = sys.restrict(v0)
    k = grid.steps
    solvers = {}
    load = None
    constant_load = sys.loads_constant_in_time
    for n, hist in enumerate(history_sums(table, u1f), start=1):
        co = k[n - 1] - table.omega[n - 1, n - 1]
        key = (k[n - 1], co)
        if key not in solvers:
            mat = sys.Mff + (k[n - 1] * co) * sys.Kff
            solvers[key] = make_spd_solver(mat, method=solver, rtol=rtol)
        if load is None or not constant_load:
            fbar, gbar = time_average_load(sys, grid, n)
            load = sys.restrict(fbar + gbar)
        try:
            u1f[n], u2f[n] = advance(u1f[n - 1], u2f[n - 1], sys, table, n,
                                     hist, load, solvers[key])
        except SolverError as err:
            raise SolverError(f"step {n} failed: {err}",
                              residual=err.residual) from err
    return SolutionHistory(u1f=u1f, u2f=u2f, free_dofs=sys.free_dofs,
                           n_dofs=sys.n_dofs, grid=grid, probes=list(probes))
