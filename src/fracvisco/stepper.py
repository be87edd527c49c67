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
them, on uniform grids).  H_n accumulates in row n of the velocity history,
which step n then overwrites with U2_n, so a run holds exactly its two
(N+1) x nf histories and no scratch copy of either.

The whole computation lives on the free dofs, and so does the history that
``run`` returns, together with the system and weight table that produced it:
the table carries the time grid and the system the free dofs.  Full-size
nodal vectors (constrained entries zero) are expanded only when a reader asks
for ``SolutionHistory.U1``/``U2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .fem import AssembledSystem
from .solvers import SolverError, make_spd_solver
from .weights import TimeGrid, WeightTable

__all__ = ["SolutionHistory", "history_sums", "time_average_load",
           "step_loads", "advance", "run"]

# Square blocks of history_sums with sides up to this many steps are dense
# products; larger ones (uniform grids only) go through real FFTs.  Dense
# blocks run at BLAS matrix-product speed, so the FFT only pays from sides
# of about 1024 on (``benchmarks/bench_kernels.py``, history rows).
DIRECT_BLOCK = 512
# An FFT square transforms its columns in blocks of about this many numbers,
# so its temporaries stay about 1 MB each instead of three (2L x nf) arrays.
FFT_CHUNK = 1 << 17


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
        free-dof arrays; exact zeros on a constrained dof."""
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
    of ``u``, is the caller's zeroed accumulator: row n of ``acc`` is H_n
    when it is yielded and is never touched again, so the caller may
    overwrite it (``run`` writes U2_n there).  Row 0 is never touched.  The
    loop reads

        for n, h in enumerate(history_sums(table, u, acc), start=1):
            u[n] = ...  # from h; acc[n] is free from here on

    The triangle {j < n} is tiled by squares (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6 (1985) 532): as soon as u[m] is known, with
    L the lowest set bit of m, the sources j in (m - L, m] are added into the
    targets n in (m, m + L].  Every pair (n, j) falls in exactly one square.
    A square is a dense product with its slice of ``table.omega`` when
    L <= DIRECT_BLOCK or the grid is nonuniform, and otherwise a real-FFT
    convolution of the Toeplitz lags, which keeps the weights exact up to
    roundoff.  The yielded rows are views into ``acc`` (scalars when ``u``
    is one-dimensional).
    """
    n_steps = u.shape[0] - 1
    if acc.shape != u.shape:
        raise ValueError(f"acc must have shape {u.shape}, got {acc.shape}")
    w = table.lags
    spectra = {}    # uniform grids: (L, T) -> lag spectrum of an FFT square
    for m in range(1, n_steps + 1):
        yield acc[m]
        if m == n_steps:
            return
        span = m & -m
        hi = min(m + span, n_steps)
        src = u[m - span + 1:m + 1]
        if w is None or span <= DIRECT_BLOCK:
            # copied first: the Toeplitz view has a negative row stride
            block = np.ascontiguousarray(table.omega[m:hi, m - span:m])
            acc[m + 1:hi + 1] += block @ src
            continue
        n_tgt = hi - m
        key = (span, n_tgt)
        # lags 1 .. span + n_tgt - 1 against the sources, one column of
        # u per row of the transform; no wrap-around reaches the
        # targets, which sit at offsets span - 1 .. span + n_tgt - 2
        size = next_fast_len(span + n_tgt - 1, real=True)
        if key not in spectra:
            spectra[key] = rfft(w[1:span + n_tgt], size)
        src2 = src.reshape(span, -1)
        tgt = acc[m + 1:hi + 1].reshape(n_tgt, -1)     # a view
        width = max(1, FFT_CHUNK // size)
        for c in range(0, src2.shape[1], width):
            cols = slice(c, c + width)
            # in place, operands in the order of spectra[key] * spec
            spec = rfft(src2[:, cols].T, size)
            np.multiply(spectra[key], spec, out=spec)
            conv = irfft(spec, size)
            del spec
            tgt[:, cols] += conv[:, span - 1:span - 1 + n_tgt].T
            del conv        # before the next block's transforms


def time_average_load(sys: AssembledSystem, grid: TimeGrid, n):
    """Interval averages (Fbar_n, Gbar_n) by the midpoint rule (1-based n).

    Exact for loads constant in time; second order otherwise.
    """
    tm = grid.nodes[n - 1] + 0.5 * grid.steps[n - 1]
    return sys.volume_load(tm), sys.traction_vector(tm)


def step_loads(sys: AssembledSystem, grid: TimeGrid):
    """Yield the free-dof load Fbar_n + Gbar_n for n = 1..N.

    Loads the system marks constant in time are evaluated once (the same
    array is yielded at every step); any other load once per step.
    """
    constant = sys.loads_constant_in_time
    load = None
    for n in range(1, grid.n_steps + 1):
        if load is None or not constant:
            fbar, gbar = time_average_load(sys, grid, n)
            load = sys.restrict(fbar + gbar)
        yield load


def advance(u1_prev_f, u2_prev_f, sys, k, co, hist_f, load_f, solver):
    """One dG(0) step on free dofs with step k and co = k - omega_nn;
    returns (u1_f, u2_f)."""
    rhs = (sys.Mff @ u2_prev_f + sys.Kff @ (hist_f - co * u1_prev_f)
           + k * load_f)
    u2 = solver.solve(rhs)
    return u1_prev_f + k * u2, u2


def run(sys: AssembledSystem, table: WeightTable, u0, v0, solver="direct",
        rtol=1e-10):
    """Integrate from initial data (u0, v0) over the grid of ``table``.

    u0 and v0 must satisfy the Dirichlet constraints.  The returned history
    keeps the whole free-dof history as it was computed, with ``sys`` and
    ``table``.  Loads come from ``step_loads``.
    """
    grid = table.grid
    n_steps = grid.n_steps
    u0 = np.asarray(u0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    for name, vec in (("u0", u0), ("v0", v0)):
        if np.any(vec[sys.constrained_dofs] != 0.0):
            raise ValueError(f"{name} violates the Dirichlet constraints")
    nf = sys.free_dofs.size
    u1f = np.empty((n_steps + 1, nf))
    # zeroed: row n accumulates H_n until step n overwrites it with U2_n
    u2f = np.zeros((n_steps + 1, nf))
    u1f[0] = sys.restrict(u0)
    u2f[0] = sys.restrict(v0)
    k = grid.steps
    solvers = {}
    for n, (hist, load) in enumerate(
            zip(history_sums(table, u1f, u2f), step_loads(sys, grid)),
            start=1):
        co = k[n - 1] - table.omega[n - 1, n - 1]
        key = (k[n - 1], co)
        if key not in solvers:
            mat = sys.Mff + (k[n - 1] * co) * sys.Kff
            solvers[key] = make_spd_solver(mat, method=solver, rtol=rtol)
        try:
            u1f[n], u2f[n] = advance(u1f[n - 1], u2f[n - 1], sys, k[n - 1],
                                     co, hist, load, solvers[key])
        except SolverError as err:
            raise SolverError(f"step {n} failed: {err}",
                              residual=err.residual) from err
    return SolutionHistory(u1f=u1f, u2f=u2f, system=sys, table=table)
