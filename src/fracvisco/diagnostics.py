"""Discrete energy bookkeeping for dG(0) histories.

For a run with loads f = g = 0 the scheme satisfies an exact balance: the
final stored energy plus three nonnegative dissipation sums equals the
initial energy,

    eta_N a(U1_N, U1_N) + |U2_N|_M^2
      + sum_n k_n { -d_n eta_n a(U1_{n-1}, U1_{n-1}) + k_n eta_n a(d_n U1_n, d_n U1_n) }
      + sum_{n>=2} sum_{j<n} omega_nj { d_n a(W_nj, W_nj) + k_n a(d_n W_nj, d_n W_nj) }
      + sum_{n=0}^{N-1} |U2_{n+1} - U2_n|_M^2
      = a(u0, u0) + |v0|_M^2         (+ load work, when loads are present)

with W_nj = U1_n - U1_j, d_n the backward difference, a(.,.) the stiffness
inner product and |.|_M^2 the rho-weighted mass inner product.  The balance
holds to solver-residual accuracy because eta_n is derived from the weight
row sums; it is asserted by tests only in the homogeneous case, with the
load work 2 sum_n k_n (Fbar_n + Gbar_n, U2_n) reported otherwise.  A history
carries the system and weight table of its run, so the ledger takes nothing
else, and its load is the system's free-dof ``load``, as the run's is.

No Gram matrix a(U1_i, U1_j) is formed.  Expanding a(W_nj, W_nj) reduces
the memory double sum to per-step scalars: a(U1_n, U1_n), the increment's
a(U1_n - U1_{n-1}, U1_n - U1_{n-1}), the row sums R_n = sum_{j<n} omega_nj,
Z_n = sum_{j<n} omega_nj a(U1_j, U1_j), and a(U1_n, H_n), a(U1_{n-1}, H_n)
with H_n = sum_{j<n} omega_nj U1_j, all from the free-dof Kff; no full-size
operator is used.  On uniform grids K H_n (in blocks of free dofs) and Z_n
are real-FFT convolutions of the weight lags, so the ledger costs
O(N log N * nf) work; nonuniform grids use their dense table.  Each block
of free dofs builds its U and K U rows a tile of steps at a time, copying
dof-major only the band window of history columns that its stiffness rows
touch; the weighted sums K H then overwrite K U.  So beyond the history the
ledger holds those two blocks of rows, about _CHUNK numbers, and a few
arrays of about _TILE numbers.  The ledger does not call
``stepper.history_sums``, so it stays an independent check of the stepper.
Its terms agree with the Gram-matrix sums to about 1e-13 of the energy.

The memory double sum is also reported in a second grouping (summation by
parts in n) as an internal algebra check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from scipy import sparse

from .fem import AssembledSystem
from .stepper import SolutionHistory, fft_size
from .weights import WeightTable

__all__ = ["EnergyLedger", "energy_ledger", "long_time_limit", "TailReport"]

# Beyond the history it reads, the ledger holds the U and K U rows of one
# block of free dofs, about _CHUNK numbers together (2 MB, the L2 cache of
# one core of the 2-core x86-64 machine of ``BENCH_kernels.json``), and a
# few arrays of about _TILE numbers (256 KB): a tile of steps of the block's
# band window, a batch of transforms, a block of velocity jumps.  No array
# with (N + 1)^2 or (N + 1) * nf entries is built.  The block width and the
# jump blocks fix the order of the ledger's sums, and with it their last
# digits; the tiles do not.
_CHUNK = 1 << 18
_TILE = 1 << 15

# Largest relative gap between the means of the two halves of the tail
# window for which ``long_time_limit`` calls a run settled.
SETTLE_TOL = 0.05


@dataclass
class EnergyLedger:
    """Every named term of the discrete energy balance, plus totals."""

    final_elastic: float        # eta_N a(U1_N, U1_N)
    final_kinetic: float        # |U2_N|_M^2
    eta_dissipation: float
    history_dissipation: float
    history_dissipation_alt: float  # reordered double sum, algebra check
    jump_dissipation: float
    initial_energy: float       # a(u0, u0) + |v0|_M^2
    load_work: float

    @property
    def lhs_total(self):
        return (self.final_elastic + self.final_kinetic + self.eta_dissipation
                + self.history_dissipation + self.jump_dissipation)

    @property
    def rhs_total(self):
        return self.initial_energy + self.load_work

    @property
    def residual_rel(self):
        scale = max(abs(self.rhs_total), abs(self.lhs_total), 1e-300)
        return abs(self.lhs_total - self.rhs_total) / scale

    def rows(self):
        return [
            ("final_elastic", self.final_elastic),
            ("final_kinetic", self.final_kinetic),
            ("eta_dissipation", self.eta_dissipation),
            ("history_dissipation", self.history_dissipation),
            ("history_dissipation_alt", self.history_dissipation_alt),
            ("jump_dissipation", self.jump_dissipation),
            ("lhs_total", self.lhs_total),
            ("initial_energy", self.initial_energy),
            ("load_work", self.load_work),
            ("rhs_total", self.rhs_total),
            ("residual_rel", self.residual_rel),
        ]


def energy_ledger(history: SolutionHistory):
    """Evaluate the balance terms on a computed history.

    The system, weight table and grid are those the history carries, and the
    terms are read off its free-dof arrays as they are.  The initial energy
    is that of the stored initial row.
    """
    sys, table = history.system, history.table
    grid = table.grid
    n = grid.n_steps
    k = grid.steps
    eta = table.eta_bar
    u2f = history.u2f

    weigh, reach = _lower_weights(table, n)
    diag, dsq, p, q = _stiffness_products(history.u1f, sys, weigh)
    z = weigh(diag[None, :].copy())[0]

    final_elastic = eta[n] * diag[n]
    eta_diss = float(np.sum(-np.diff(eta[:n + 1]) * diag[:-1])
                     + np.sum(eta[1:n + 1] * dsq[1:]))

    # sum_j omega_nj |W_nj|^2 / k_n for W = U1_n - U1_j (a_n) and for
    # W = U1_{n-1} - U1_j (b_n), n = 2..N; a_1 = 0 exactly
    a_n = (reach[2:] * diag[2:] + z[2:] - 2.0 * p[2:]) / k[1:]
    b_n = (reach[2:] * diag[1:-1] + z[2:] - 2.0 * q[2:]) / k[1:]
    a_prev = np.concatenate([[0.0], a_n[:-1]])
    ksq_term = math.fsum(reach[2:] * dsq[2:] / k[1:])
    hist_diss = math.fsum(a_n - b_n) + ksq_term
    # summation by parts in n: a_N - sum_{n>=2} (b_n - a_{n-1})
    hist_diss_alt = (math.fsum(np.concatenate([a_n[-1:], a_prev - b_n]))
                     + ksq_term)

    final_kinetic = float(u2f[n] @ (sys.Mff @ u2f[n]))
    jump_diss = 0.0
    rows = max(1, _TILE // max(u2f.shape[1], 1))
    for r in range(0, n, rows):
        jumps = np.diff(u2f[r:r + rows + 1], axis=0)
        jump_diss += float(np.einsum("ni,ni->", jumps,
                                     (sys.Mff @ jumps.T).T))

    initial = float(diag[0] + u2f[0] @ (sys.Mff @ u2f[0]))

    load_work = 2.0 * float(k @ (u2f[1:] @ sys.load))

    return EnergyLedger(final_elastic=float(final_elastic),
                        final_kinetic=float(final_kinetic),
                        eta_dissipation=float(eta_diss),
                        history_dissipation=float(hist_diss),
                        history_dissipation_alt=float(hist_diss_alt),
                        jump_dissipation=float(jump_diss),
                        initial_energy=float(initial),
                        load_work=float(load_work))


def _lower_weights(table: WeightTable, n):
    """The strictly lower weight product and its row sums on steps 0..n.

    Returns ``(weigh, reach)``: ``weigh(x)`` overwrites column m of a 2-D
    x with n + 1 columns by ``sum_{1 <= j < m} omega_mj x[:, j]`` (columns
    0 and 1 exactly zero) and returns x, and
    ``reach[m] = sum_{1 <= j < m} omega_mj``.  On uniform grids
    the product is one real-FFT convolution of the lags, long enough that
    nothing wraps around, and the row sums a running sum of the lags;
    nonuniform grids use their dense table.
    """
    reach = np.zeros(n + 1)
    if table.lags is None:
        lower = np.tril(table.omega[:n, :n], -1)
        reach[1:] = lower.sum(axis=1)

        def weigh(x):
            x[:, 1:] = x[:, 1:] @ lower.T
            x[:, 0] = 0.0
            return x
        return weigh, reach

    # weigh(x)[m] = sum_{d=1}^{m-1} lags[d] x[m - d], entry m - 2 of the
    # linear convolution of lags[1:n] with x[1:n]
    reach[2:] = np.cumsum(table.lags[1:n])
    size = fft_size(max(2 * n - 3, 1))
    spectrum = rfft(table.lags[1:n], size)

    # rows of x are transformed a few at a time, so that the transforms'
    # temporaries stay small next to the ledger's blocks
    batch = max(1, _TILE // size)

    def weigh(x):
        if n >= 2:
            for r in range(0, x.shape[0], batch):
                spec = rfft(x[r:r + batch, 1:n], size)
                np.multiply(spec, spectrum, out=spec)
                x[r:r + batch, 2:] = irfft(spec, size)[:, :n - 1]
                del spec
        x[:, :2] = 0.0
        return x
    return weigh, reach


def _stiffness_products(u1f, sys: AssembledSystem, weigh):
    """Per-step stiffness products of a free-dof displacement history u1f
    (N+1 rows).

    Returns diag[n] = a(U_n, U_n), dsq[n] = a(U_n - U_{n-1}, U_n - U_{n-1})
    (from the step differences of a block's U and K U rows), p[n] =
    a(U_n, H_n) and q[n] = a(U_{n-1}, H_n) with H_n = weigh(U)[n], each of
    length N + 1 (dsq[0], p[0], q[0], p[1], q[1] zero).  The free dofs are
    processed in blocks of ``width``, whose U and K U rows hold about
    ``_CHUNK`` numbers.  A block's rows of ``Kff`` touch only the dofs of
    its band window lo..hi, so only that window is copied dof-major, in
    tiles of steps of about ``_TILE`` numbers; the block's CSR rows, with
    columns shifted by lo, multiply each tile: the same terms, added in the
    same order, as ``Kff[c:e] @ u1f.T``.  ``weigh`` then overwrites K U
    with K H.
    """
    n_cols, nf = u1f.shape
    kff = sys.Kff
    ptr, idx = kff.indptr, kff.indices
    diag = np.zeros(n_cols)
    dsq = np.zeros(n_cols)
    p = np.zeros(n_cols)
    q = np.zeros(n_cols)
    width = max(1, _CHUNK // (2 * n_cols))
    for c in range(0, nf, width):
        e = min(c + width, nf)
        cols = idx[ptr[c]:ptr[e]]
        lo = min(c, cols.min(initial=c))
        hi = max(e, cols.max(initial=c) + 1)
        block = sparse.csr_matrix(
            (kff.data[ptr[c]:ptr[e]], cols - lo, ptr[c:e + 1] - ptr[c]),
            shape=(e - c, hi - lo))
        u = np.empty((e - c, n_cols))
        ku = np.empty((e - c, n_cols))
        steps = max(1, _TILE // (hi - lo))
        for t in range(0, n_cols, steps):
            window = u1f[t:t + steps, lo:hi].T.copy()
            u[:, t:t + steps] = window[c - lo:e - lo]
            ku[:, t:t + steps] = block @ window
            s = slice(max(t - 1, 0), t + steps)     # and the step before
            dsq[s][1:] += np.einsum("in,in->n", np.diff(u[:, s]),
                                    np.diff(ku[:, s]))
        diag += np.einsum("in,in->n", u, ku)
        kh = weigh(ku)
        p += np.einsum("in,in->n", u, kh)
        q[1:] += np.einsum("in,in->n", u[:, :-1], kh[:, 1:])
        del u, ku, kh       # before the next block's rows
    return diag, dsq, p, q


def _interval_mean(t, v):
    """Trapezoidal mean of samples v over the span of the nodes t; the
    mean of a single node is its value."""
    if t.size == 1:
        return float(v[0])
    return float(np.trapezoid(v, t) / max(t[-1] - t[0], 1e-300))


@dataclass
class TailReport:
    tail_mean: float
    reference: float
    rel_gap: float
    settled: bool
    halves_gap: float


def long_time_limit(history: SolutionHistory, vertex, component=1,
                    reference=None):
    """Mean of a probe trace over the final quarter of the run.

    Returns the tail mean and its relative gap to ``reference`` (typically
    the relaxed static solve).  If the first and second halves of the tail
    window disagree by more than ``SETTLE_TOL`` (relative), the run is
    flagged unsettled and a warning is emitted.  ``component`` is 0 (x) or
    1 (y); any other value raises ValueError.
    """
    if component not in (0, 1):
        raise ValueError(f"component must be 0 or 1, got {component}")
    t = history.times
    vals, _ = history.dof_history(2 * vertex + component)
    t_cut = t[-1] * 0.75
    sel = t >= t_cut
    if np.count_nonzero(sel) < 4:
        raise ValueError("tail window has too few samples")
    tail_t = t[sel]
    tail_v = vals[sel]
    tail_mean = _interval_mean(tail_t, tail_v)
    mid = tail_t[0] + 0.5 * (tail_t[-1] - tail_t[0])
    first = tail_t <= mid
    m1 = _interval_mean(tail_t[first], tail_v[first])
    second = tail_t >= mid
    m2 = _interval_mean(tail_t[second], tail_v[second])
    scale = max(abs(tail_mean), 1e-300)
    halves_gap = abs(m1 - m2) / scale
    settled = halves_gap <= SETTLE_TOL
    if not settled:
        warnings.warn(
            f"tail not settled: halves differ by {halves_gap:.1%} "
            "(run longer)", stacklevel=2)
    if reference is None:
        rel_gap = float("nan")
    elif reference == 0.0:
        rel_gap = abs(tail_mean)
    else:
        rel_gap = abs(tail_mean - reference) / abs(reference)
    return TailReport(tail_mean=tail_mean, reference=float(reference)
                      if reference is not None else float("nan"),
                      rel_gap=float(rel_gap), settled=settled,
                      halves_gap=float(halves_gap))
