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
load work 2 sum_n k_n (Fbar_n + Gbar_n, U2_n) reported otherwise.

No Gram matrix a(U1_i, U1_j) is formed.  Expanding a(W_nj, W_nj) reduces
the memory double sum to per-step scalars: a(U1_n, U1_n), a(U1_n, U1_{n-1}),
the row sums R_n = sum_{j<n} omega_nj, Z_n = sum_{j<n} omega_nj a(U1_j, U1_j),
and a(U1_n, H_n), a(U1_{n-1}, H_n) with H_n = sum_{j<n} omega_nj U1_j.  On
uniform grids K H_n (in blocks of free dofs) and Z_n are real-FFT
convolutions of the weight lags, so the ledger costs O(N log N * nf) work
and O(N * nf) memory; nonuniform grids use their dense table.  The ledger
does not call ``stepper.history_sums``, so it stays an independent check of
the stepper.  Its terms agree with the Gram-matrix sums to about 1e-13 of
the energy.

The memory double sum is also reported in a second grouping (summation by
parts in n) as an internal algebra check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .fem import AssembledSystem
from .stepper import SolutionHistory, time_average_load
from .weights import WeightTable

__all__ = ["EnergyLedger", "energy_ledger", "long_time_limit", "TailReport"]

# Blocks of the ledger's per-dof and per-step work hold about this many
# numbers: beyond one free-dof copy of the history, no array with (N + 1)^2
# or (N + 1) * nf entries is built.
_CHUNK = 1 << 18

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

    def csv(self):
        lines = ["term,value"]
        lines += [f"{name},{value!r}" for name, value in self.rows()]
        return "\n".join(lines) + "\n"


def energy_ledger(history: SolutionHistory, sys: AssembledSystem,
                  table: WeightTable):
    """Evaluate the balance terms on a computed history.

    The history must come from the same weight table (same grid and kernel);
    a grid mismatch raises.  The initial energy is that of the stored
    initial row.
    """
    grid = history.grid
    n = grid.n_steps
    if table.n_steps < n or not np.array_equal(
            table.grid.nodes[:n + 1], grid.nodes):
        raise ValueError("history grid does not match the weight table")
    k = grid.steps
    eta = table.eta_bar
    u0 = history.U1[0]
    v0 = history.U2[0]

    weigh, reach = _lower_weights(table, n)
    diag, sub, p, q = _stiffness_products(history.U1, sys, weigh)
    z = weigh(diag)

    final_elastic = eta[n] * diag[n]
    deta = np.diff(eta[:n + 1]) / k
    du_sq = (diag[1:] - 2.0 * sub[1:] + diag[:-1]) / k ** 2
    eta_diss = float(np.sum(k * (-deta) * diag[:-1])
                     + np.sum(k ** 2 * eta[1:n + 1] * du_sq))

    # sum_j omega_nj |W_nj|^2 / k_n for W = U1_n - U1_j (a_n) and for
    # W = U1_{n-1} - U1_j (b_n), n = 2..N; a_1 = 0 exactly
    a_n = (reach[2:] * diag[2:] + z[2:] - 2.0 * p[2:]) / k[1:]
    b_n = (reach[2:] * diag[1:-1] + z[2:] - 2.0 * q[2:]) / k[1:]
    a_prev = np.concatenate([[0.0], a_n[:-1]])
    ksq_term = math.fsum(reach[2:] * k[1:] * du_sq[1:])
    hist_diss = math.fsum(a_n - b_n) + ksq_term
    # summation by parts in n: a_N - sum_{n>=2} (b_n - a_{n-1})
    hist_diss_alt = (math.fsum(np.concatenate([a_n[-1:], a_prev - b_n]))
                     + ksq_term)

    u2f = sys.restrict(history.U2)
    final_kinetic = float(u2f[n] @ (sys.Mff @ u2f[n]))
    jump_diss = 0.0
    rows = max(1, _CHUNK // max(u2f.shape[1], 1))
    for r in range(0, n, rows):
        jumps = np.diff(u2f[r:r + rows + 1], axis=0)
        jump_diss += float(np.einsum("ni,ni->", jumps,
                                     (sys.Mff @ jumps.T).T))

    ku0 = sys.K @ u0
    mv0 = sys.M @ v0
    initial = float(u0 @ ku0 + v0 @ mv0)

    load_work = 0.0
    if sys.volume is not None or sys.traction is not None:
        def load(step):
            fbar, gbar = time_average_load(sys, grid, step)
            return sys.restrict(fbar + gbar)
        if sys.loads_constant_in_time:
            power = u2f[1:] @ load(1)
        else:
            power = np.array([load(step) @ u2f[step]
                              for step in range(1, n + 1)])
        load_work = 2.0 * float(k @ power)

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

    Returns ``(weigh, reach)``: ``weigh(x)[..., m] = sum_{1 <= j < m}
    omega_mj x[..., j]`` for x with n + 1 columns (columns 0 and 1 exactly
    zero), and ``reach[m] = sum_{1 <= j < m} omega_mj``.  On uniform grids
    the product is one real-FFT convolution of the lags, long enough that
    nothing wraps around, and the row sums a running sum of the lags;
    nonuniform grids use their dense table.
    """
    reach = np.zeros(n + 1)
    if table.lags is None:
        lower = np.tril(table.omega[:n, :n], -1)
        reach[1:] = lower.sum(axis=1)

        def weigh(x):
            out = np.zeros(x.shape)
            out[..., 1:] = x[..., 1:] @ lower.T
            return out
        return weigh, reach

    # weigh(x)[m] = sum_{d=1}^{m-1} lags[d] x[m - d], entry m - 2 of the
    # linear convolution of lags[1:n] with x[1:n]
    reach[2:] = np.cumsum(table.lags[1:n])
    size = next_fast_len(max(2 * n - 3, 1), real=True)
    spectrum = rfft(table.lags[1:n], size)

    def weigh(x):
        out = np.zeros(x.shape)
        if n >= 2:
            conv = irfft(rfft(x[..., 1:n], size) * spectrum, size)
            out[..., 2:] = conv[..., :n - 1]
        return out
    return weigh, reach


def _stiffness_products(u1, sys: AssembledSystem, weigh):
    """Per-step stiffness products of a displacement history u1 (N+1 rows).

    Returns diag[n] = a(U_n, U_n), sub[n] = a(U_n, U_{n-1}), p[n] =
    a(U_n, H_n) and q[n] = a(U_{n-1}, H_n) with H_n = weigh(U)[n], each of
    length N + 1 (sub[0], p[0], q[0], p[1], q[1] zero).  The free dofs are
    processed in blocks, so beyond one dof-major copy of the history only
    O(_CHUNK) numbers are held at a time.
    """
    ut = u1.T[sys.free_dofs]                  # (nf, N+1), C order
    n_rows, n_cols = ut.shape
    diag = np.zeros(n_cols)
    sub = np.zeros(n_cols)
    p = np.zeros(n_cols)
    q = np.zeros(n_cols)
    width = max(1, _CHUNK // (2 * n_cols))
    for c in range(0, n_rows, width):
        u = ut[c:c + width]
        ku = sys.Kff[c:c + width] @ ut        # rows of K U, all steps
        kh = weigh(ku)
        diag += np.einsum("in,in->n", u, ku)
        sub[1:] += np.einsum("in,in->n", u[:, 1:], ku[:, :-1])
        p += np.einsum("in,in->n", u, kh)
        q[1:] += np.einsum("in,in->n", u[:, :-1], kh[:, 1:])
    return diag, sub, p, q


@dataclass
class TailReport:
    tail_mean: float
    reference: float
    rel_gap: float
    settled: bool
    halves_gap: float

    @property
    def ok(self):
        return self.settled


def long_time_limit(history: SolutionHistory, vertex, component=1,
                    reference=None):
    """Mean of a probe trace over the final quarter of the run.

    Returns the tail mean and its relative gap to ``reference`` (typically
    the relaxed static solve).  If the first and second halves of the tail
    window disagree by more than ``SETTLE_TOL`` (relative), the run is
    flagged unsettled and a warning is emitted.
    """
    t = history.times
    vals = history.U1[:, 2 * vertex + component]
    t_cut = t[-1] * 0.75
    sel = t >= t_cut
    if np.count_nonzero(sel) < 4:
        raise ValueError("tail window has too few samples")
    tail_t = t[sel]
    tail_v = vals[sel]
    tail_mean = float(np.trapezoid(tail_v, tail_t) / (tail_t[-1] - tail_t[0]))
    mid = tail_t[0] + 0.5 * (tail_t[-1] - tail_t[0])
    first = tail_t <= mid
    m1 = float(np.trapezoid(tail_v[first], tail_t[first])
               / max(tail_t[first][-1] - tail_t[first][0], 1e-300))
    second = tail_t >= mid
    m2 = float(np.trapezoid(tail_v[second], tail_t[second])
               / max(tail_t[second][-1] - tail_t[second][0], 1e-300))
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
