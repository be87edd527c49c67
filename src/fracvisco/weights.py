"""Convolution weights omega_nj and averaged relaxation values eta_n.

omega_nj integrates the kernel over the time cell I_n x (I_j up to the
diagonal):

    omega_nj = integral over t in I_n, s in (t_{j-1}, min(t_j, t)) of beta(t-s)

In closed form this telescopes through the double primitive C:

    omega_nj = C(t_n - t_{j-1}) - C(t_n - t_j) - C(t_{n-1} - t_{j-1}) + C(t_{n-1} - t_j)
    omega_nn = C(k_n)

The relaxation average

    eta_n = 1 - (sum_j omega_nj) / k_n

is derived from the row sum, which keeps the row-sum relation, and with it
the discrete energy bookkeeping, exact in floating point (up to the order of
summation: on uniform grids the row sums are running sums of the lags).
``verify_sign_structure`` checks that eta_n and the kernel's cell means
beta_nj = omega_nj / (k_n k_j) decrease in n, one row of the table at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# beta_primitive is unused here; perfbench wraps it under this module's name
from .mlf import KernelParams, beta_double_primitive, beta_primitive

__all__ = [
    "TimeGrid",
    "step_count",
    "dividing_step_count",
    "WeightTable",
    "build_weights",
    "verify_sign_structure",
    "SignStructureReport",
]


@dataclass(frozen=True)
class TimeGrid:
    """Temporal mesh 0 = t_0 < t_1 < ... < t_N."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t_0 = 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, t_final, n_steps):
        """The grid of ``n_steps`` equal steps on [0, t_final]; ``t_final``
        must be positive and finite, and ``n_steps`` a whole number >= 1."""
        if not 0.0 < t_final < np.inf:
            raise ValueError(f"t_final must be positive and finite, "
                             f"got t_final = {t_final!r}")
        if not (n_steps >= 1 and float(n_steps).is_integer()):
            raise ValueError(f"n_steps must be a whole number >= 1, "
                             f"got n_steps = {n_steps!r}")
        k = t_final / n_steps
        return cls(np.arange(n_steps + 1) * k)

    @classmethod
    def with_step(cls, t_final, k):
        """The uniform grid of step k on [0, t_final], of the step count
        ``dividing_step_count`` gives."""
        return cls.uniform(t_final, dividing_step_count(t_final, k))

    @cached_property
    def steps(self):
        """The k_n; on a uniform grid every entry is exactly k_1, the step
        ``build_weights`` uses.

        A grid is uniform when every difference of its nodes lies within
        4 u t_N of k_1 (u = 2^-53), the rounding of the nodes t_n = fl(n k)
        that ``uniform`` builds.  Their differences are exact: t_1 - t_0 =
        t_1 = k, and for n >= 2 the nodes t_{n-1} <= t_n <= 2 t_{n-1}
        subtract exactly (Sterbenz).  So k_n - k_1 = e_n - e_{n-1} with
        |e_n| = |t_n - n k| <= u n k, and |k_n - k_1| <= 2 u N k, below
        4 u t_N.  A tolerance relative to k_1 alone is too tight once N u
        exceeds it: 1e-12 k_1 was, beyond N of about 4500 for non-dyadic k.
        The uniform path takes its lags from ``arange(n + 1) * k_1``, so the
        rounding of the nodes never reaches the weights."""
        k = np.diff(self.nodes)
        if np.all(np.abs(k - k[0]) <= 4 * 2.0 ** -53 * self.nodes[-1]):
            k[:] = k[0]
        k.flags.writeable = False
        return k

    @property
    def n_steps(self):
        return self.nodes.size - 1

    @property
    def t_final(self):
        return float(self.nodes[-1])

    @property
    def is_uniform(self):
        k = self.steps
        return bool(np.all(k == k[0]))


def step_count(span, k):
    """round(span / k) as an int; ValueError, not round's OverflowError,
    when span / k is not finite (a subnormal k, say)."""
    count = span / k
    if not np.isfinite(count):
        raise ValueError(f"k = {k!r} gives {count} steps, not a finite count")
    return int(round(count))


def dividing_step_count(t_final, k):
    """round(t_final / k), with no grid built: both must be positive and
    finite, and k must divide t_final to 1e-9 relative (else ValueError)."""
    if not (0.0 < t_final < np.inf and 0.0 < k < np.inf):
        raise ValueError(f"t_final and k must be positive and finite, "
                         f"got t_final = {t_final!r}, k = {k!r}")
    steps = step_count(t_final, k)
    if steps < 1 or abs(steps * k - t_final) > 1e-9 * t_final:
        raise ValueError(f"k = {k!r} does not divide t_final = {t_final!r}")
    return steps


@dataclass
class WeightTable:
    """Lower-triangular omega (units: seconds) plus eta_bar on the same grid.

    omega[n-1, j-1] holds omega_nj for 1 <= j <= n <= N; eta_bar[n] holds
    eta_n for n = 0..N with eta_bar[0] = 1.  On uniform grids omega_nj
    depends only on n - j: ``lags[d]`` holds omega_{j+d,j} and ``omega`` is
    a read-only view of it; elsewhere ``lags`` is None and omega is dense.
    """

    omega: np.ndarray
    eta_bar: np.ndarray
    grid: TimeGrid
    params: KernelParams = field(repr=False)
    lags: np.ndarray = field(default=None, repr=False)

    @property
    def n_steps(self):
        return self.omega.shape[0]


def build_weights(grid: TimeGrid, p: KernelParams):
    """Build the exact weight table on ``grid`` for kernel ``p``.

    Uniform grids store only the O(N) distinct lags; ``omega`` is then a
    read-only Toeplitz view of them, not an O(N^2) table.
    """
    nodes = grid.nodes
    k = grid.steps
    n = grid.n_steps
    if grid.is_uniform:
        lags = np.zeros(n)  # lags[d] = omega_{j+d, j}, d = 0 the diagonal
        if p.gamma > 0.0:
            cl = beta_double_primitive(p, np.arange(n + 1) * k[0])
            # second difference in the lag index; row-independent
            lags[0] = cl[1]  # C(k): diagonal entry
            lags[1:] = cl[2:] - 2.0 * cl[1:-1] + cl[:-2]
        lags.flags.writeable = False  # omega is a view of a copy of it
        omega = _toeplitz_view(lags)
        row_sums = np.cumsum(lags)
    else:
        lags = None
        if p.gamma == 0.0:
            omega = np.zeros((n, n))
        else:
            # the pairwise table is zero at lags <= 0, so the diagonal comes
            # out as C(k_n) and the upper triangle as zeros
            c = _pairwise_primitive(p, nodes)
            omega = c[1:, :-1] - c[1:, 1:] - c[:-1, :-1] + c[:-1, 1:]
        row_sums = omega.sum(axis=1)
    eta_bar = np.empty(n + 1)
    eta_bar[0] = 1.0
    eta_bar[1:] = 1.0 - row_sums / k
    return WeightTable(omega=omega, eta_bar=eta_bar, grid=grid, params=p,
                       lags=lags)


def _toeplitz_view(w_of):
    """Read-only lower-triangular Toeplitz matrix T[i, j] = w_of[i - j] (zero
    above the diagonal) as a zero-copy view of 2N - 1 numbers."""
    n = w_of.size
    padded = np.concatenate([w_of[::-1], np.zeros(n - 1)])
    # window i is padded[i:i + n]; row i of T is window n - 1 - i
    return sliding_window_view(padded, n)[::-1]


def _pairwise_primitive(p, nodes):
    """C[a, b] = C(t_a - t_b) for a > b, zeros elsewhere; one vectorized call."""
    lag = nodes[:, None] - nodes[None, :]
    mask = lag > 0.0
    vals = np.zeros_like(lag)
    vals[mask] = beta_double_primitive(p, lag[mask])
    return vals


@dataclass
class SignStructureReport:
    """Backward-difference signs of eta_n and of the cell means beta_nj.

    Both families must be strictly negative for a decreasing kernel; the
    gamma = 0 table is flagged degenerate (all differences identically zero).
    """

    eta_violations: list
    beta_violations: list
    degenerate: bool

    @property
    def ok(self):
        return self.degenerate or (
            not self.eta_violations and not self.beta_violations
        )

    def summary(self):
        if self.degenerate:
            return "degenerate (gamma = 0): all differences vanish"
        if self.ok:
            return "all backward differences negative"
        return (f"{len(self.eta_violations)} eta violations, "
                f"{len(self.beta_violations)} beta violations")


def verify_sign_structure(table: WeightTable):
    """Check d_n eta_n < 0 and d_n beta_nj < 0 (j < n-1), d_n the backward
    difference.  The table is read a row at a time, so the check holds O(N)
    numbers on either kind of grid.  Returns a report, never raises.
    """
    k = table.grid.steps
    if table.params.gamma == 0.0:
        return SignStructureReport([], [], degenerate=True)
    deta = np.diff(table.eta_bar) / k
    eta_viol = [(int(i) + 1, float(deta[i]))
                for i in np.flatnonzero(~(deta < 0.0))]
    beta_viol = []
    prev = table.omega[0, :1] / (k[0] * k[:1])
    for n in range(2, table.n_steps + 1):
        row = table.omega[n - 1, :n] / (k[n - 1] * k[:n])
        d = (row[:n - 2] - prev[:n - 2]) / k[n - 1]
        beta_viol += [(n, int(c) + 1, float(d[c]))
                      for c in np.flatnonzero(~(d < 0.0))]
        prev = row
    return SignStructureReport(eta_viol, beta_viol, degenerate=False)

