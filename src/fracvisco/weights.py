"""Convolution weights omega_nj and averaged relaxation values eta_n.

omega_nj integrates the kernel over the time cell I_n x (I_j up to the
diagonal):

    omega_nj = integral over t in I_n, s in (t_{j-1}, min(t_j, t)) of beta(t-s)

In closed form this telescopes through the double primitive C:

    omega_nj = C(t_n - t_{j-1}) - C(t_n - t_j) - C(t_{n-1} - t_{j-1}) + C(t_{n-1} - t_j)
    omega_nn = C(k_n)

A midpoint mode replaces the outer t-integral with a one-point midpoint rule
over I_n applied to the (exact) inner primitive difference.  In both modes

    eta_n = 1 - (sum_j omega_nj) / k_n

is derived from the row sum, which keeps the row-sum relation, and with it
the discrete energy bookkeeping, exact in floating point (up to the order of
summation: on uniform grids the row sums are running sums of the lags).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mlf import (KernelParams, beta_double_primitive, beta_primitive,
                  kernel_beta, ml_e_array)

__all__ = [
    "TimeGrid",
    "WeightTable",
    "build_weights",
    "verify_sign_structure",
    "SignStructureReport",
    "omega_by_quadrature",
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
        if n_steps < 1 or t_final <= 0.0:
            raise ValueError("need n_steps >= 1 and t_final > 0")
        k = t_final / n_steps
        return cls(np.arange(n_steps + 1) * k)

    @cached_property
    def steps(self):
        k = np.diff(self.nodes)
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
        return bool(np.all(np.abs(k - k[0]) <= 1e-12 * k[0]))


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
    mode: str
    grid: TimeGrid
    params: KernelParams = field(repr=False)
    lags: np.ndarray = field(default=None, repr=False)

    @property
    def n_steps(self):
        return self.omega.shape[0]

    def beta_cell_averages(self):
        """beta_nj = omega_nj / (k_n k_j), the cell means of the kernel."""
        k = self.grid.steps
        return self.omega / np.outer(k, k)


def build_weights(grid: TimeGrid, p: KernelParams, mode="closed_form"):
    """Build the weight table on ``grid`` for kernel ``p``.

    closed_form evaluates the exact cell integrals through C; midpoint
    applies a one-point midpoint rule in t to the inner primitive difference.
    Uniform grids store only the O(N) distinct lags; ``omega`` is then a
    read-only Toeplitz view of them, not an O(N^2) table.
    """
    if mode not in ("closed_form", "midpoint"):
        raise ValueError(f"unknown mode {mode!r}")
    nodes = grid.nodes
    k = grid.steps
    n = grid.n_steps
    if grid.is_uniform:
        h = k[0]
        w_of = np.zeros(n)  # w_of[d] = omega_{j+d, j}, d = 0 the diagonal
        if p.gamma > 0.0 and mode == "closed_form":
            cl = beta_double_primitive(p, np.arange(n + 1) * h)
            # second difference in the lag index; row-independent
            w_of[0] = cl[1]  # C(k): diagonal entry
            d = np.arange(1, n)
            w_of[1:] = cl[d + 1] - 2.0 * cl[d] + cl[d - 1]
        elif p.gamma > 0.0:
            bl = beta_primitive(p, (np.arange(n) + 0.5) * h)
            w_of[0] = h * bl[0]
            w_of[1:] = h * (bl[1:] - bl[:-1])
        w_of.flags.writeable = False  # omega is a view of a copy of it
        eta_bar = np.empty(n + 1)
        eta_bar[0] = 1.0
        eta_bar[1:] = 1.0 - np.cumsum(w_of) / k
        return WeightTable(omega=_toeplitz_view(w_of), eta_bar=eta_bar,
                           mode=mode, grid=grid, params=p, lags=w_of)
    if p.gamma == 0.0:
        omega = np.zeros((n, n))
    elif mode == "closed_form":
        # the pairwise table is zero at lags <= 0, so the diagonal comes out
        # as C(k_n) and the upper triangle as zeros
        c = _pairwise_primitive(beta_double_primitive, p, nodes)
        omega = c[1:, :-1] - c[1:, 1:] - c[:-1, :-1] + c[:-1, 1:]
    else:
        b = _pairwise_primitive(beta_primitive, p, nodes,
                                mid=nodes[:-1] + 0.5 * k)
        omega = k[:, None] * (b[:, :-1] - b[:, 1:])
        # the diagonal at the exact half step (mid_n - t_{n-1} may round)
        omega[np.diag_indices(n)] = k * beta_primitive(p, 0.5 * k)
    row_sums = omega.sum(axis=1)
    eta_bar = np.empty(n + 1)
    eta_bar[0] = 1.0
    eta_bar[1:] = 1.0 - row_sums / k
    return WeightTable(omega=omega, eta_bar=eta_bar, mode=mode, grid=grid, params=p)


def _toeplitz_view(w_of):
    """Read-only lower-triangular Toeplitz matrix T[i, j] = w_of[i - j] (zero
    above the diagonal) as a zero-copy view of 2N - 1 numbers."""
    n = w_of.size
    padded = np.concatenate([w_of[::-1], np.zeros(n - 1)])
    # window i is padded[i:i + n]; row i of T is window n - 1 - i
    return sliding_window_view(padded, n)[::-1]


def _pairwise_primitive(fn, p, nodes, mid=None):
    """fn(p, lag) over all needed (row, node) lags, one vectorized call.

    With mid=None returns P[a, b] = fn(t_a - t_b) for a >= b (zeros elsewhere);
    with mid given returns P[i, b] = fn(mid_i - t_b) for t_b < mid_i.
    """
    if mid is None:
        rows = nodes
    else:
        rows = mid
    lag = rows[:, None] - nodes[None, :]
    mask = lag > 0.0
    vals = np.zeros_like(lag)
    vals[mask] = fn(p, lag[mask])
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
    """Check d_n eta_n < 0 and d_n beta_nj < 0 (j < n-1), d_n the backward difference.

    Intended for closed_form tables; midpoint tables can violate the signs
    within quadrature error.  Returns a report, never raises.
    """
    k = table.grid.steps
    if table.params.gamma == 0.0:
        return SignStructureReport([], [], degenerate=True)
    deta = np.diff(table.eta_bar) / k
    eta_viol = [(int(i) + 1, float(deta[i]))
                for i in np.flatnonzero(~(deta < 0.0))]
    d = np.diff(table.beta_cell_averages(), axis=0) / k[1:, None]
    # d[r, c] is d_n beta_nj for n = r + 2, j = c + 1; j < n - 1 is c < r
    rows, cols = np.nonzero(np.tril(~(d < 0.0), -1))
    beta_viol = [(int(r) + 2, int(c) + 1, float(d[r, c]))
                 for r, c in zip(rows, cols)]
    return SignStructureReport(eta_viol, beta_viol, degenerate=False)


_GL32 = np.polynomial.legendre.leggauss(32)
_GL48 = np.polynomial.legendre.leggauss(48)


def omega_by_quadrature(grid: TimeGrid, p: KernelParams, n, j,
                        epsabs=1e-12, epsrel=1e-10):
    """Nested-quadrature reference for omega_nj (1-based indices).

    Outer integral over I_n is adaptive.  The inner kernel integral in the
    lag w = t - s is singularity-aware: the substitution w = z**(1/alpha)
    absorbs the weak w**(alpha-1) endpoint singularity exactly (the
    z-integrand is the analytic E_{alpha,alpha}(-lam*z)), and is then
    integrated by a Gauss rule whose 32- vs 48-point agreement is checked,
    escalating to fully adaptive quadrature on disagreement.  Independent of
    the closed-form route through the double primitive C; shares only the
    pointwise Mittag-Leffler evaluation.
    """
    from scipy.integrate import quad

    if not (1 <= j <= n <= grid.n_steps):
        raise ValueError("need 1 <= j <= n <= N")
    if p.gamma == 0.0:
        return 0.0
    t0, t1 = grid.nodes[n - 1], grid.nodes[n]
    s0, s1 = grid.nodes[j - 1], grid.nodes[j]
    lam = p.rate
    alpha = p.alpha
    scale = p.gamma * lam / alpha

    def inner(t):
        # integral of beta over (max(t - s1, 0), t - s0) in the lag variable
        zl = max(t - s1, 0.0) ** alpha
        zh = (t - s0) ** alpha
        hw = 0.5 * (zh - zl)
        mid = 0.5 * (zh + zl)
        za = mid + hw * _GL32[0]
        zb = mid + hw * _GL48[0]
        e = ml_e_array(alpha, alpha, lam * np.concatenate([za, zb]))
        va = scale * hw * np.dot(_GL32[1], e[:32])
        vb = scale * hw * np.dot(_GL48[1], e[32:])
        if abs(va - vb) > max(epsabs * 1e-2, epsrel * abs(vb)):
            vb, _ = quad(
                lambda z: scale * ml_e_array(alpha, alpha, np.array([lam * z]))[0],
                zl, zh, epsabs=epsabs * 1e-2, epsrel=epsrel, limit=200)
        return vb

    val, _ = quad(inner, t0, t1, epsabs=epsabs, epsrel=epsrel, limit=200)
    return val
