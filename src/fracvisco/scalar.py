"""Single-mode model rho*u'' + kappa*u - kappa*int beta(t-s) u(s) ds = f(t).

Two deliberately different discretizations live here:

* ``scalar_dg0`` is the same piecewise-constant-in-time scheme as the finite
  element stepper, written as an independent plain loop (it shares only the
  history sum, ``stepper.history_sums``) so the two can cross-check each
  other's stepping on a one-unknown system.

* ``scalar_reference`` is a second-order scheme from a different family:
  Crank-Nicolson for the motion, product integration for the memory term
  (the kernel integrated exactly against the piecewise-linear interpolant of
  u, using the closed-form primitives B and C for the moments, each
  evaluated once per node seen from a target), on a grid with a
  quadratically graded startup section that resolves the weak kernel
  singularity.  A Richardson pair at 2x and 4x the step confirms its error
  estimate; ``convergence_study`` measures observed orders of the dG(0)
  scheme against it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mlf import KernelParams, beta_double_primitive, beta_primitive
from .stepper import history_sums
from .weights import TimeGrid, WeightTable, build_weights

__all__ = [
    "ScalarModel",
    "ScalarTrace",
    "ReferenceTrace",
    "scalar_dg0",
    "scalar_reference",
    "convergence_study",
    "self_convergence_study",
]

# convergence_study's reference step is the smallest k divided by this.
REF_FACTOR = 32


@dataclass(frozen=True)
class ScalarModel:
    rho: float
    kappa: float
    kernel: KernelParams
    forcing: object = None      # f(t) -> float, or None for f = 0
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if not (self.rho > 0.0 and self.kappa > 0.0):
            raise ValueError("rho and kappa must be positive")

    def f(self, t):
        if self.forcing is None:
            return np.zeros_like(np.asarray(t, dtype=np.float64))
        return np.asarray(self.forcing(t), dtype=np.float64)


@dataclass
class ScalarTrace:
    times: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


@dataclass
class ReferenceTrace:
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    k_ref: float
    est_error: float
    richardson_order: float
    richardson_ok: bool = True

    def at_final(self):
        return float(self.u[-1])


def scalar_dg0(model: ScalarModel, table: WeightTable):
    """dG(0) trajectory of the scalar model on the grid of ``table``; one
    scalar solve per step."""
    grid = table.grid
    n_steps = grid.n_steps
    k = grid.steps
    u1 = np.empty(n_steps + 1)
    u2 = np.zeros(n_steps + 1)      # also the history accumulator
    u1[0], u2[0] = model.u0, model.v0
    rho, kappa = model.rho, model.kappa
    omega = table.omega
    for n, hist in enumerate(history_sums(table, u1, u2), start=1):
        kn = k[n - 1]
        co = kn - omega[n - 1, n - 1]
        fbar = float(model.f(grid.nodes[n - 1] + 0.5 * kn))
        denom = rho + kn * co * kappa
        u2[n] = (rho * u2[n - 1] - co * kappa * u1[n - 1]
                 + kappa * float(hist) + kn * fbar) / denom
        u1[n] = u1[n - 1] + kn * u2[n]
    return ScalarTrace(times=grid.nodes.copy(), u1=u1, u2=u2)


def _graded_nodes(t_g, m_g):
    i = np.arange(m_g + 1, dtype=np.float64)
    return t_g * (i / m_g) ** 2


def _pl_weights(p, lags, h):
    """Product weights of (u_lo, u_hi) for the intervals between consecutive
    nodes, seen from one target: the kernel integrated exactly against the
    linear interpolant, via the primitives B and C.

    ``lags`` holds the lags from the target to the nodes along axis 0 (so
    decreasing), ``h`` the interval lengths (broadcast against
    ``lags[:-1]``).  B and C are evaluated once per node; neighbouring
    values give both weights of every interval.
    """
    if p.gamma == 0.0:
        zero = np.zeros(np.broadcast_shapes(lags[:-1].shape, np.shape(h)))
        return zero, zero
    bl = beta_primitive(p, lags)
    cl = beta_double_primitive(p, lags)
    dc = cl[:-1] - cl[1:]
    w_lo = (h * bl[:-1] - dc) / h
    w_hi = (dc - h * bl[1:]) / h
    return w_lo, w_hi


def _cn_step(u, v, ivals, fvals, m, h, hist, q1, rho, kappa):
    # one Crank-Nicolson step with the implicit memory weight q1 on u_{m+1}
    fm = fvals[m] - kappa * u[m] + kappa * ivals[m]
    ut = u[m] + 0.5 * h * v[m]
    denom = rho + 0.25 * h * h * kappa * (1.0 - q1)
    v[m + 1] = (rho * v[m] + 0.5 * h * (fm + fvals[m + 1] + kappa * hist)
                + 0.5 * h * kappa * (q1 - 1.0) * ut) / denom
    u[m + 1] = ut + 0.5 * h * v[m + 1]
    ivals[m + 1] = hist + q1 * u[m + 1]


def cn_sweep(u, v, ivals, fvals, agr, pw, qw, k, rho, kappa, m0):
    """Crank-Nicolson steps of size k over the uniform tail of the grid.

    u, v and ivals are filled through index m0; pw and qw are the lag-indexed
    product weights, agr the frozen contribution of the graded startup.
    """
    for m in range(m0, u.shape[0] - 1):
        n = m + 1 - m0
        hist = agr[m + 1] + np.dot(u[m0:m + 1], pw[n:0:-1])
        if m > m0:
            hist += np.dot(u[m0 + 1:m + 1], qw[n:1:-1])
        _cn_step(u, v, ivals, fvals, m, k, hist, qw[1], rho, kappa)
    return u


def _reference_sweep(model, t_final, k_ref, m_g, startup_steps):
    p = model.kernel
    rho, kappa = model.rho, model.kappa
    t_g = startup_steps * k_ref
    if t_g >= 0.5 * t_final:
        t_g = 0.5 * t_final
    m_u = int(round((t_final - t_g) / k_ref))
    graded = _graded_nodes(t_g, m_g)
    nodes = np.concatenate([graded, t_g + k_ref * np.arange(1, m_u + 1)])
    M = nodes.size - 1
    u = np.zeros(M + 1)
    v = np.zeros(M + 1)
    ivals = np.zeros(M + 1)
    u[0], v[0] = model.u0, model.v0
    fvals = model.f(nodes)

    # graded startup: each step's product weights over all earlier
    # intervals in one call; the last interval's upper weight is implicit
    for m in range(m_g):
        h = np.diff(nodes[:m + 2])
        w_lo, w_hi = _pl_weights(p, nodes[m + 1] - nodes[:m + 2], h)
        hist = u[:m + 1] @ w_lo + u[1:m + 1] @ w_hi[:m]
        _cn_step(u, v, ivals, fvals, m, h[m], hist, w_hi[m], rho, kappa)

    # uniform continuation: lag-indexed weights plus the frozen graded part
    d = np.arange(M - m_g, -1, -1, dtype=np.float64)
    pw = np.zeros(M - m_g + 1)
    qw = np.zeros(M - m_g + 1)
    pw[:0:-1], qw[:0:-1] = _pl_weights(p, d * k_ref, k_ref)

    agr = np.zeros(M + 1)
    if m_g > 0:
        # (m_g, M - m_g) blocks: graded interval i seen from each target
        w_lo, w_hi = _pl_weights(p, nodes[None, m_g + 1:] - graded[:, None],
                                 np.diff(graded)[:, None])
        agr[m_g + 1:] = u[:m_g] @ w_lo + u[1:m_g + 1] @ w_hi
    cn_sweep(u, v, ivals, fvals, agr, pw, qw, k_ref, rho, kappa, m_g)
    return nodes, u, v


def scalar_reference(model: ScalarModel, t_final, k_ref, m_g=64,
                     startup_steps=32):
    """High-accuracy reference trajectory with a Richardson error estimate.

    Runs the product-integration/Crank-Nicolson scheme at steps k_ref, 2k_ref
    and 4k_ref; the pairwise final-value differences give an error estimate
    and an observed order.  An estimate above 1e-6, or an order far from 2,
    is flagged (richardson_ok False) and warned about, never silently hidden.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    nodes, u, v = _reference_sweep(model, t_final, k_ref, m_g, startup_steps)
    _, u2, _ = _reference_sweep(model, t_final, 2.0 * k_ref, m_g,
                                max(startup_steps // 2, 1))
    _, u4, _ = _reference_sweep(model, t_final, 4.0 * k_ref, m_g,
                                max(startup_steps // 4, 1))
    d12 = abs(u[-1] - u2[-1])
    d24 = abs(u2[-1] - u4[-1])
    est = d12 / 3.0
    order = np.log2(d24 / d12) if (d12 > 0.0 and d24 > 0.0) else np.nan
    scale = max(abs(u[-1]), 1.0)
    ok = bool(est <= 1e-6 * scale and (np.isnan(order) or 1.5 < order < 2.6))
    if not ok:
        warnings.warn(
            f"reference self-check: est_error={est:.2e}, order={order:.2f}",
            stacklevel=2)
    return ReferenceTrace(times=nodes, u=u, v=v, k_ref=k_ref,
                          est_error=float(est),
                          richardson_order=float(order), richardson_ok=ok)


@dataclass
class ConvergenceRow:
    k: float
    error: float
    order: float  # NaN on the first row or for vanishing errors


@dataclass
class ConvergenceStudy:
    rows: list
    reference_value: float
    degenerate: bool = False    # all errors zero (e.g. zero data)

    def orders(self):
        return [r.order for r in self.rows]

    def csv(self):
        lines = ["k,error,order"]
        for r in self.rows:
            lines.append(f"{r.k!r},{r.error!r},{r.order!r}")
        return "\n".join(lines) + "\n"


def _step_grid(t_final, k):
    """Uniform grid of step k on [0, t_final]; k must divide t_final."""
    steps = round(t_final / k)
    if steps < 1 or abs(steps * k - t_final) > 1e-9 * t_final:
        raise ValueError(f"k = {k!r} does not divide t_final = {t_final!r}")
    return TimeGrid.uniform(t_final, steps)


def _dg0_study(model, k_list, grids, u_ref):
    """dG(0) final-value errors against u_ref and the observed orders."""
    finals = [scalar_dg0(model, build_weights(grid, model.kernel)).u1[-1]
              for grid in grids]
    errors = [float(abs(u - u_ref)) for u in finals]
    rows = [ConvergenceRow(k=float(k_list[0]), error=errors[0],
                           order=float("nan"))]
    for i in range(1, len(k_list)):
        if errors[i] > 0.0 and errors[i - 1] > 0.0:
            order = float(np.log(errors[i - 1] / errors[i])
                          / np.log(k_list[i - 1] / k_list[i]))
        else:
            order = float("nan")
        rows.append(ConvergenceRow(k=float(k_list[i]), error=errors[i],
                                   order=order))
    return ConvergenceStudy(rows=rows, reference_value=u_ref,
                            degenerate=all(e == 0.0 for e in errors))


def convergence_study(model: ScalarModel, k_list, t_final,
                      reference: ReferenceTrace = None):
    """Observed dG(0) temporal orders against the product-integration reference.

    k_list must be decreasing, and each k must divide t_final to 1e-9
    relative; the reference step is k_min/REF_FACTOR unless a precomputed
    reference is supplied.
    """
    k_list = list(k_list)
    if any(k2 >= k1 for k1, k2 in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be strictly decreasing")
    grids = [_step_grid(t_final, k) for k in k_list]
    if reference is None:
        reference = scalar_reference(model, t_final, min(k_list) / REF_FACTOR)
    return _dg0_study(model, k_list, grids, reference.at_final())


def self_convergence_study(model: ScalarModel, k_list, t_final, k_fine):
    """Orders measured against a fine dG(0) run (same scheme, smaller step)."""
    if k_fine >= min(k_list):
        raise ValueError("k_fine must be below every entry of k_list")
    grids = [_step_grid(t_final, k) for k in k_list]
    fine = build_weights(_step_grid(t_final, k_fine), model.kernel)
    u_ref = float(scalar_dg0(model, fine).u1[-1])
    return _dg0_study(model, k_list, grids, u_ref)
