"""Acceptance suite: one test per criterion, each printing a verdict line.

Budgets are wall-clock for the computation itself.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from fracvisco.diagnostics import energy_ledger, long_time_limit
from fracvisco.fem import (ElasticParams, assemble, build_rect_mesh,
                           quasi_static_solve, side_traction)
from fracvisco.mlf import KernelParams, beta_primitive, kernel_beta, ml_e
from fracvisco.scalar import ScalarModel, convergence_study, scalar_dg0
from fracvisco.stepper import run
from fracvisco.weights import TimeGrid, build_weights, verify_sign_structure
from oracles import omega_by_quadrature

SEC6_KERNEL = dict(alpha=2.0 / 3.0, tau=1.0, gamma=0.5)
SEC6_RHO = 3000.0


def verdict(num, ok, detail, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if budget is not None:
        timing = f" [{elapsed:.2f}s < {budget:.0f}s]"
    print(f"\n[{status}] criterion {num}: {detail}{timing}")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} runtime {elapsed:.2f}s"


@pytest.fixture(scope="module")
def sec6_long_run():
    """T = 40 run of the shipped benchmark scenario, shared by criteria 6, 7."""
    mesh = build_rect_mesh(16, 16)
    ep = ElasticParams(mu=1e5, lam=1e5, rho=SEC6_RHO)
    g = side_traction({"right": (0.0, -1.0)})
    sys_ = assemble(mesh, ep, traction=g)
    grid = TimeGrid.uniform(40.0, 2560)
    t0 = time.perf_counter()
    table = build_weights(grid, KernelParams(**SEC6_KERNEL))
    z = np.zeros(sys_.n_dofs)
    hist = run(sys_, table, z, z)
    elapsed = time.perf_counter() - t0
    return mesh, sys_, grid, hist, elapsed


def test_criterion_1_energy_identity():
    t0 = time.perf_counter()
    mesh = build_rect_mesh(8, 8)
    ep = ElasticParams(mu=1.0, lam=1.0, rho=SEC6_RHO)
    ker = KernelParams(**SEC6_KERNEL)
    loaded = assemble(mesh, ep, traction=side_traction({"right": (0.0, -1.0)}))
    u0 = quasi_static_solve(loaded, scale=1.0 - ker.gamma)
    sys_ = assemble(mesh, ep)
    grid = TimeGrid.uniform(1.0, 32)
    table = build_weights(grid, ker)
    hist = run(sys_, table, u0, np.zeros_like(u0))
    led = energy_ledger(hist)
    elapsed = time.perf_counter() - t0
    tol = 1e-12 * led.rhs_total
    diss_ok = (led.eta_dissipation >= -tol
               and led.history_dissipation >= -tol
               and led.jump_dissipation >= -tol)
    ok = led.residual_rel <= 1e-8 and diss_ok
    verdict(1, ok,
            f"energy identity |LHS-RHS|/RHS = {led.residual_rel:.2e} "
            f"(<= 1e-8), dissipation terms nonnegative: {diss_ok}",
            budget=5.0, elapsed=elapsed)


def test_criterion_2_weight_table():
    t0 = time.perf_counter()
    ker = KernelParams(**SEC6_KERNEL)
    rng = np.random.default_rng(20240817)
    steps = rng.uniform(0.5, 2.0, 20)
    steps *= 2.0 / steps.sum()
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    table = build_weights(grid, ker)
    worst = 0.0
    for n in range(1, 21):
        for j in range(1, n + 1):
            q = omega_by_quadrature(grid, ker, n, j)
            worst = max(worst, abs(q - table.omega[n - 1, j - 1]))
    k = grid.steps
    row_res = np.max(np.abs(table.omega.sum(axis=1)
                            - k * (1.0 - table.eta_bar[1:])))
    row_ok = row_res <= 4 * np.finfo(float).eps * np.max(k)
    signs = verify_sign_structure(table)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and row_ok and signs.ok and not signs.degenerate
    verdict(2, ok,
            f"max |omega - quadrature| = {worst:.2e} (<= 1e-8), "
            f"row-sum residual = {row_res:.2e} (machine eps), "
            f"sign structure: {signs.summary()}",
            budget=10.0, elapsed=elapsed)


def test_criterion_3_temporal_rate_scalar():
    t0 = time.perf_counter()
    ker = KernelParams(**SEC6_KERNEL)
    model = ScalarModel(rho=1.0, kappa=1.0, kernel=ker, u0=1.0, v0=0.0)
    k_list = [2.0 ** -e for e in range(3, 8)]
    study = convergence_study(model, k_list, 4.0)  # k_ref = 2^-7/32 = 2^-12
    elapsed = time.perf_counter() - t0
    finest_two = study.orders()[-2:]
    ok = all(0.85 <= o <= 1.15 for o in finest_two)
    verdict(3, ok,
            f"scalar dG(0) orders vs independent reference: "
            f"{['%.3f' % o for o in study.orders()[1:]]}, finest two "
            f"{['%.3f' % o for o in finest_two]} in [0.85, 1.15]",
            budget=30.0, elapsed=elapsed)


def test_criterion_4_self_convergence_2d():
    t0 = time.perf_counter()
    mesh = build_rect_mesh(16, 16)
    ep = ElasticParams(mu=1.0, lam=1.0, rho=SEC6_RHO)
    ker = KernelParams(**SEC6_KERNEL)
    sys_ = assemble(mesh, ep, traction=side_traction({"right": (0.0, -1.0)}))
    z = np.zeros(sys_.n_dofs)
    t_final = 4.0
    k_min = 2.0 ** -6

    def final_u1(k):
        grid = TimeGrid.uniform(t_final, int(round(t_final / k)))
        table = build_weights(grid, ker)
        return run(sys_, table, z, z).U1[-1]

    fine = final_u1(k_min)
    ks = np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
    errs = []
    for k in ks:
        d = final_u1(k) - fine
        errs.append(float(np.sqrt(d @ (sys_.M @ d))))
    # the raw slope of log(err) vs log(k) overstates the rate because the
    # reference run sits at k_min = k_finest/2: for a first-order scheme the
    # measured error is ~ C (k - k_min), which alone inflates the finest
    # pair by log2(3).  Fitting against log(k - k_min) removes that known
    # offset and estimates the actual rate.
    slope_raw = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    slope = float(np.polyfit(np.log(ks - k_min), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= slope <= 1.2
    verdict(4, ok,
            f"2D self-convergence errors {['%.3e' % e for e in errs]}, "
            f"rate = {slope:.3f} in [0.8, 1.2] "
            f"(uncorrected-axis slope {slope_raw:.3f})",
            budget=300.0, elapsed=elapsed)


def test_criterion_5_mittag_leffler_accuracy():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 10.0, 200)
    e11 = ml_e(1.0, 1.0, xs)
    err1 = np.max(np.abs(e11 - np.exp(-xs)) / np.exp(-xs))
    eh = ml_e(0.5, 1.0, xs)
    ref = np.exp(xs ** 2) * erfc(xs)
    err2 = np.max(np.abs(eh - ref) / ref)
    ker = KernelParams(**SEC6_KERNEL)
    mass, _ = quad(lambda t: kernel_beta(ker, t), 0.0, 200.0,
                   points=[1e-6, 0.1, 1.0], limit=400)
    mass += ker.gamma - beta_primitive(ker, 200.0)  # analytic tail bound
    mass_err = abs(mass - ker.gamma)
    elapsed = time.perf_counter() - t0
    ok = err1 <= 1e-10 and err2 <= 1e-10 and mass_err <= 1e-6
    verdict(5, ok,
            f"max rel err E_(1,1) = {err1:.2e}, E_(1/2,1) = {err2:.2e} "
            f"(<= 1e-10); kernel mass error = {mass_err:.2e} (<= 1e-6)",
            budget=5.0, elapsed=elapsed)


def test_criterion_6_long_time_relaxed_limit(sec6_long_run):
    mesh, sys_, grid, hist, elapsed_gamma = sec6_long_run
    t0 = time.perf_counter()
    vertex = mesh.nearest_vertex((1.0, 1.0))
    ker = KernelParams(**SEC6_KERNEL)
    ref = quasi_static_solve(sys_, scale=1.0 - ker.gamma)[2 * vertex + 1]
    rep = long_time_limit(hist, vertex, component=1, reference=ref)

    table0 = build_weights(grid, KernelParams(alpha=ker.alpha, tau=ker.tau,
                                              gamma=0.0))
    z = np.zeros(sys_.n_dofs)
    hist0 = run(sys_, table0, z, z)
    ref0 = quasi_static_solve(sys_, scale=1.0)[2 * vertex + 1]
    rep0 = long_time_limit(hist0, vertex, component=1, reference=ref0)
    elapsed = elapsed_gamma + time.perf_counter() - t0
    ok = rep.rel_gap <= 0.05 and rep0.rel_gap <= 0.05 and rep.settled
    verdict(6, ok,
            f"T=40 tail mean vs relaxed static: gap = {rep.rel_gap:.2%} "
            f"(gamma = 0.5), {rep0.rel_gap:.2%} (gamma = 0); both <= 5%",
            budget=120.0, elapsed=elapsed)


def test_criterion_7_damped_oscillation(sec6_long_run):
    mesh, sys_, grid, hist, _ = sec6_long_run
    vertex = mesh.nearest_vertex((1.0, 1.0))
    trace = hist.probe_trace(vertex)[:, 1]
    rep = long_time_limit(hist, vertex, component=1, reference=None)
    rel = trace - rep.tail_mean
    maxima = [rel[i] for i in range(1, len(rel) - 1)
              if rel[i] > rel[i - 1] and rel[i] >= rel[i + 1] and rel[i] > 0.0]
    decreasing = all(b < a for a, b in zip(maxima, maxima[1:]))
    ok = len(maxima) >= 3 and decreasing
    verdict(7, ok,
            f"oscillatory trace: {len(maxima)} local maxima above the tail "
            f"mean, strictly decreasing: {decreasing}")


def test_criterion_8_cross_implementation_oracle():
    mesh = build_rect_mesh(1, 1)
    ep = ElasticParams(mu=1.0, lam=1.0, rho=SEC6_RHO)
    ker = KernelParams(**SEC6_KERNEL)
    g = side_traction({"right": (0.0, -1.0)})
    sys_ = assemble(mesh, ep, traction=g, extra_fixed_dofs=[2, 3, 6])
    assert sys_.free_dofs.tolist() == [7]
    grid = TimeGrid.uniform(2.0, 100)
    table = build_weights(grid, ker)
    z = np.zeros(sys_.n_dofs)
    hist = run(sys_, table, z, z)
    model = ScalarModel(
        rho=float(sys_.Mff.toarray()[0, 0]),
        kappa=float(sys_.Kff.toarray()[0, 0]),
        kernel=ker,
        load=float(sys_.load[0]),
        u0=0.0, v0=0.0)
    trace = scalar_dg0(model, table)
    err = float(np.max(np.abs(hist.U1[:, 7] - trace.u1)))
    scale = float(np.max(np.abs(trace.u1)))
    ok = err <= 1e-10 * max(scale, 1.0)
    verdict(8, ok,
            f"one-dof finite element run vs scalar dG(0) over 100 steps: "
            f"max |diff| = {err:.2e} (<= 1e-10)")
