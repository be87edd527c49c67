#!/usr/bin/env python3
"""Time the numeric kernels that dominate runtime.

They are batched Mittag-Leffler evaluation (feeds every weight table),
weight-table construction on a nonuniform grid (O(N^2) distinct lags), the
product-integration sweep of the scalar reference solver (O(M^2) memory work),
the dG(0) history sum (dense row products against ``stepper.history_sums``
at three FFT thresholds, the middle one the default ``DIRECT_BLOCK``), one
direct solve of the dG(0) step matrix by banded Cholesky in reverse
Cuthill-McKee order (the rows name the half-bandwidth bw) and the energy
ledger of ``energy-check`` on a stored history.  Times are per call; the
solve rows are per solve, residual check included.

Run:  python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracvisco import stepper  # noqa: E402
from fracvisco._kernels import eval_ml_neg  # noqa: E402
from fracvisco.diagnostics import energy_ledger  # noqa: E402
from fracvisco.fem import (ElasticParams, assemble,  # noqa: E402
                           build_rect_mesh)
from fracvisco.mlf import KernelParams  # noqa: E402
from fracvisco.scalar import ScalarModel, scalar_reference  # noqa: E402
from fracvisco.solvers import SpdSolver  # noqa: E402
from fracvisco.weights import TimeGrid, build_weights  # noqa: E402


def timed(fn, repeat=3):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def dense_history(lags, u):
    """H_n = sum_{j<n} omega_nj u_j as one row product per step."""
    rev = lags[::-1].copy()     # rev[N-n:N-1] is table row n, omega_n1..
    n_all = rev.size
    for n in range(2, u.shape[0]):
        h = rev[n_all - n:n_all - 1] @ u[1:n]
    return h


def online_history(table, u, direct_block):
    saved = stepper.DIRECT_BLOCK
    stepper.DIRECT_BLOCK = direct_block
    try:
        for h in stepper.history_sums(table, u):
            pass
    finally:
        stepper.DIRECT_BLOCK = saved
    return h


def solve_row(nx, repeat):
    """Per-solve time of M + k^2 K on an nx-by-nx mesh with sec6's step k
    (the dG(0) step matrix without its memory part)."""
    sys_ = assemble(build_rect_mesh(nx, nx), ElasticParams(1e5, 1e5, 3000.0))
    k = 40.0 / 2560
    a = sys_.Mff + (k * k) * sys_.Kff
    nf = a.shape[0]
    b = np.random.default_rng(3).standard_normal(nf)
    calls = max(20, 20_000 // nf)
    solver = SpdSolver(a)
    bw = solver._band.shape[0] - 1

    def many():
        for _ in range(calls):
            solver.solve(b)
    t, _ = timed(many, repeat)
    return (f"direct_solve[nf={nf},bw={bw}]", t / calls)


def ledger_row(nx, n_steps, ker, repeat):
    """energy_ledger on an nx-by-nx mesh and N steps; the cost does not
    depend on the values, so the history is random."""
    sys_ = assemble(build_rect_mesh(nx, nx), ElasticParams(1.0, 1.0, 3000.0))
    grid = TimeGrid.uniform(8.0, n_steps)
    table = build_weights(grid, ker)
    nf = sys_.free_dofs.size
    rng = np.random.default_rng(5)
    hist = stepper.SolutionHistory(
        U1=sys_.expand(rng.standard_normal((n_steps + 1, nf))),
        U2=sys_.expand(rng.standard_normal((n_steps + 1, nf))), grid=grid)
    t, _ = timed(lambda: energy_ledger(hist, sys_, table), repeat)
    return (f"ledger[N={n_steps},nf={nf}]", t)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, single repeat (CI smoke)")
    args = parser.parse_args()
    repeat = 1 if args.quick else 3
    n_ml = 20_000 if args.quick else 400_000
    n_grid = 120 if args.quick else 800
    k_ref = 2.0 ** -9 if args.quick else 2.0 ** -12

    rows = []
    xs = np.geomspace(1e-4, 60.0, n_ml)
    t, _ = timed(lambda: eval_ml_neg(2.0 / 3.0, 2.0, xs), repeat)
    rows.append((f"ml_eval[{n_ml}]", t))

    ker = KernelParams(alpha=2.0 / 3.0, tau=1.0, gamma=0.5)
    rng = np.random.default_rng(7)
    steps = rng.uniform(0.5, 2.0, n_grid)
    steps *= 4.0 / steps.sum()
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    t, _ = timed(lambda: build_weights(grid, ker), repeat)
    rows.append((f"build_weights[N={n_grid}]", t))

    model = ScalarModel(rho=1.0, kappa=1.0, kernel=ker, u0=1.0)
    t, _ = timed(lambda: scalar_reference(model, 4.0, k_ref=k_ref), repeat)
    rows.append((f"scalar_reference[k={k_ref:g}]", t))

    n_hist = 1024 if args.quick else 8192
    table = build_weights(TimeGrid.uniform(40.0, n_hist), ker)
    u = rng.standard_normal((n_hist + 1, 144))
    tag = f"[N={n_hist},nf=144"
    t, _ = timed(lambda: dense_history(table.lags, u), repeat)
    rows.append((f"history{tag},dense rows]", t))
    for block, label in ((64, "fft above 64"),
                         (stepper.DIRECT_BLOCK,
                          f"fft above {stepper.DIRECT_BLOCK}"),
                         (n_hist, "no fft")):
        t, _ = timed(lambda: online_history(table, u, block), repeat)
        rows.append((f"history{tag},online {label}]", t))

    for nx in ((8, 16) if args.quick else (6, 7, 8, 10, 16, 25)):
        rows.append(solve_row(nx, repeat))

    for n_steps in ((128, 512) if args.quick else (512, 2048)):
        rows.append(ledger_row(8 if args.quick else 25, n_steps, ker, repeat))

    width = max(len(name) for name, _ in rows)
    print(f"{'kernel':<{width}}  best time")
    for name, t in rows:
        print(f"{name:<{width}}  {t * 1e3:11.4f} ms")


if __name__ == "__main__":
    main()
