#!/usr/bin/env python3
"""Time the three numeric kernels that dominate runtime.

They are batched Mittag-Leffler evaluation (feeds every weight table),
weight-table construction on a nonuniform grid (O(N^2) distinct lags), and the
product-integration sweep of the scalar reference solver (O(M^2) memory work).

Run:  python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracvisco._kernels import eval_ml_neg  # noqa: E402
from fracvisco.mlf import KernelParams  # noqa: E402
from fracvisco.scalar import ScalarModel, scalar_reference  # noqa: E402
from fracvisco.weights import TimeGrid, build_weights  # noqa: E402


def timed(fn, repeat=3):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


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

    width = max(len(name) for name, _ in rows)
    print(f"{'kernel':<{width}}  best time")
    for name, t in rows:
        print(f"{name:<{width}}  {t * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
