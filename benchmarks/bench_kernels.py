#!/usr/bin/env python3
"""Time the numeric kernels that dominate runtime.

They are batched Mittag-Leffler evaluation (feeds every weight table; one
row over all three branches, one over the ascending series alone, one over
the descending asymptotic series alone (s in [40, 400]), one over the
spectral integral alone (s in [5, 40]), and the uniform
weight table of the long-memory run, N=8192 steps over 40 relaxation
times, whose lags fall mostly in the spectral branch),
weight-table construction on a nonuniform grid (O(N^2) distinct lags), the
product-integration sweep of the scalar reference solver (O(M^2) memory work),
the dG(0) history sum (dense row products against ``stepper.history_sums``
at three FFT thresholds, the middle one the default ``DIRECT_BLOCK``), one
direct solve of the dG(0) step matrix with its upper banded Cholesky factor
(A = U^T U in LAPACK upper band storage, ``pbtrs`` sweeping U^T y = b and
U x = y) in the band order ``assemble`` gives the free dofs (the rows name
the half-bandwidth bw), one dG(0) step (``stepper.advance``: right-hand side
and checked solve) with that matrix, a whole ``stepper.run`` of the sec6
physics per step, the energy ledger of ``energy-check`` on a stored history,
and the CSV writer on the probe trace of an 8192-step run.  Times are per
call; the solve rows are per solve, backward-error check included, the step
rows per step, with the products and the solver bound once as ``run`` binds
them, and the run rows per step of the run, factorization and history sum
included.  The memory rows give the tracemalloc peaks of ``stepper.run`` and
of ``energy_ledger`` at the energy_audit (25x25, N=2048), sec6 (16x16,
N=2560) and long_memory (8x8, N=8192) shapes, next to the two (N+1) x nf
histories a run must hold and what each call holds beyond them.  Last comes the wall time of a fresh
interpreter that imports ``fracvisco.cli``, the start-up every CLI call pays,
with that interpreter's peak resident size, and the wall times of fresh
``simulate`` and ``energy-check`` calls on ``configs/paper_sec6.cfg``.
BLAS runs on one thread, as in perfbench: every solve is single-vector.

``--json PATH`` also writes the record: the machine (nproc, CPU model, BLAS
threads, numba), the Python, numpy and scipy versions, the git revision,
and per row N and nf where they apply, best and median of the k timed
calls, and k; then the memory peaks, the import wall time and resident
size, and the one-shot CLI walls (k = 5; 1 under ``--quick``).

Run:  python benchmarks/bench_kernels.py [--quick] [--json PATH]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BLAS_THREADS = 1
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)     # before numpy loads BLAS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from fracvisco import _accel, cli, stepper  # noqa: E402
from fracvisco._kernels import S_ASYM, S_SERIES, eval_ml_neg  # noqa: E402
from fracvisco.diagnostics import energy_ledger  # noqa: E402
from fracvisco.fem import (ElasticParams, assemble,  # noqa: E402
                           build_rect_mesh, side_traction)
from fracvisco.mlf import KernelParams  # noqa: E402
from fracvisco.scalar import ScalarModel, scalar_reference  # noqa: E402
from fracvisco.solvers import SpdSolver, csr_product  # noqa: E402
from fracvisco.weights import TimeGrid, build_weights  # noqa: E402


def timed(fn, repeat=3):
    """The wall times of ``repeat`` calls of fn."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def row(name, times, per=1, n_steps=None, nf=None):
    """A result row: best and median of the timed calls, each divided by
    ``per``, the calls or steps one timed call makes."""
    return {"name": name, "N": n_steps, "nf": nf, "k": len(times),
            "best_s": min(times) / per,
            "median_s": statistics.median(times) / per}


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
        for h in stepper.history_sums(table, u, np.zeros_like(u)):
            pass
    finally:
        stepper.DIRECT_BLOCK = saved
    return h


def solve_rows(nx, repeat):
    """Per-solve time of M + k^2 K on an nx-by-nx mesh with sec6's step k
    (the dG(0) step matrix without its memory part), and per-step time of
    ``stepper.advance`` with that matrix (right-hand side and checked
    solve)."""
    sys_ = assemble(build_rect_mesh(nx, nx), ElasticParams(1e5, 1e5, 3000.0))
    k = 40.0 / 2560
    a = sys_.Mff + (k * k) * sys_.Kff
    nf = a.shape[0]
    rng = np.random.default_rng(3)
    b = rng.standard_normal(nf)
    calls = max(20, 20_000 // nf)
    solver = SpdSolver(a)
    bw = solver._band.shape[0] - 1

    def many_solves():
        for _ in range(calls):
            solver.solve(b)
    t_solve = timed(many_solves, repeat)

    u1_prev, u2_prev, hist = rng.standard_normal((3, nf))
    kload = k * sys_.load
    u1, u2 = np.empty(nf), np.empty(nf)
    kff = csr_product(sys_.Kff)
    work = (np.empty(nf), np.empty(nf))

    def many_steps():
        for _ in range(calls):
            stepper.advance(kff, k, k, kload, solver, u1_prev, u2_prev, hist,
                            u1, u2, work)
    t_step = timed(many_steps, repeat)
    tag = f"[nf={nf},bw={bw}]"
    return [row(f"direct_solve{tag}", t_solve, per=calls, nf=nf),
            row(f"step{tag}", t_step, per=calls, nf=nf)]


def run_row(nx, n_steps, ker, repeat):
    """``stepper.run`` per step, factorization and history sum included, on
    the sec6 physics (unit downward traction on the right side, T = 40)
    from rest on an nx-by-nx mesh; the weight table is built beforehand."""
    sys_ = assemble(build_rect_mesh(nx, nx), ElasticParams(1e5, 1e5, 3000.0),
                    traction=side_traction({"right": (0.0, -1.0)}))
    table = build_weights(TimeGrid.uniform(40.0, n_steps), ker)
    zero = np.zeros(sys_.n_dofs)
    t = timed(lambda: stepper.run(sys_, table, zero, zero), repeat)
    nf = sys_.free_dofs.size
    return row(f"run[N={n_steps},nf={nf}]", t, per=n_steps, n_steps=n_steps,
               nf=nf)


def ledger_row(nx, n_steps, ker, repeat):
    """energy_ledger on an nx-by-nx mesh and N steps; the cost does not
    depend on the values, so the history is random."""
    sys_ = assemble(build_rect_mesh(nx, nx), ElasticParams(1.0, 1.0, 3000.0))
    table = build_weights(TimeGrid.uniform(8.0, n_steps), ker)
    nf = sys_.free_dofs.size
    rng = np.random.default_rng(5)
    hist = stepper.SolutionHistory(
        u1f=rng.standard_normal((n_steps + 1, nf)),
        u2f=rng.standard_normal((n_steps + 1, nf)), system=sys_, table=table)
    t = timed(lambda: energy_ledger(hist), repeat)
    return row(f"ledger[N={n_steps},nf={nf}]", t, n_steps=n_steps, nf=nf)


def csv_row(n_steps, repeat):
    """``cli._write_csv`` on the (N+1) x 5 rows of a probe trace, handed over
    as ``simulate`` hands them: one list of Python floats per row."""
    rng = np.random.default_rng(13)
    rows = np.column_stack([np.linspace(0.0, 40.0, n_steps + 1),
                            rng.standard_normal((n_steps + 1, 4))]).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe_trace.csv"
        t = timed(lambda: cli._write_csv(path, "t,u1_x,u1_y,u2_x,u2_y",
                                         rows), repeat)
    return row(f"csv[probe_trace,N={n_steps}]", t, n_steps=n_steps)


def traced_peak(fn):
    """fn() and the peak of the memory it allocated (tracemalloc), in MB."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


def memory_rows():
    """Peaks of one run and of its energy ledger at the three perfbench
    shapes (energy_audit, sec6, long_memory), from random initial data,
    beside the size of one history array.  ``beyond_histories_mb`` is what
    the call holds beyond the two histories of the run: the run's peak less
    both, and the ledger's whole peak (it reads a stored history)."""
    ker = KernelParams(alpha=2.0 / 3.0, tau=1.0, gamma=0.5)
    mem = []
    for nx, n_steps, t_final in ((25, 2048, 8.0), (16, 2560, 40.0),
                                 (8, 8192, 40.0)):
        sys_ = assemble(build_rect_mesh(nx, nx),
                        ElasticParams(1.0, 1.0, 3000.0))
        table = build_weights(TimeGrid.uniform(t_final, n_steps), ker)
        nf = sys_.free_dofs.size
        u0 = sys_.expand(np.random.default_rng(9).standard_normal(nf))
        hist, run_mb = traced_peak(
            lambda: stepper.run(sys_, table, u0, np.zeros_like(u0)))
        _, ledger_mb = traced_peak(lambda: energy_ledger(hist))
        tag = f"[N={n_steps},nf={nf}]"
        history_mb = hist.u1f.nbytes / 1e6
        mem += [{"name": f"memory{tag},{what}", "N": n_steps, "nf": nf,
                 "peak_mb": peak, "history_mb": history_mb,
                 "beyond_histories_mb": beyond}
                for what, peak, beyond in (
                    ("run", run_mb, run_mb - 2 * history_mb),
                    ("ledger", ledger_mb, ledger_mb))]
        del hist
    return mem


# The import's peak resident size is VmHWM, the peak of the interpreter's
# own address space.  ru_maxrss would not do: Linux carries the launching
# process's peak across exec, so it would report this script's size.
IMPORT_CLI = """import fracvisco.cli
with open("/proc/self/status", encoding="ascii") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))"""


def fresh_runs(args, k, out_dir):
    """Wall times and stdouts of k fresh interpreters ``python args`` (one
    BLAS thread, outputs into out_dir)."""
    env = dict(os.environ, FRACVISCO_OUTPUT_DIR=str(out_dir),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    times, outs = [], []
    for _ in range(k):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, *args], env=env, check=True,
                             capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        outs.append(out.stdout)
    return times, outs


def fresh_process_rows(k):
    """The start-up and one-shot CLI calls a user waits for, each in k fresh
    interpreters: the import of ``fracvisco.cli`` with the median of its
    peak resident sizes (VmHWM in KiB / 1024, the unit of perfbench's
    ``peak_rss_mb``), then ``simulate`` and ``energy-check`` on
    ``configs/paper_sec6.cfg``, import included."""
    cfg = str(ROOT / "configs" / "paper_sec6.cfg")
    with tempfile.TemporaryDirectory() as tmp:
        times, outs = fresh_runs(["-c", IMPORT_CLI], k, tmp)
        import_cli = row("import fracvisco.cli", times)
        rss_mb = statistics.median(int(o) for o in outs) / 1024
        cli_rows = [row(f"{cmd} configs/paper_sec6.cfg",
                        fresh_runs(["-m", "fracvisco.cli", cmd, cfg], k,
                                   tmp)[0])
                    for cmd in ("simulate", "energy-check")]
    return import_cli, rss_mb, cli_rows


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    """HEAD's commit id, with "-dirty" when the program or this script
    differs from it, or "unknown" outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "benchmarks")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, single repeat (CI smoke)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the record as JSON to PATH")
    args = parser.parse_args()
    repeat = 1 if args.quick else 3
    n_ml = 20_000 if args.quick else 400_000
    n_grid = 120 if args.quick else 800
    k_ref = 2.0 ** -9 if args.quick else 2.0 ** -12

    rows = []
    xs = np.geomspace(1e-4, 60.0, n_ml)
    t = timed(lambda: eval_ml_neg(2.0 / 3.0, 2.0, xs), repeat)
    rows.append(row(f"ml_eval[{n_ml}]", t))
    n_ser = 20_000 if args.quick else 1_000_000
    xs = np.random.default_rng(11).uniform(0.0, S_SERIES ** (2.0 / 3.0), n_ser)
    t = timed(lambda: eval_ml_neg(2.0 / 3.0, 2.0, xs), repeat)
    rows.append(row(f"ml_series[{n_ser}]", t))
    xs = np.random.default_rng(12).uniform(S_ASYM, 10.0 * S_ASYM,
                                           n_ser) ** (2.0 / 3.0)
    t = timed(lambda: eval_ml_neg(2.0 / 3.0, 2.0, xs), repeat)
    rows.append(row(f"ml_asym[{n_ser}]", t))
    n_spec = 20_000 if args.quick else 200_000
    xs = np.random.default_rng(13).uniform(S_SERIES, S_ASYM,
                                           n_spec) ** (2.0 / 3.0)
    t = timed(lambda: eval_ml_neg(2.0 / 3.0, 2.0, xs), repeat)
    rows.append(row(f"ml_spectral[{n_spec}]", t))

    ker = KernelParams(alpha=2.0 / 3.0, tau=1.0, gamma=0.5)
    t = timed(lambda: build_weights(TimeGrid.uniform(40.0, 8192), ker),
              repeat)
    rows.append(row("ml_weights[N=8192,T=40]", t, n_steps=8192))

    rng = np.random.default_rng(7)
    steps = rng.uniform(0.5, 2.0, n_grid)
    steps *= 4.0 / steps.sum()
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    t = timed(lambda: build_weights(grid, ker), repeat)
    rows.append(row(f"build_weights[N={n_grid}]", t, n_steps=n_grid))

    model = ScalarModel(rho=1.0, kappa=1.0, kernel=ker, u0=1.0)
    t = timed(lambda: scalar_reference(model, 4.0, k_ref=k_ref), repeat)
    rows.append(row(f"scalar_reference[k={k_ref:g}]", t))

    n_hist = 1024 if args.quick else 8192
    table = build_weights(TimeGrid.uniform(40.0, n_hist), ker)
    u = rng.standard_normal((n_hist + 1, 144))
    tag = f"[N={n_hist},nf=144"
    t = timed(lambda: dense_history(table.lags, u), repeat)
    rows.append(row(f"history{tag},dense rows]", t, n_steps=n_hist, nf=144))
    for block, label in ((64, "fft above 64"),
                         (stepper.DIRECT_BLOCK,
                          f"fft above {stepper.DIRECT_BLOCK}"),
                         (n_hist, "no fft")):
        t = timed(lambda: online_history(table, u, block), repeat)
        rows.append(row(f"history{tag},online {label}]", t, n_steps=n_hist,
                        nf=144))

    for nx in ((8, 16) if args.quick else (6, 7, 8, 10, 16, 25)):
        rows.extend(solve_rows(nx, repeat))
    for nx, n_steps in (((8, 256),) if args.quick
                        else ((8, 8192), (16, 2560), (25, 2048))):
        rows.append(run_row(nx, n_steps, ker, repeat))

    for n_steps in ((128, 512) if args.quick else (512, 2048)):
        rows.append(ledger_row(8 if args.quick else 25, n_steps, ker, repeat))

    rows.append(csv_row(8192, repeat))

    width = max(len(r["name"]) for r in rows)
    print(f"{'kernel':<{width}}  {'best time':>14}  {'median':>14}")
    for r in rows:
        print(f"{r['name']:<{width}}  {r['best_s'] * 1e3:11.4f} ms"
              f"  {r['median_s'] * 1e3:11.4f} ms")

    mem = memory_rows()
    width = max(len(m["name"]) for m in mem)
    print(f"\n{'memory':<{width}}  tracemalloc peak (one history array), "
          f"beyond the two histories")
    for m in mem:
        print(f"{m['name']:<{width}}  {m['peak_mb']:8.1f} MB "
              f"({m['history_mb']:.1f} MB), {m['beyond_histories_mb']:.2f} MB")

    import_cli, import_rss_mb, cli_rows = fresh_process_rows(
        1 if args.quick else 5)
    print(f"\nfresh-process import of fracvisco.cli: median "
          f"{import_cli['median_s'] * 1e3:.1f} ms of {import_cli['k']}, "
          f"peak RSS {import_rss_mb:.1f} MB")
    for r in cli_rows:
        print(f"fresh-process {r['name']}: median "
              f"{r['median_s'] * 1e3:.1f} ms of {r['k']}")

    if args.json is not None:
        record = {
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "cpu_model": cpu_model(),
                        "blas_threads": BLAS_THREADS,
                        "numba": bool(_accel.USE_NUMBA)},
            "software": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__,
                         "git_revision": git_revision()},
            "quick": args.quick,
            "rows": rows,
            "memory": mem,
            "import_cli": import_cli,
            "import_cli_peak_rss_mb": import_rss_mb,
            "cli": cli_rows,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
