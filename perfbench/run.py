#!/usr/bin/env python3
"""Benchmark of the fracvisco CLI: four generated workloads, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload sec6 --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --report            # every workload, one table
  python3 perfbench/run.py --record-reference  # rewrite reference.json

One run starts one worker process (``worker.py``) for the workload, with
one BLAS thread, and waits for it.  The worker calls ``fracvisco.cli.main``
for about ``--seconds`` seconds and checks every output.  The last line on
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.
Report lines before it give the run's metadata and sample counts.
``--smoke`` runs reduced sizes.  Inputs, outputs and traces go to
``.perfbench_work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DEFAULT_SEED = 0            # the seed whose outputs reference.json records
# One BLAS thread: the solves are single-vector triangular and sparse-LU
# solves that gain little from more, and on a shared host a second thread
# makes the timings depend on a second core's load.
BLAS_THREADS = 1
TIME_LIMIT = 170.0          # seconds a worker may take before it is stopped
REFERENCE = HERE / "reference.json"


def git_revision(root):
    """HEAD's commit id, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(root, workload, seed, seconds, trace, size, reference):
    """Run one workload in its own process; returns its result document."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = (root / ".perfbench_work" / f"{size}-{workload}").resolve()
    work.mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    request = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "work_dir": str(work),
        "git_revision": git_revision(root), "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "reference": reference,
        "end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"],
    }
    req_path, res_path = work / "request.json", work / "result.json"
    req_path.write_text(json.dumps(request))
    res_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               FRACVISCO_OUTPUT_DIR=str(work / "out"),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(req_path), str(res_path)],
        cwd=root, env=env, stdout=subprocess.DEVNULL, timeout=TIME_LIMIT)
    if proc.returncode != 0 or not res_path.is_file():
        raise RuntimeError(f"worker for {workload} exited with code "
                           f"{proc.returncode}")
    return json.loads(res_path.read_text())


def reference_for(size, workload, seed):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(size, {}).get(workload)


def record_reference(root):
    """Record the default seed's outputs of every workload at both sizes."""
    recorded = {}
    for size in wl.SIZES:
        for name in wl.NAMES:
            doc = run_worker(root, name, DEFAULT_SEED, 0, 0, size, None)
            recorded.setdefault(size, {})[name] = {
                "inputs": doc["inputs"], "digest": doc["digest"]}
            print(f"recorded {size} {name}")
            for line in doc["lines"]:
                if line.startswith(("check", "problem")):
                    print("  " + line)
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")


def report(root, seconds, size):
    """Run every workload untraced and print one table of end-to-end metrics."""
    rows = {}
    print(f"{'workload':<16} {'total_s':>22} {'setup_s':>22} "
          f"{'peak_rss_mb':>12} {'failed_ops':>11}")
    for name in wl.NAMES:
        doc = run_worker(root, name, DEFAULT_SEED, seconds, 0, size,
                         reference_for(size, name, DEFAULT_SEED))
        res, counts = doc["result"], doc["samples"]
        m = res["metrics"]
        print(f"{name:<16} "
              f"{m['total_s']['value']:>10.4f} s (n={counts['total_s']:>3}) "
              f"{m['setup_s']['value']:>10.4f} s (n={counts['setup_s']:>3}) "
              f"{m['peak_rss_mb']['value']:>9.1f} MB "
              f"{res['failed']:>5}/{res['attempted']:<5}")
        rows[name] = res
    print(json.dumps(rows))
    return all(r["correct"] for r in rows.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for a quick check")
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced, print one table")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default seed's outputs")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "fracvisco" / "cli.py").is_file():
        print("error: run from the repository root: src/fracvisco not found",
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    try:
        if args.record_reference:
            record_reference(root)
            return 0
        if args.report:
            return 0 if report(root, args.seconds, size) else 1
        if args.workload is None:
            parser.error("--workload is required")
        t0 = time.perf_counter()
        doc = run_worker(root, args.workload, args.seed, args.seconds,
                         args.trace, size,
                         reference_for(size, args.workload, args.seed))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in doc["lines"]:
        print(line)
    print(f"wall: {time.perf_counter() - t0:.2f} s")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
