"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` as ``python3 perfbench/worker.py REQUEST RESULT`` from
the repository root, with ``src`` on PYTHONPATH.  REQUEST is a JSON file
naming the workload, seed, size, run length and trace mode; the run writes
its report lines and the result object to the JSON file RESULT.

Untraced calls run ``fracvisco.cli.main`` with no wrapper installed.  The
set-up time is taken from separate calls that stop at the first time step:
the entry of ``cli.run`` (``cli.convergence_study`` for converge-time) is
replaced by a function that records the time and raises.  Traced calls
install the ``tracer`` wrappers around one call and remove them after it.
"""

from __future__ import annotations

import inspect
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads as wl
from tracer import CHECK, Tracer

from fracvisco import _accel, cli, fem, scalar, solvers, stepper, weights

# output file and its documented header, per subcommand
OUTPUT_FILE = {"simulate": ("probe_trace.csv", "t,u1_x,u1_y,u2_x,u2_y"),
               "energy-check": ("energy_ledger.csv", "term,value"),
               "converge-time": ("convergence.csv", "k,error,order")}
REFERENCE_RTOL = 1e-7       # roundoff-level reordering stays far below this
# After each untraced full call, set-up-only calls run for this share of
# its time (at least one, at most SETUP_BATCH), so that set-up is sampled
# across the whole run and not only at its start.
SETUP_SHARE = 0.10
SETUP_BATCH = 20


class FirstStep(Exception):
    """Raised at the first time step of a set-up-only call."""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def relaxed_static(inputs):
    """Probe displacement of the (1 - gamma) relaxed static solve, and nf."""
    s, p = inputs.size, inputs.physics
    mesh = fem.build_rect_mesh(s.nx, s.nx)
    ep = fem.ElasticParams(mu=p["mu"], lam=p["lam"], rho=p["rho"])
    sys_ = fem.assemble(mesh, ep,
                        traction=fem.side_traction({"right": inputs.traction}))
    nf = int(sys_.free_dofs.size)
    if inputs.command != "simulate":
        return None, nf
    u = fem.quasi_static_solve(sys_, scale=1.0 - p["gamma"])
    v = mesh.nearest_vertex(inputs.probe)
    return u[2 * v:2 * v + 2], nf


def read_table(path, header):
    """Cells of a CSV file, one list of strings per data row.

    Raises ValueError unless the file starts with ``header`` and has at
    least one row, each with as many cells as the header.
    """
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    if not rows or any(len(row) != width for row in rows):
        raise ValueError(f"rows must have {width} cells")
    return rows


def numbers(rows):
    """The table as floats; raises ValueError naming a non-numeric cell."""
    return np.array([[float(cell) for cell in row] for row in rows])


def check_output(inputs, path, static):
    """(ok, detail) for one call's output file, by the acceptance tolerances.

    Every cell of a numeric column must parse as a number.
    """
    try:
        rows = read_table(path, OUTPUT_FILE[inputs.command][1])
        if inputs.command == "simulate":
            if len(rows) != inputs.size.steps + 1:
                raise ValueError(f"{len(rows)} rows, expected N + 1")
            data = numbers(rows)
            t, u = data[:, 0], data[:, 1:3]
            sel = t >= 0.75 * t[-1]
            tail = (np.trapezoid(u[sel], t[sel], axis=0)
                    / (t[sel][-1] - t[sel][0]))
            gap = float(np.linalg.norm(tail - static)
                        / np.linalg.norm(static))
            return bool(np.isfinite(data).all() and gap <= wl.TAIL_GAP_MAX), \
                f"tail gap {gap:.4f} (max {wl.TAIL_GAP_MAX})"
        if inputs.command == "energy-check":
            values = numbers([row[1:] for row in rows]).ravel()
            if rows[-1][0] != "residual_rel":
                raise ValueError("last row is not residual_rel")
            res = float(rows[-1][1])
            return bool(np.isfinite(values).all()
                        and res <= wl.LEDGER_RESIDUAL_MAX), \
                f"residual_rel {res:.3e} (max {wl.LEDGER_RESIDUAL_MAX:.0e})"
        if len(rows) != len(inputs.size.k_list.split(",")):
            raise ValueError(f"{len(rows)} rows, expected one per k")
        lo, hi = wl.ORDER_RANGE
        orders = numbers([row[2:] for row in rows[1:]]).ravel()
        detail = "orders " + ", ".join(f"{o:.3f}" for o in orders)
        try:
            numbers(rows)
        except ValueError as err:
            return False, f"{detail}; {path.name}: {err}"
        return bool(np.all(orders >= lo) and np.all(orders <= hi)), detail
    except ValueError as err:
        return False, f"{path.name}: {err}"


def digest(inputs, path):
    """A compact record of one output, compared against reference.json."""
    rows = read_table(path, OUTPUT_FILE[inputs.command][1])
    if inputs.command == "simulate":
        stride = max(inputs.size.steps // 32, 1)
        data = numbers(rows[::stride])
        return {c: data[:, i].tolist() for i, c in
                enumerate(("t", "u1_x", "u1_y", "u2_x", "u2_y"))}
    if inputs.command == "energy-check":
        terms = dict(rows)
        terms.pop("residual_rel")
        return {"terms": [float(terms[k]) for k in sorted(terms)]}
    return {"order": [float(row[2]) for row in rows[1:]]}


def compare(dig, ref):
    """Largest deviation of any digest group, relative to its largest value."""
    worst = 0.0
    for key, want in ref.items():
        want = np.asarray(want)
        got = np.asarray(dig.get(key, []))
        if got.shape != want.shape:
            return float("inf")
        scale = max(float(np.max(np.abs(want))), 1e-300)
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return worst


# ---------------------------------------------------------------------------
# timed calls
# ---------------------------------------------------------------------------

def first_step_name(inputs):
    return "convergence_study" if inputs.command == "converge-time" else "run"


def setup_call(argv, attr):
    """Seconds from cli.main's entry to the first time step."""
    def stop(*args, **kwargs):
        raise FirstStep(time.perf_counter())

    orig = getattr(cli, attr)
    setattr(cli, attr, stop)
    try:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except FirstStep as reached:
            return reached.args[0] - t0
        raise RuntimeError(f"set-up call returned {rc} before the first step")
    finally:
        setattr(cli, attr, orig)


def full_call(argv, output, tracer=None):
    """(exit code, seconds) of one cli.main call, traced when a tracer is given."""
    output.unlink(missing_ok=True)
    if tracer is None:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - t0
    tracer.reset()
    install(tracer)
    try:
        t0 = time.perf_counter()
        rc = tracer.call("cli", cli.main, argv)
        return rc, time.perf_counter() - t0
    finally:
        tracer.unwrap_all()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _note_table(tr, args, out):
    tr.note("table_bytes", out.omega.nbytes)


def _note_run(tr, args, out):
    tr.note("run_shape", (out.U1.shape[0] - 1, int(args[0].free_dofs.size)))


def _note_residual(tr, args, x):
    solver, b = args[0], np.asarray(args[1])
    nb = np.linalg.norm(b)
    tr.note("residual", float(np.linalg.norm(solver.a @ x - b) / nb)
            if nb > 0.0 else 0.0)


def _note_points(tr, args, out):
    tr.note("points", int(np.size(args[1])))


def _note_ledger(tr, args, out):
    tr.note("ledger", (float(out.residual_rel), args[0].U1.shape[0]))


def install(tr):
    """Wrap each layer's public names where their callers look them up."""
    tr.wrap(cli, "parse_config", "config.parse")
    tr.wrap(cli, "build_rect_mesh", "fem.mesh")
    tr.wrap(cli, "assemble", "fem.assemble")
    tr.wrap(cli, "build_weights", "weights.build", _note_table)
    tr.wrap(scalar, "build_weights", "weights.build", _note_table)
    tr.wrap(cli, "run", "stepper.run", _note_run)
    tr.wrap(stepper, "advance", "stepper.advance")
    tr.wrap(stepper, "time_average_load", "stepper.load")
    tr.wrap(stepper, "make_spd_solver", "solvers.factor")
    tr.wrap(fem, "make_spd_solver", "solvers.factor")
    tr.wrap(solvers.SpdSolver, "solve", "solvers.solve", _note_residual)
    for module in (weights, scalar):
        for name in ("beta_primitive", "beta_double_primitive"):
            tr.wrap(module, name, "mlf.eval", _note_points)
    tr.wrap(cli, "energy_ledger", "diagnostics.ledger", _note_ledger)
    tr.wrap(scalar, "scalar_reference", "scalar.reference")
    tr.wrap(scalar, "scalar_dg0", "scalar.dg0")
    tr.wrap(scalar, "cn_sweep", "kernels.cn_sweep")


def count_errors(tr, expected):
    totals = tr.totals()
    errors = []
    for name, (lo, hi) in expected.items():
        n = totals.get(name, (0.0, 0))[1]
        if n < lo or (hi is not None and n > hi):
            errors.append(f"{name} fired {n} times, expected "
                          f"{lo}..{'' if hi is None else hi}")
    return errors


def layer_metrics(tr, output_bytes):
    """Per-layer metrics of one traced call (times are self times)."""
    totals = tr.totals()

    def own(name):
        return totals.get(name, (0.0, 0))[0]

    def count(name):
        return totals.get(name, (0.0, 0))[1]

    notes = tr.notes
    n, nf = max(notes["run_shape"], default=(0, 0))
    pairs = n * (n - 1) // 2        # history terms summed over a run
    ledger = notes["ledger"]
    calls = count("mlf.eval")
    return {
        "config.parse_s": own("config.parse"),
        "fem.mesh_s": own("fem.mesh"),
        "fem.assemble_s": own("fem.assemble"),
        "weights.build_s": own("weights.build"),
        "weights.table_bytes": max(notes["table_bytes"], default=0),
        "mlf.eval_s": own("mlf.eval"),
        "mlf.eval_calls": calls,
        "mlf.points_per_call": sum(notes["points"]) / calls if calls else 0.0,
        "solvers.factor_s": own("solvers.factor"),
        "solvers.factor_count": count("solvers.factor"),
        "solvers.solve_s": own("solvers.solve"),
        "solvers.solve_count": count("solvers.solve"),
        "solvers.max_residual": max(notes["residual"], default=0.0),
        "stepper.history_s": own("stepper.run"),
        "stepper.history_flops": 2 * nf * pairs,
        "stepper.history_bytes": 8 * (nf + 1) * pairs,
        "stepper.advance_s": own("stepper.advance"),
        "stepper.load_s": own("stepper.load"),
        "stepper.load_calls": count("stepper.load"),
        "diagnostics.ledger_s": own("diagnostics.ledger"),
        "diagnostics.gram_bytes": 8 * max((r for _, r in ledger),
                                          default=0) ** 2,
        "diagnostics.residual_rel": max((r for r, _ in ledger), default=0.0),
        "scalar.reference_s": own("scalar.reference"),
        "scalar.dg0_s": own("scalar.dg0"),
        "kernels.cn_sweep_s": own("kernels.cn_sweep"),
        "cli.output_s": own("cli"),
        "cli.output_bytes": output_bytes,
    }


def run_accounting(tr):
    """(run span seconds, layer self time under it, tracer checks under it)."""
    for i, (name, start, end, _) in enumerate(tr.spans):
        if name == "stepper.run":
            sub = tr.subtree_self_time(i)
            check = sub.pop(CHECK, 0.0)
            return end - start, sum(sub.values()), check
    return None


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def summary(name, values, unit):
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def metadata(req, inputs, argv, nf):
    dense_limit = inspect.signature(
        solvers.make_spd_solver).parameters["dense_limit"].default
    path = None
    if nf:
        path = "dense_cholesky" if nf <= dense_limit else "sparse_lu"
    return {
        "git_revision": req["git_revision"],
        "nproc": req["nproc"],
        "blas_threads": req["blas_threads"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_active": bool(_accel.USE_NUMBA),
        "workload": inputs.workload,
        "size": req["size"],
        "seed": req["seed"],
        "argv": argv,
        "N": inputs.size.steps if nf else None,
        "nf": nf or None,
        "solver_path": path,
        "traction": inputs.traction,
        "probe": inputs.probe,
        "rho": inputs.physics["rho"],
    }


def main(request_path, result_path):
    req = json.loads(Path(request_path).read_text())
    inputs = wl.make_inputs(req["workload"], req["seed"], req["size"])
    work = Path(req["work_dir"])
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = work / "input.cfg"
    config.write_text(inputs.config_text(out), encoding="utf-8")
    argv = inputs.argv(config)
    fingerprint = inputs.config_text("out") + " ".join(argv[2:])
    output = out / OUTPUT_FILE[inputs.command][0]
    static, nf = (relaxed_static(inputs) if inputs.command != "converge-time"
                  else (None, 0))
    lines = ["meta: " + json.dumps(metadata(req, inputs, argv, nf))]

    seconds, trace = req["seconds"], req["trace"]
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    setups = []
    attr = first_step_name(inputs)

    # Untraced and traced calls alternate in a traced run, so that
    # tracing.overhead_s compares calls made under the same conditions.
    plain, traced, layers, accounting = [], [], [], []
    problems = []
    failed = 0
    expected = wl.expected_counts(inputs)
    while True:
        use_tracer = tracer if trace and len(traced) < len(plain) else None
        rc, dt = full_call(argv, output, use_tracer)
        if rc == 0 and output.is_file():
            ok, detail = check_output(inputs, output, static)
        else:
            ok, detail = False, f"exit code {rc}"
        if not ok:
            failed += 1
            problems.append(detail)
        if use_tracer is None:
            plain.append(dt)
        else:
            traced.append(dt)
            problems += count_errors(tracer, expected)
            layers.append(layer_metrics(tracer, output.stat().st_size
                                        if output.is_file() else 0))
            if (acc := run_accounting(tracer)) is not None:
                accounting.append(acc)
        if not trace:
            until = time.perf_counter() + SETUP_SHARE * dt
            for _ in range(SETUP_BATCH):
                setups.append(setup_call(argv, attr))
                if time.perf_counter() >= until:
                    break
        runs = plain + traced
        if (not trace or traced) and (time.perf_counter() - start
                                      + statistics.median(runs) > seconds):
            break
    attempted = len(runs)

    try:
        dig = digest(inputs, output)
    except (OSError, ValueError):       # already counted as a failed call
        dig = {}
    ref = req.get("reference")
    if ref is not None and ref["inputs"] != fingerprint:
        problems.append("reference.json was recorded for other inputs")
    elif ref is not None:
        dev = compare(dig, ref["digest"])
        lines.append(f"reference: largest deviation {dev:.2e} "
                     f"(tolerance {REFERENCE_RTOL:.0e})")
        if not dev <= REFERENCE_RTOL:
            problems.append(f"output deviates from reference by {dev:.2e}")

    lines.append(f"check (last call): {detail}")
    lines.append(f"failed_ops: {failed}/{attempted} "
                 f"(share {failed / attempted:.3g})")
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["tracing.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(plain))
        lines.append("layers (median): " + json.dumps(metrics))
        lines.append(summary("untraced total_s", plain, "s"))
        lines.append(summary("traced total_s", traced, "s"))
        if accounting:
            run_s, layer_s, check_s = (statistics.median(col)
                                       for col in zip(*accounting))
            lines.append(f"stepper.run (median) {run_s:.4f} s = layer self "
                         f"times {layer_s:.4f} s + tracer checks "
                         f"{check_s:.4f} s")
        (work / "spans.json").write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent"), span))
             for span in tracer.spans]))
        units = {m["name"]: m["unit"] for m in req["per_layer"]}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"total_s": statistics.median(plain),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss_mb}
        lines.append(summary("total_s", plain, "s"))
        lines.append(summary("setup_s", setups, "s"))
        lines.append(f"peak_rss_mb: {rss_mb:.6g} MB (n=1, this process)")
        units = {m["name"]: m["unit"] for m in req["end_to_end"]}
    lines += [f"problem: {p}" for p in dict.fromkeys(problems)]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    Path(result_path).write_text(json.dumps(
        {"lines": lines, "result": result, "digest": dig,
         "inputs": fingerprint,
         "samples": {"total_s": len(plain), "setup_s": len(setups)}}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
