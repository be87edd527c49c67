"""Command-line interface: simulate | energy-check | converge-time | weights-dump | ml-eval.

Every subcommand writes deterministic CSV artifacts (documented headers) into
the configured output directory, overridable with FRACVISCO_OUTPUT_DIR.
Errors exit nonzero after printing one machine-readable line
``error: <subcommand>: <message>`` on stderr; a floating-point overflow or
invalid operation is such an error.  ``energy-check`` writes its ledger and
then fails when the balance residual is not within ``RESIDUAL_MAX``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config
from .diagnostics import energy_ledger
from .fem import (ElasticParams, assemble, build_rect_mesh,
                  quasi_static_solve, side_traction, traction_load)
from .mlf import KernelParams, ml_e
from .scalar import ScalarModel, convergence_study
from .stepper import run
from .weights import TimeGrid, build_weights


def _load_config(path):
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _out_dir(cfg):
    path = Path(os.environ.get("FRACVISCO_OUTPUT_DIR", cfg.out_dir))
    path.mkdir(parents=True, exist_ok=True)
    return path


# Largest ledger residual_rel that energy-check accepts: the bound of
# acceptance criterion 1.
RESIDUAL_MAX = 1e-8

# Rows per write of ``_write_csv``: 0.4 to 0.8 MB of text per block.
CSV_BLOCK = 8192
_PLAIN = frozenset((float, int))


def _cell(x):
    if isinstance(x, str):
        return x
    return repr(x.item() if isinstance(x, np.generic) else x)


def _line(row):
    # a row of Python floats and ints is the repr of each cell, read by C
    # code; any other row goes cell by cell through _cell, to the same text
    if _PLAIN.issuperset(map(type, row)):
        return ",".join(map(repr, row))
    return ",".join(map(_cell, row))


def _write_csv(path, header, rows):
    """Write ``header`` and one line per row (a sequence of cells): a string
    cell as it is, a number as the repr of a Python int or float, never of a
    numpy scalar.  The lines go out in blocks of ``CSV_BLOCK`` rows, so
    ``rows`` may be a generator much larger than memory."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        while block := list(islice(rows, CSV_BLOCK)):
            f.write("\n".join(map(_line, block)) + "\n")


def _kernel(cfg):
    return KernelParams(alpha=cfg.alpha, tau=cfg.tau, gamma=cfg.gamma)


def _table(cfg):
    """The weight table of the configured kernel on the uniform grid."""
    return build_weights(TimeGrid.uniform(cfg.t_final, cfg.steps),
                         _kernel(cfg))


def _setup(cfg):
    mesh = build_rect_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    ep = ElasticParams(mu=cfg.mu, lam=cfg.lam, rho=cfg.rho)
    traction = side_traction({name: getattr(cfg, f"g_{name}")
                              for name in ("right", "bottom", "top")})
    sys_ = assemble(mesh, ep, volume=cfg.f, traction=traction)
    return mesh, sys_, _table(cfg)


def cmd_simulate(args):
    cfg = _load_config(args.config)
    mesh, sys_, table = _setup(cfg)
    zero = np.zeros(sys_.n_dofs)
    hist = run(sys_, table, zero, zero)
    out = _out_dir(cfg)
    paths = []
    for i, point in enumerate(cfg.probes):
        vertex = mesh.nearest_vertex(point)
        trace = hist.probe_trace(vertex)
        name = "probe_trace.csv" if i == 0 else f"probe_trace_{i + 1}.csv"
        path = out / name
        _write_csv(path, "t,u1_x,u1_y,u2_x,u2_y",
                   np.column_stack([hist.times, trace]).tolist())
        paths.append(path)
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0


def cmd_energy_check(args):
    cfg = _load_config(args.config)
    _, sys_, table = _setup(cfg)
    ndof = sys_.n_dofs
    if not sys_.load.any():
        # homogeneous: start from the relaxed static shape of the default
        # unit traction so the ledger exercises a nontrivial balance
        unit = traction_load(sys_.mesh, side_traction({"right": (0.0, -1.0)}))
        loaded = dataclasses.replace(sys_, load=sys_.restrict(unit))
        u0 = quasi_static_solve(loaded,
                                scale=max(1.0 - table.params.gamma, 1e-8))
    else:
        u0 = np.zeros(ndof)
    hist = run(sys_, table, u0, np.zeros(ndof))
    led = energy_ledger(hist)
    out = _out_dir(cfg)
    path = out / "energy_ledger.csv"
    _write_csv(path, "term,value", led.rows())
    print(f"wrote {path} (residual_rel = {led.residual_rel:.3e})")
    if not led.residual_rel <= RESIDUAL_MAX:
        raise RuntimeError(f"energy balance does not close: residual_rel = "
                           f"{led.residual_rel:.3e} > {RESIDUAL_MAX:.0e}")
    return 0


def cmd_converge_time(args):
    cfg = _load_config(args.config)
    k_list = [float(s) for s in args.k_list.split(",")]
    model = ScalarModel(rho=args.rho, kappa=args.kappa, kernel=_kernel(cfg),
                        u0=args.u0, v0=args.v0)
    study = convergence_study(model, k_list, args.t_final)
    out = _out_dir(cfg)
    path = out / "convergence.csv"
    _write_csv(path, "k,error,order",
               ((r.k, r.error, r.order) for r in study.rows))
    print(f"wrote {path}")
    for row in study.rows:
        print(f"  k={row.k:<12g} error={row.error:.6e} order={row.order:.3f}")
    return 0


def cmd_weights_dump(args):
    cfg = _load_config(args.config)
    table = _table(cfg)
    eta = table.eta_bar.tolist()
    rows = ((n, j, w, eta[n]) for n in range(1, table.n_steps + 1)
            for j, w in enumerate(table.omega[n - 1, :n].tolist(), start=1))
    out = _out_dir(cfg)
    path = out / "weights.csv"
    _write_csv(path, "n,j,omega_nj,eta_n", rows)
    print(f"wrote {path}")
    return 0


def cmd_ml_eval(args):
    value = ml_e(args.alpha, args.b, args.x)
    print(repr(value))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracvisco",
        description="dG(0) solver for dynamic fractional-order viscoelasticity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation, "
                       "write probe_trace.csv per probe")
    p.add_argument("config")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("energy-check", help="run and write energy_ledger.csv")
    p.add_argument("config")
    p.set_defaults(fn=cmd_energy_check)

    p = sub.add_parser("converge-time",
                       help="scalar-model temporal convergence table")
    p.add_argument("config")
    p.add_argument("--k-list", default="0.125,0.0625,0.03125,0.015625",
                   help="comma-separated decreasing steps")
    p.add_argument("--t-final", type=float, default=4.0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.set_defaults(fn=cmd_converge_time)

    p = sub.add_parser("weights-dump", help="write the weight table as CSV")
    p.add_argument("config")
    p.set_defaults(fn=cmd_weights_dump)

    p = sub.add_parser("ml-eval", help="print E_{alpha,b}(-x)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(fn=cmd_ml_eval)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except ConfigError as err:
        for e in err.errors:
            print(f"error: {args.command}: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, MemoryError,
            ArithmeticError) as err:
        print(f"error: {args.command}: {str(err) or type(err).__name__}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
