"""The four benchmark workloads: inputs drawn from a seed, check tolerances
and the call counts a traced run must show.

The seed draws only values that leave the work unchanged: the load direction
and magnitude, the probe point and the initial-data scale (for energy_audit,
which has no loads and whose initial data energy-check fixes itself, the
density).  Mesh, step count and kernel are fixed per workload, so every seed
costs the same.  This module imports nothing outside the standard library,
so the parent process can use it without loading numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

NAMES = ("sec6", "long_memory", "energy_audit", "converge_scalar")

ALPHA = 2.0 / 3.0
SEC6_PHYSICS = dict(alpha=ALPHA, tau=1.0, gamma=0.5,
                    mu=1.0e5, lam=1.0e5, rho=3000.0)
HOMOGENEOUS_PHYSICS = dict(alpha=ALPHA, tau=1.0, gamma=0.5,
                           mu=1.0, lam=1.0, rho=3000.0)
DEFAULT_K_LIST = "0.125,0.0625,0.03125,0.015625"

# Acceptance-suite tolerances.
TAIL_GAP_MAX = 0.05
LEDGER_RESIDUAL_MAX = 1e-8
ORDER_RANGE = (0.85, 1.15)


@dataclass(frozen=True)
class Size:
    nx: int = 0
    steps: int = 0
    t_final: float = 0.0
    k_list: str = DEFAULT_K_LIST


SIZES = {
    "full": {
        "sec6": Size(nx=16, steps=2560, t_final=40.0),
        "long_memory": Size(nx=8, steps=8192, t_final=40.0),
        "energy_audit": Size(nx=25, steps=2048, t_final=8.0),
        "converge_scalar": Size(t_final=4.0),
    },
    # Reduced sizes for the smoke test; energy_audit keeps its 25x25 mesh so
    # the sparse-LU path is still taken.
    "smoke": {
        "sec6": Size(nx=4, steps=320, t_final=40.0),
        "long_memory": Size(nx=4, steps=640, t_final=40.0),
        "energy_audit": Size(nx=25, steps=64, t_final=0.25),
        "converge_scalar": Size(t_final=4.0),
    },
}


@dataclass
class Inputs:
    """Everything one workload run hands to ``fracvisco.cli.main``."""

    workload: str
    command: str
    size: Size
    physics: dict
    traction: tuple = (0.0, 0.0)     # constant traction on the right edge
    probe: tuple = (1.0, 1.0)
    argv_extra: list = field(default_factory=list)

    def config_text(self, out_dir):
        p, s = self.physics, self.size
        # converge-time reads only the kernel and the output dir; the mesh
        # and time keys of its config just need valid values
        n = max(s.nx, 1)
        steps = s.steps or 1
        return "\n".join([
            "[kernel]",
            f"alpha = {p['alpha']!r}",
            f"tau = {p['tau']!r}",
            f"gamma = {p['gamma']!r}",
            "[elastic]",
            f"mu = {p['mu']!r}",
            f"lambda = {p['lam']!r}",
            f"rho = {p['rho']!r}",
            "[mesh]",
            f"nx = {n}",
            f"ny = {n}",
            "lx = 1.0",
            "ly = 1.0",
            "[time]",
            f"t_final = {s.t_final!r}",
            f"steps = {steps}",
            "[loads]",
            "f = (0.0, 0.0)",
            "g_left = (0.0, 0.0)",
            f"g_right = ({self.traction[0]!r}, {self.traction[1]!r})",
            "g_bottom = (0.0, 0.0)",
            "g_top = (0.0, 0.0)",
            "[probes]",
            f"probe = ({self.probe[0]!r}, {self.probe[1]!r})",
            "[solver]",
            "method = direct",
            "cg_tol = 1e-10",
            "weights_mode = closed_form",
            "mass_lumping = false",
            "[output]",
            f"dir = {out_dir}",
        ]) + "\n"

    def argv(self, config_path):
        return [self.command, str(config_path)] + self.argv_extra


def make_inputs(workload, seed, size="full"):
    """Draw the inputs of ``workload`` from ``seed``; same seed, same inputs."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    s = SIZES[size][workload]
    if workload == "converge_scalar":
        u0 = rng.uniform(0.5, 2.0)
        return Inputs(workload, "converge-time", s, HOMOGENEOUS_PHYSICS,
                      argv_extra=["--k-list", s.k_list,
                                  "--t-final", repr(s.t_final),
                                  "--u0", repr(u0)])
    # probe on a vertex of the right half, where the displacement is large
    probe = (rng.randint(s.nx // 2, s.nx) / s.nx, rng.randint(0, s.nx) / s.nx)
    if workload == "energy_audit":
        physics = dict(HOMOGENEOUS_PHYSICS, rho=rng.uniform(2000.0, 4000.0))
        return Inputs(workload, "energy-check", s, physics, probe=probe)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    magnitude = rng.uniform(0.5, 2.0)
    traction = (magnitude * math.cos(angle), magnitude * math.sin(angle))
    return Inputs(workload, "simulate", s, SEC6_PHYSICS, traction=traction,
                  probe=probe)


def expected_counts(inputs):
    """Span name -> (least, most) calls per traced ``cli.main`` call.

    A layer that is off this workload's path must not fire at all; one on it
    must fire, and every step must advance and solve once.  A wrapped name
    that no longer exists fails when the wrapper is installed.
    """
    n = inputs.size.steps
    zero = (0, 0)
    some = (1, None)
    counts = {name: zero for name in (
        "config.parse", "fem.mesh", "fem.assemble", "weights.build",
        "mlf.eval", "stepper.run", "stepper.advance", "stepper.load",
        "solvers.factor", "solvers.solve", "diagnostics.ledger",
        "scalar.reference", "scalar.dg0", "kernels.cn_sweep")}
    counts["cli"] = (1, 1)
    counts["config.parse"] = some
    counts["weights.build"] = some
    counts["mlf.eval"] = some
    if inputs.workload == "converge_scalar":
        n_k = len(inputs.size.k_list.split(","))
        counts.update({"scalar.reference": some, "scalar.dg0": (n_k, None),
                       "kernels.cn_sweep": some})
        return counts
    counts.update({"fem.mesh": some, "fem.assemble": some,
                   "stepper.run": (1, 1), "stepper.advance": (n, None),
                   "stepper.load": some, "solvers.factor": some,
                   "solvers.solve": (n, None)})
    if inputs.workload == "energy_audit":
        counts["diagnostics.ledger"] = (1, 1)
    return counts
