"""Run configuration: a line-oriented ``key = value`` format with sections.

Grammar (documented in the README):

* blank lines and lines starting with ``#`` are ignored; ``#`` also starts a
  trailing comment,
* ``[section]`` opens a section; keys belong to the current section,
* ``key = value`` assigns; values are numbers, booleans (true/false),
  bare words, or 2-vectors written ``(a, b)``,
* ``probe`` may repeat inside ``[probes]``; every other key is single-valued,
* a probe must lie in the closed rectangle [0, lx] x [0, ly] of the mesh;
  without a ``[probes]`` section the one probe is its far corner (lx, ly),
* numbers must be finite, and ``dt`` (an alternative to ``steps``) must be
  positive and divide ``t_final`` to 1e-9 relative
  (``weights.dividing_step_count``; no grid is built),
* every ``[solver]`` key and ``g_left`` are retired: each parses only at
  the one value the program still implements and sets nothing,
* unknown sections or keys are errors; all errors are collected with their
  line numbers before parsing fails.

Every field has a default, so the empty file parses (with a warning listing
the defaulted fields).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import ALPHA_MIN, SERIES_TERMS
from .weights import dividing_step_count

__all__ = ["RunConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    """Carries the full list of parse/validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    # kernel
    alpha: float = 2.0 / 3.0
    tau: float = 1.0
    gamma: float = 0.5
    # elastic
    mu: float = 1.0
    lam: float = 1.0
    rho: float = 3000.0
    # mesh
    nx: int = 8
    ny: int = 8
    lx: float = 1.0
    ly: float = 1.0
    # time
    t_final: float = 1.0
    steps: int = 32
    # loads (constant volume load, constant tractions on the Neumann sides)
    f: tuple = (0.0, 0.0)
    g_right: tuple = (0.0, 0.0)
    g_bottom: tuple = (0.0, 0.0)
    g_top: tuple = (0.0, 0.0)
    # probes; by default the one probe at the far corner (lx, ly)
    probes: tuple | None = None
    # output
    out_dir: str = "out"

    def __post_init__(self):
        if self.probes is None:
            object.__setattr__(self, "probes", ((self.lx, self.ly),))

    def validate(self):
        """Constraint violations as (field, message) pairs."""
        errors = []
        if not (0.0 < self.alpha <= 1.0):
            errors.append(("alpha", f"alpha must be in (0, 1], got {self.alpha}"))
        elif self.alpha < ALPHA_MIN:
            errors.append(("alpha", f"alpha must be at least {ALPHA_MIN!r}, "
                           f"where the Mittag-Leffler series converges in "
                           f"its {SERIES_TERMS} terms, got {self.alpha}"))
        if not self.tau > 0.0:
            errors.append(("tau", f"tau must be positive, got {self.tau}"))
        if not (0.0 <= self.gamma < 1.0):
            errors.append(("gamma", f"gamma must be in [0, 1), got {self.gamma}"))
        for name in ("mu", "lam", "rho"):
            if not getattr(self, name) > 0.0:
                errors.append((name, f"{name} must be positive"))
        for name in ("nx", "ny"):
            if getattr(self, name) < 1:
                errors.append((name, f"{name} must be >= 1"))
        for name in ("lx", "ly"):
            if getattr(self, name) <= 0.0:
                errors.append((name, f"{name} must be positive"))
        if self.t_final <= 0.0:
            errors.append(("t_final", "t_final must be positive"))
        if self.steps < 1:
            errors.append(("steps", "steps must be >= 1"))
        for i, (x, y) in enumerate(self.probes):
            if not (0.0 <= x <= self.lx and 0.0 <= y <= self.ly):
                errors.append((f"probes[{i}]",
                               f"probe ({x!r}, {y!r}) lies outside the mesh "
                               f"[0, {self.lx!r}] x [0, {self.ly!r}]"))
        return errors


_SCHEMA = {
    "kernel": {"alpha": float, "tau": float, "gamma": float},
    "elastic": {"mu": float, "lambda": float, "rho": float},
    "mesh": {"nx": int, "ny": int, "lx": float, "ly": float},
    "time": {"t_final": float, "steps": int, "dt": float},
    "loads": {"f": "vec", "g_left": "vec", "g_right": "vec",
              "g_bottom": "vec", "g_top": "vec"},
    "probes": {"probe": "vec"},
    "solver": {"method": str, "cg_tol": float, "weights_mode": str,
               "mass_lumping": bool},
    "output": {"dir": str},
}

_FIELD_OF = {("elastic", "lambda"): "lam", ("probes", "probe"): "probes",
             ("output", "dir"): "out_dir"}

# Keys that no longer select anything: the one value each still accepts.
# cg_tol was the relative residual bound of the step solves (every solve is
# now checked by its backward error, ``solvers.SpdSolver``); the other
# [solver] keys named removed paths.  g_left is retired: side SIDE_LEFT
# (x = 0) is the clamp (``fem``), so a traction there would do nothing.
_RETIRED = {"method": "direct", "cg_tol": 1e-10,
            "weights_mode": "closed_form", "mass_lumping": False,
            "g_left": (0.0, 0.0)}


def _parse_value(kind, raw, where, errors):
    raw = raw.strip()
    try:
        if kind == "vec":
            if not (raw.startswith("(") and raw.endswith(")")):
                raise ValueError("expected a vector like (0, -1)")
            parts = raw[1:-1].split(",")
            if len(parts) != 2:
                raise ValueError("expected exactly two components")
            value = (float(parts[0]), float(parts[1]))
        elif kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected a boolean")
        else:
            value = kind(raw)
        if kind in ("vec", float) and not np.all(np.isfinite(value)):
            raise ValueError(f"expected a finite value, got {raw}")
        return value
    except ValueError as err:
        errors.append(f"{where}: {err}")
        return None


def parse_config(text):
    """Parse and validate; raises ConfigError with every problem found."""
    errors = []
    assigned = {}
    line_of = {}
    probes = []
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = "__bad__"
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value")
            continue
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} before any section")
            continue
        if section == "__bad__":
            continue
        schema = _SCHEMA[section]
        if key not in schema:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        value = _parse_value(schema[key], raw, f"line {lineno}: {key}", errors)
        if value is None:
            continue
        if section == "probes":
            line_of[f"probes[{len(probes)}]"] = lineno
            probes.append(value)
            continue
        fname = _FIELD_OF.get((section, key), key)
        if fname in line_of:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        line_of[fname] = lineno
        if key in _RETIRED:
            if value != _RETIRED[key]:
                errors.append(f"line {lineno}: {key} must be "
                              f"{str(_RETIRED[key]).lower()}, got {raw.strip()}")
            continue
        assigned[fname] = value

    dt = assigned.pop("dt", None)
    if probes:
        assigned["probes"] = tuple(probes)
    defaulted = [f for f in RunConfig.__dataclass_fields__
                 if f not in assigned]
    cfg = RunConfig(**assigned)
    if dt is not None:
        if "steps" in assigned:
            errors.append("time: give either steps or dt, not both")
        else:
            try:
                steps = dividing_step_count(cfg.t_final, dt)
            except ValueError as err:
                errors.append(f"line {line_of['dt']}: dt: {err}")
            else:
                cfg = replace(cfg, steps=steps)
                defaulted.remove("steps")
    for field_name, message in cfg.validate():
        if field_name in line_of:
            errors.append(f"line {line_of[field_name]}: {message}")
        else:
            errors.append(message)
    if errors:
        raise ConfigError(errors)
    if defaulted:
        warnings.warn("using defaults for: " + ", ".join(sorted(defaulted)),
                      stacklevel=2)
    return cfg

