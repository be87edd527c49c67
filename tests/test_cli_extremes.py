"""Every numeric config field at extreme values, through the CLI.

Each case either runs (exit 0, every CSV cell finite and, for
energy-check, the balance closed within ``cli.RESIDUAL_MAX``) or is
refused with exactly one line on stderr, ``error: <subcommand>: ...``, and
nothing else: no warning ahead of it.  A probe outside the unit square is
always refused, and so is an alpha below ``_kernels.ALPHA_MIN``, at parse
time with its line.
"""

import math
import warnings

import pytest

from fracvisco._kernels import ALPHA_MIN
from fracvisco.cli import RESIDUAL_MAX, main

# 4x4 mesh, N = 16, unit downward traction on the right side
BASE = {
    "kernel": {"alpha": "0.6666666666666666", "tau": "1.0", "gamma": "0.5"},
    "elastic": {"mu": "1.0", "lambda": "1.0", "rho": "3000.0"},
    "mesh": {"nx": "4", "ny": "4", "lx": "1.0", "ly": "1.0"},
    "time": {"t_final": "1.0", "steps": "16"},
    "loads": {"f": "(0.0, 0.0)", "g_right": "(0.0, -1.0)",
              "g_bottom": "(0.0, 0.0)", "g_top": "(0.0, 0.0)"},
    "probes": {"probe": "(1.0, 1.0)"},
    "output": {"dir": "out"},
}

# the numeric fields: scalars take the value, vectors the pair
FIELDS = [("kernel", "alpha", "{v}"), ("kernel", "tau", "{v}"),
          ("kernel", "gamma", "{v}"), ("elastic", "mu", "{v}"),
          ("elastic", "lambda", "{v}"), ("elastic", "rho", "{v}"),
          ("mesh", "lx", "{v}"), ("mesh", "ly", "{v}"),
          ("time", "t_final", "{v}"), ("loads", "f", "({v}, {v})"),
          ("loads", "g_right", "({v}, -{v})"),
          ("loads", "g_bottom", "({v}, {v})"),
          ("loads", "g_top", "({v}, -{v})"),
          ("probes", "probe", "({v}, {v})")]
VALUES = ["1e-300", "5e-324", "1e300", "1.7e308", "1e-16", "1e16"]
COMMANDS = [("simulate", "probe_trace.csv"),
            ("energy-check", "energy_ledger.csv")]


def config_text(section, key, value):
    lines = []
    for name, entries in BASE.items():
        lines.append(f"[{name}]")
        for k, v in entries.items():
            lines.append(f"{k} = {value if (name, k) == (section, key) else v}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,csv", COMMANDS, ids=[c for c, _ in COMMANDS])
@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("section,key,form", FIELDS,
                         ids=[key for _, key, _ in FIELDS])
def test_runs_or_errs_in_one_line(tmp_path, monkeypatch, capsys, section,
                                  key, form, value, command, csv):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(config_text(section, key, form.format(v=value)))
    monkeypatch.setenv("FRACVISCO_OUTPUT_DIR", str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(cfg)])
    err = capsys.readouterr().err.splitlines()
    if key == "probe" and float(value) > 1.0:
        assert code != 0
    if key == "alpha" and float(value) < ALPHA_MIN:
        # below the series' floor: refused at parse time, naming the line
        assert code == 2 and err[0].startswith(f"error: {command}: line 2:")
    if code == 0:
        rows = [row.split(",") for row in
                (tmp_path / csv).read_text().splitlines()[1:]]
        # the ledger's first cell is the term's name
        cells = [float(c) for row in rows
                 for c in row[1 if command == "energy-check" else 0:]]
        assert rows and all(math.isfinite(c) for c in cells)
        assert not err
        if command == "energy-check":
            assert dict((r[0], float(r[1])) for r in rows)[
                "residual_rel"] <= RESIDUAL_MAX
    else:
        lines = err + [str(w.message) for w in caught]
        assert len(lines) == 1 and lines[0].startswith(f"error: {command}:"), \
            lines
