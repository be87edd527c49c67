import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracvisco._kernels import ALPHA_MIN
from fracvisco.cli import main
from fracvisco.config import ConfigError, RunConfig, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestParse:
    @pytest.mark.parametrize("name", ["homogeneous", "paper_sec6"])
    def test_shipped_config_sets_every_field(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config((CONFIG_DIR / f"{name}.cfg").read_text())

    def test_shipped_benchmark_config(self):
        text = (CONFIG_DIR / "paper_sec6.cfg").read_text()
        # the retired [solver] keys at their one value, as perfbench writes
        # them, parse to the same config
        retired = ("[solver]\nmethod = direct\nweights_mode = closed_form\n"
                   "mass_lumping = false\n")
        cfg = parse_config(text)
        assert parse_config(text + retired) == cfg
        assert cfg.gamma == 0.5
        assert cfg.tau == 1.0
        assert cfg.alpha == pytest.approx(2.0 / 3.0)
        assert cfg.rho == 3000.0
        assert (cfg.lx, cfg.ly) == (1.0, 1.0)
        assert cfg.g_right == (0.0, -1.0)
        assert cfg.g_top == (0.0, 0.0)
        assert cfg.probes == ((1.0, 1.0),)

    def test_empty_file_defaults_with_warning(self):
        with pytest.warns(UserWarning, match="using defaults for"):
            cfg = parse_config("")
        assert cfg == RunConfig()

    def test_warning_lists_every_defaulted_field(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            parse_config("")
        msg = str(rec[0].message)
        for name in RunConfig().__dataclass_fields__:
            assert name in msg or name == "probes" and "probes" in msg

    def test_constraint_violation_names_line(self):
        text = "[kernel]\nalpha = 1.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("(0, 1]" in e and "line 2" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        text = ("[kernel]\nalpha = 1.5\nbogus = 3\n"
                "[mesh]\nnx = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = err.value.errors
        assert any("line 3" in e and "bogus" in e for e in msgs)
        assert any("alpha" in e for e in msgs)
        assert any("nx" in e for e in msgs)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[banana]\nx = 1\n")

    def test_vector_syntax_errors(self):
        with pytest.raises(ConfigError, match="vector"):
            parse_config("[loads]\nf = 0, -1\n")

    def test_dt_steps_exclusive(self):
        # the conflict names the dt line, in either order of the keys
        for text, line in (("[time]\nsteps = 4\ndt = 0.25\n", 3),
                           ("[time]\ndt = 0.25\nsteps = 4\n", 2),
                           ("[time]\nt_final = 1.0\nsteps = 4\n\n"
                            "dt = 0.25\n", 5)):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.errors == [
                f"line {line}: give either steps or dt, not both"]

    def test_dt_accepted(self):
        with pytest.warns(UserWarning):
            cfg = parse_config("[time]\nt_final = 2.0\ndt = 0.25\n")
        assert cfg.steps == 8

    @pytest.mark.parametrize("text,line", [
        ("[time]\nt_final = inf\n", 2),
        ("[kernel]\ntau = nan\n", 2),
        ("[loads]\n\ng_right = (0.0, -inf)\n", 3),
    ])
    def test_non_finite_rejected(self, text, line):
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config(text)
        assert any(f"line {line}" in e for e in err.value.errors)

    def test_dt_must_divide_t_final(self):
        with pytest.raises(ConfigError, match="does not divide") as err:
            parse_config("[time]\nt_final = 1.0\ndt = 0.3\n")
        assert any(e.startswith("line 3:") for e in err.value.errors)

    def test_dt_step_count_must_be_finite(self):
        with pytest.raises(ConfigError, match="not a finite count") as err:
            parse_config("[time]\nt_final = 1.0\ndt = 5e-324\n")
        assert [e[:12] for e in err.value.errors] == ["line 3: dt: "]

    def test_dt_counts_steps_without_a_grid(self):
        with pytest.warns(UserWarning):
            cfg = parse_config("[time]\nt_final = 1.0\ndt = 1e-12\n")
        assert cfg.steps == 10 ** 12

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[kernel]\nalpha = 0.5\nalpha = 0.6\n")

    def test_duplicate_dt(self):
        with pytest.raises(ConfigError, match="line 4: duplicate"):
            parse_config("[time]\nt_final = 1.0\ndt = 0.25\ndt = 0.5\n")

    def test_dt_errors_name_their_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[time]\nt_final = 1.0\n\ndt = -0.25\n")
        assert err.value.errors == [
            "line 4: dt: t_final and k must be positive and finite, "
            "got t_final = 1.0, k = -0.25"]

    def test_round_trip(self):
        # the shipped file and the RunConfig it spells out, field by field
        want = RunConfig(alpha=2.0 / 3.0, tau=1.0, gamma=0.5, mu=1.0e5,
                         lam=1.0e5, rho=3000.0, nx=16, ny=16, lx=1.0, ly=1.0,
                         t_final=40.0, steps=2560, f=(0.0, 0.0),
                         g_right=(0.0, -1.0), g_bottom=(0.0, 0.0),
                         g_top=(0.0, 0.0), probes=((1.0, 1.0),),
                         out_dir="out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = parse_config((CONFIG_DIR / "paper_sec6.cfg").read_text())
        assert cfg == want

    def test_round_trip_nondefault(self):
        # every field written as literal text at a non-default value
        text = ("[kernel]\nalpha = 0.31\ntau = 2.5\ngamma = 0.25\n"
                "[elastic]\nmu = 7.0\nlambda = 3.0\nrho = 10.0\n"
                "[mesh]\nnx = 3\nny = 4\nlx = 2.0\nly = 0.5\n"
                "[time]\nt_final = 3.0\nsteps = 7\n"
                "[loads]\nf = (0.1, 0.2)\ng_right = (0.0, -2.0)\n"
                "g_bottom = (1.0, 0.0)\ng_top = (0.5, 0.5)\n"
                "[probes]\nprobe = (2.0, 0.5)\nprobe = (1.0, 0.25)\n"
                "[output]\ndir = elsewhere\n")
        want = RunConfig(alpha=0.31, tau=2.5, gamma=0.25, mu=7.0, lam=3.0,
                         rho=10.0, nx=3, ny=4, lx=2.0, ly=0.5, t_final=3.0,
                         steps=7, f=(0.1, 0.2), g_right=(0.0, -2.0),
                         g_bottom=(1.0, 0.0), g_top=(0.5, 0.5),
                         probes=((2.0, 0.5), (1.0, 0.25)),
                         out_dir="elsewhere")
        assert all(getattr(want, f.name) != f.default
                   for f in dataclasses.fields(RunConfig))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_config(text) == want

    @pytest.mark.parametrize("section,line,message", [
        ("solver", "method = cg", "method must be direct, got cg"),
        ("solver", "cg_tol = 1e-9", "cg_tol must be 1e-10, got 1e-9"),
        ("solver", "weights_mode = midpoint",
         "weights_mode must be closed_form, got midpoint"),
        ("solver", "mass_lumping = true",
         "mass_lumping must be false, got true"),
        ("loads", "g_left = (1.0, 0.0)",
         "g_left must be (0.0, 0.0), got (1.0, 0.0)"),
    ], ids=["method", "cg_tol", "weights_mode", "mass_lumping", "g_left"])
    def test_retired_key_rejected_with_line(self, section, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n# retired keys only\n\n{line}\n")
        assert err.value.errors == [f"line 4: {message}"]

    @pytest.mark.parametrize("probes,line,point", [
        ("probe = (1.5, 0.5)\n", 3, "(1.5, 0.5)"),
        ("probe = (1.0, 1.0)\n\nprobe = (0.5, -0.25)\n", 5, "(0.5, -0.25)"),
        ("probe = (1e300, 1e300)\n", 3, "(1e+300, 1e+300)"),
        ("probe = (1.7e308, 1.7e308)\n", 3, "(1.7e+308, 1.7e+308)"),
    ], ids=["right-of-square", "second-probe", "1e300", "1.7e308"])
    def test_probe_outside_mesh_rejected_with_line(self, probes, line, point):
        # refused at parse time, with the probe's own line and the rectangle,
        # before the mesh snaps it or measures its distance
        with pytest.raises(ConfigError) as err:
            parse_config(f"[mesh]\n[probes]\n{probes}")
        assert err.value.errors == [
            f"line {line}: probe {point} lies outside the mesh "
            "[0, 1.0] x [0, 1.0]"]

    def test_probe_in_closed_rectangle_accepted(self):
        # corners and edges belong to the mesh; a point off the vertices
        # still parses and snaps later, with the mesh's warning
        text = ("[mesh]\nlx = 2.0\nly = 0.5\n[probes]\nprobe = (0.0, 0.0)\n"
                "probe = (2.0, 0.5)\nprobe = (0.51, 0.25)\n")
        with pytest.warns(UserWarning, match="using defaults for"):
            cfg = parse_config(text)
        assert cfg.probes == ((0.0, 0.0), (2.0, 0.5), (0.51, 0.25))
        assert RunConfig(probes=((np.nan, 0.5),)).validate() == [
            ("probes[0]", "probe (nan, 0.5) lies outside the mesh "
             "[0, 1.0] x [0, 1.0]")]

    @pytest.mark.parametrize("mesh,corner", [
        ("lx = 0.5\n", (0.5, 1.0)),
        ("lx = 2\nly = 3\n", (2.0, 3.0)),
    ], ids=["narrow", "wide"])
    def test_default_probe_at_far_corner(self, mesh, corner):
        # without [probes] the one probe is the tip (lx, ly) of the mesh,
        # whatever its size, and is still listed as defaulted
        with pytest.warns(UserWarning, match="using defaults for.*probes"):
            cfg = parse_config(f"[mesh]\n{mesh}")
        assert cfg.probes == (corner,)

    def test_run_config_default_probe_at_far_corner(self):
        # the default lives in RunConfig itself, not only in parse_config
        assert RunConfig(lx=0.5).validate() == []
        assert RunConfig(lx=2.0, ly=3.0).probes == ((2.0, 3.0),)
        assert RunConfig(lx=2.0, probes=((0.5, 0.5),)).probes == (
            (0.5, 0.5),)

    def test_retired_cg_tol_parses_to_default(self):
        # the value perfbench writes into every config it generates
        with pytest.warns(UserWarning, match="using defaults for"):
            cfg = parse_config("[solver]\ncg_tol = 1e-10\n")
        assert cfg == RunConfig()


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.setenv("FRACVISCO_OUTPUT_DIR", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


class TestCli:
    def test_ml_eval(self, capsys):
        from scipy.special import erfc

        assert main(["ml-eval", "--alpha", "0.5", "--b", "1", "--x", "2"]) == 0
        out = float(capsys.readouterr().out.strip())
        assert out == pytest.approx(math.exp(4.0) * erfc(2.0), rel=1e-10)

    @pytest.mark.parametrize("x", ["nan", "-1"])
    def test_ml_eval_rejects_bad_x(self, capsys, x):
        assert main(["ml-eval", "--alpha", "0.5", "--b", "1", "--x", x]) == 1
        assert capsys.readouterr().err == (
            "error: ml-eval: x must be nonnegative\n")

    def test_simulate_writes_trace(self, tmp_path, monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nt_final = 0.5\n"
                       "steps = 4\n[loads]\ng_right = (0.0, -1.0)\n"
                       "[probes]\nprobe = (1.0, 1.0)\n")
        assert run_cli(["simulate", str(cfg)], tmp_path, monkeypatch) == 0
        trace = (tmp_path / "probe_trace.csv").read_text().splitlines()
        assert trace[0] == "t,u1_x,u1_y,u2_x,u2_y"
        assert len(trace) == 6  # header + N+1 rows

    def test_simulate_multiple_probes(self, tmp_path, monkeypatch):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nt_final = 0.5\n"
                       "steps = 2\n[loads]\ng_right = (0.0, -1.0)\n"
                       "[probes]\nprobe = (1.0, 1.0)\nprobe = (0.5, 0.5)\n")
        assert run_cli(["simulate", str(cfg)], tmp_path, monkeypatch) == 0
        assert (tmp_path / "probe_trace.csv").exists()
        assert (tmp_path / "probe_trace_2.csv").exists()

    def test_probe_traces_do_not_depend_on_the_block(self, tmp_path,
                                                     monkeypatch):
        # 41 rows per trace, converted and written in blocks of the default,
        # 7 (the last one partial) and 1 rows
        from fracvisco import cli

        cfg = tmp_path / "two.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nt_final = 1.0\n"
                       "steps = 40\n[loads]\ng_right = (0.0, -1.0)\n"
                       "[probes]\nprobe = (1.0, 1.0)\nprobe = (0.5, 0.5)\n")
        written = []
        for block in (cli.CSV_BLOCK, 7, 1):
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
            assert run_cli(["simulate", str(cfg)], tmp_path, monkeypatch) == 0
            written.append([(tmp_path / name).read_bytes() for name in
                            ("probe_trace.csv", "probe_trace_2.csv")])
        assert written[0] == written[1] == written[2]
        assert [w.count(b"\n") for w in written[0]] == [42, 42]

    def test_simulate_output_holds_a_block_of_rows(self, tmp_path,
                                                   monkeypatch):
        # after the run, simulate holds the (N + 1) x 5 trace and one block
        # of its rows as Python numbers and text: 1.2 MB at N = 16384,
        # against 6.4 MB when the whole trace was converted at once
        import tracemalloc

        from fracvisco import cli

        cfg = tmp_path / "long.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nt_final = 16.0\n"
                       "steps = 16384\n[loads]\ng_right = (0.0, -1.0)\n")
        run = cli.run

        def run_then_trace(*args):
            hist = run(*args)
            tracemalloc.start()
            return hist

        monkeypatch.setattr(cli, "run", run_then_trace)
        try:
            code = run_cli(["simulate", str(cfg)], tmp_path, monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "probe_trace.csv").stat().st_size > 1.5e6
        assert peak < 2e6

    def test_simulate_long_non_dyadic_grid(self, tmp_path, monkeypatch):
        # k = 1e-3 over 9000 steps, past where the nodes' rounding broke
        # the former uniform test: the run keeps the O(N) lags and factors
        # once (it built the dense 9000^2 table and refactored at every
        # step: 29 s and 3.6 GB)
        from fracvisco import cli, stepper
        from fracvisco.weights import TimeGrid

        assert TimeGrid.uniform(9.0, 9000).is_uniform
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[mesh]\nnx = 8\nny = 8\n[time]\nt_final = 9.0\n"
                       "steps = 9000\n[loads]\ng_right = (0.0, -1.0)\n")
        tables, factors = [], []
        run, factor = cli.run, stepper.make_spd_solver

        def recorded(sys_, table, *args):
            tables.append(table)
            return run(sys_, table, *args)

        def counted(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(cli, "run", recorded)
        monkeypatch.setattr(stepper, "make_spd_solver", counted)
        assert run_cli(["simulate", str(cfg)], tmp_path, monkeypatch) == 0
        assert tables[0].lags is not None and len(factors) == 1
        lines = (tmp_path / "probe_trace.csv").read_text().splitlines()
        assert len(lines) == 9002 and lines[-1].startswith("9.0,")

    def test_energy_check(self, tmp_path, monkeypatch):
        assert run_cli(["energy-check", str(CONFIG_DIR / "homogeneous.cfg")],
                       tmp_path, monkeypatch) == 0
        lines = (tmp_path / "energy_ledger.csv").read_text().splitlines()
        assert lines[0] == "term,value"
        res = {k: v for k, v in (ln.split(",") for ln in lines[1:])}
        assert float(res["residual_rel"]) <= 1e-8

    @pytest.mark.parametrize("shift", [1e-6, math.nan])
    def test_energy_check_fails_on_open_balance(self, tmp_path, monkeypatch,
                                                capsys, shift):
        # the ledger is still written; then a residual above RESIDUAL_MAX,
        # or one that is not a number, is one error line and exit 1
        from fracvisco import cli

        ledger = cli.energy_ledger

        def shifted(history):
            led = ledger(history)
            return dataclasses.replace(
                led, load_work=led.load_work + shift * led.rhs_total)

        monkeypatch.setattr(cli, "energy_ledger", shifted)
        code = run_cli(["energy-check", str(CONFIG_DIR / "homogeneous.cfg")],
                       tmp_path, monkeypatch)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: energy-check: energy balance does not close")
        lines = (tmp_path / "energy_ledger.csv").read_text().splitlines()
        res = float(dict(ln.split(",") for ln in lines[1:])["residual_rel"])
        assert not res <= 1e-8

    def test_weights_dump(self, tmp_path, monkeypatch):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("[time]\nt_final = 1.0\nsteps = 4\n")
        assert run_cli(["weights-dump", str(cfg)], tmp_path, monkeypatch) == 0
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        assert lines[0] == "n,j,omega_nj,eta_n"
        assert len(lines) == 1 + 4 * 5 // 2

    def test_converge_time(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("")
        code = run_cli(["converge-time", str(cfg), "--k-list",
                        "0.25,0.125,0.0625", "--t-final", "2.0"],
                       tmp_path, monkeypatch)
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "k,error,order"
        assert len(lines) == 4
        for line in lines[1:]:
            k, error, order = (float(cell) for cell in line.split(","))
            assert k > 0.0 and error > 0.0

    def test_converge_time_rejects_non_dividing_k(self, tmp_path,
                                                  monkeypatch, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("")
        code = run_cli(["converge-time", str(cfg), "--k-list", "0.3,0.1",
                        "--t-final", "1.0"], tmp_path, monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: converge-time: k = 0.3 does not divide")
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("flag,message", [
        ("--u0", "u0 must be finite"), ("--v0", "v0 must be finite"),
        ("--rho", "rho must be finite"), ("--kappa", "kappa must be finite"),
        ("--t-final", "t_final and k must be positive and finite")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_converge_time_rejects_non_finite_data(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   flag, message, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("")
        code = run_cli(["converge-time", str(cfg), "--k-list", "0.5,0.25",
                        flag, value], tmp_path, monkeypatch)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: converge-time: {message}")
        assert not (tmp_path / "convergence.csv").exists()

    def test_config_error_exit_code(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[kernel]\nalpha = 1.5\n")
        code = run_cli(["simulate", str(bad)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate:")

    def test_alpha_below_series_floor_refused_with_line(self, tmp_path,
                                                        monkeypatch, capsys):
        # below ALPHA_MIN the Mittag-Leffler series runs out of terms; the
        # config is refused before any weight is built
        bad = tmp_path / "bad.cfg"
        bad.write_text("[mesh]\nnx = 2\nny = 2\n[kernel]\ngamma = 0.5\n"
                       "alpha = 0.01\n")
        code = run_cli(["simulate", str(bad)], tmp_path, monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate: line 6: alpha must be at "
                              f"least {ALPHA_MIN!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "energy-check"])
    def test_alpha_at_series_floor_runs(self, tmp_path, monkeypatch,
                                        command):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(f"[kernel]\nalpha = {ALPHA_MIN!r}\n[mesh]\nnx = 4\n"
                       "ny = 4\n[time]\nsteps = 16\n[loads]\n"
                       "g_right = (0.0, -1.0)\n")
        assert run_cli([command, str(cfg)], tmp_path, monkeypatch) == 0

    def test_memory_error_is_one_line(self, tmp_path, monkeypatch, capsys):
        from fracvisco import cli

        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "build_weights", no_memory)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nsteps = 4\n")
        code = run_cli(["simulate", str(cfg)], tmp_path, monkeypatch)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: simulate: Unable to allocate 7.28 TiB\n")

    @pytest.mark.parametrize("command,csv,first", [
        ("simulate", "probe_trace.csv", 0),
        ("energy-check", "energy_ledger.csv", 1)])     # after the term name
    def test_smallest_alpha_runs_or_errs_in_one_line(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     command, csv, first):
        # alpha = 5e-324 parses; 45 / alpha is inf, so the Mittag-Leffler
        # coefficient tables must cap their term counts before int()
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[kernel]\nalpha = 5e-324\n[mesh]\nnx = 4\nny = 4\n"
                       "[time]\nt_final = 1.0\nsteps = 16\n"
                       "[loads]\ng_right = (0.0, -1.0)\n")
        code = run_cli([command, str(cfg)], tmp_path, monkeypatch)
        if code == 0:
            rows = (tmp_path / csv).read_text().splitlines()[1:]
            cells = [cell for row in rows for cell in row.split(",")[first:]]
            assert rows and all(math.isfinite(float(cell)) for cell in cells)
        else:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")

    def test_missing_file_exit_code(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["simulate", str(tmp_path / "nope.cfg")],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "error: simulate:" in capsys.readouterr().err

    def test_csv_cells_are_float_reprs(self, tmp_path, monkeypatch):
        # every CSV cell of a number must read repr(float(x)), byte for byte;
        # the ledger and the convergence rows are handed to the writer as
        # numpy scalars, whose repr is not a float's under numpy 2
        from fracvisco import cli
        from fracvisco.scalar import ConvergenceRow
        from fracvisco.stepper import run

        cfg = tmp_path / "f.cfg"
        cfg.write_text("[mesh]\nnx = 4\nny = 4\n[time]\nt_final = 0.5\n"
                       "steps = 12\n[loads]\ng_right = (0.0, -1.0)\n"
                       "[probes]\nprobe = (1.0, 1.0)\nprobe = (0.0, 0.5)\n")
        assert run_cli(["simulate", str(cfg)], tmp_path, monkeypatch) == 0
        assert run_cli(["weights-dump", str(cfg)], tmp_path, monkeypatch) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            conf = cli._load_config(cfg)
        mesh, sys_, table = cli._setup(conf)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        for name, point in (("probe_trace.csv", (1.0, 1.0)),
                            ("probe_trace_2.csv", (0.0, 0.5))):
            i = 2 * mesh.nearest_vertex(point)
            lines = ["t,u1_x,u1_y,u2_x,u2_y"]
            for n, t in enumerate(table.grid.nodes):
                cells = [t, hist.U1[n, i], hist.U1[n, i + 1],
                         hist.U2[n, i], hist.U2[n, i + 1]]
                lines.append(",".join(repr(float(x)) for x in cells))
            assert ((tmp_path / name).read_bytes()
                    == ("\n".join(lines) + "\n").encode())
        lines = ["n,j,omega_nj,eta_n"]
        for n in range(1, table.n_steps + 1):
            for j in range(1, n + 1):
                lines.append(f"{n},{j},{repr(float(table.omega[n - 1, j - 1]))},"
                             f"{repr(float(table.eta_bar[n]))}")
        assert ((tmp_path / "weights.csv").read_bytes()
                == ("\n".join(lines) + "\n").encode())

        written = {}

        def as_numpy(fn, convert):
            def wrapped(*args, **kwargs):
                written[fn.__name__] = convert(fn(*args, **kwargs))
                return written[fn.__name__]
            return wrapped

        def ledger64(led):
            return dataclasses.replace(led, **{
                f.name: np.float64(getattr(led, f.name))
                for f in dataclasses.fields(led)})

        def study64(study):
            return dataclasses.replace(study, rows=[
                ConvergenceRow(*map(np.float64, (r.k, r.error, r.order)))
                for r in study.rows])

        monkeypatch.setattr(cli, "energy_ledger",
                            as_numpy(cli.energy_ledger, ledger64))
        monkeypatch.setattr(cli, "convergence_study",
                            as_numpy(cli.convergence_study, study64))
        assert run_cli(["energy-check", str(CONFIG_DIR / "homogeneous.cfg")],
                       tmp_path, monkeypatch) == 0
        assert run_cli(["converge-time", str(cfg), "--k-list",
                        "0.25,0.125,0.0625", "--t-final", "2.0"],
                       tmp_path, monkeypatch) == 0
        lines = ["term,value"] + [f"{name},{repr(float(x))}" for name, x
                                  in written["energy_ledger"].rows()]
        assert ((tmp_path / "energy_ledger.csv").read_bytes()
                == ("\n".join(lines) + "\n").encode())
        lines = ["k,error,order"] + [
            ",".join(repr(float(x)) for x in (r.k, r.error, r.order))
            for r in written["convergence_study"].rows]
        assert ((tmp_path / "convergence.csv").read_bytes()
                == ("\n".join(lines) + "\n").encode())

    def test_energy_check_fine_mesh(self, tmp_path, monkeypatch):
        # the static solve of a 64x64 mesh has a relative residual of about
        # 1e-12 (it grows with the conditioning); its backward error is at
        # roundoff, and the run must go through
        text = (CONFIG_DIR / "homogeneous.cfg").read_text()
        for old, new in (("nx = 8", "nx = 64"), ("ny = 8", "ny = 64"),
                         ("steps = 32", "steps = 8")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "h64.cfg"
        cfg.write_text(text)
        assert run_cli(["energy-check", str(cfg)], tmp_path, monkeypatch) == 0
        assert (tmp_path / "energy_ledger.csv").exists()

    def test_csv_float_rows_match_cell_path(self, tmp_path, monkeypatch):
        # rows of Python floats and ints are joined by repr without a call
        # to _cell; every other row goes through _cell; both give _cell's
        # text, in blocks of any size
        from fracvisco import cli

        edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
        float_rows = [edge, np.array(edge[::-1]).tolist(), [3, -0.0, 7]]
        other_rows = [[np.float64(x) for x in edge],
                      ["a", 1.5, np.int64(-2), np.float32(0.1), True],
                      (np.float64(-0.0), 12, "x,y", np.nan)]
        rows = float_rows + other_rows
        want = "\n".join(["h"] + [",".join(map(cli._cell, row))
                                  for row in rows]) + "\n"
        cell = cli._cell
        calls = []

        def counted(x):
            calls.append(x)
            return cell(x)

        monkeypatch.setattr(cli, "_cell", counted)
        for block in (cli.CSV_BLOCK, 2, 1):
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
            calls.clear()
            path = tmp_path / f"rows{block}.csv"
            cli._write_csv(path, "h", iter(rows))
            assert path.read_bytes() == want.encode()
            assert len(calls) == sum(map(len, other_rows))

    def test_weights_dump_streams(self, tmp_path, monkeypatch):
        # 80200 rows, a 3.9 MB file: the writer holds a block of lines at a
        # time, so the dump's traced peak stays below the file's size (2.4
        # MB; 16 MB when every line was held and joined before writing)
        import tracemalloc

        cfg = tmp_path / "w.cfg"
        cfg.write_text("[time]\nt_final = 1.0\nsteps = 400\n")
        tracemalloc.start()
        try:
            code = run_cli(["weights-dump", str(cfg)], tmp_path, monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = (tmp_path / "weights.csv").stat().st_size
        assert size > 3.5e6
        assert peak < size

    def test_outputs_bitwise_reproducible(self, tmp_path, monkeypatch):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[mesh]\nnx = 2\nny = 2\n[time]\nt_final = 0.5\n"
                       "steps = 4\n[loads]\ng_right = (0.0, -1.0)\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(["simulate", str(cfg)], out1, monkeypatch)
        run_cli(["simulate", str(cfg)], out2, monkeypatch)
        assert ((out1 / "probe_trace.csv").read_bytes()
                == (out2 / "probe_trace.csv").read_bytes())
