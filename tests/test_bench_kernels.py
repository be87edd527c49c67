import json
import os
import subprocess
import sys

ROW_KEYS = {"name", "N", "nf", "k", "best_s", "median_s"}


def test_benchmark_script_smoke(tmp_path):
    bench = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "bench_kernels.py")
    record = tmp_path / "bench.json"
    out = subprocess.run([sys.executable, bench, "--quick", "--json",
                          str(record)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ml_eval" in out.stdout
    assert "ml_series[" in out.stdout
    assert "ml_asym[" in out.stdout
    assert "ml_spectral[" in out.stdout
    assert "ml_weights[N=8192,T=40]" in out.stdout
    assert "scalar_reference[" in out.stdout
    assert "direct_solve[nf=" in out.stdout
    assert "step[nf=144,bw=" in out.stdout
    assert "run[N=256,nf=144]" in out.stdout
    assert "ledger[" in out.stdout
    assert "csv[probe_trace,N=8192]" in out.stdout
    for shape in ("N=2048,nf=1300", "N=2560,nf=544", "N=8192,nf=144"):
        assert f"memory[{shape}],run" in out.stdout
        assert f"memory[{shape}],ledger" in out.stdout
    assert "import of fracvisco.cli" in out.stdout
    assert "peak RSS" in out.stdout
    assert "fresh-process simulate configs/paper_sec6.cfg" in out.stdout
    assert "fresh-process energy-check configs/paper_sec6.cfg" in out.stdout

    rec = json.loads(record.read_text())
    assert set(rec) == {"machine", "software", "quick", "rows", "memory",
                        "import_cli", "import_cli_peak_rss_mb", "cli"}
    assert set(rec["machine"]) == {"nproc", "cpu_model", "blas_threads",
                                   "numba"}
    assert rec["machine"]["nproc"] >= 1 and rec["machine"]["cpu_model"]
    assert rec["machine"]["blas_threads"] == 1
    assert rec["machine"]["numba"] in (True, False)
    assert set(rec["software"]) == {"python", "numpy", "scipy",
                                    "git_revision"}
    assert all(isinstance(v, str) and v for v in rec["software"].values())
    assert rec["quick"] is True
    # the rows printed, each with its sizes where they apply
    assert len(rec["rows"]) == 19
    assert all(r["name"] in out.stdout for r in rec["rows"])
    # the fresh interpreters: the import's resident size in MB, and the
    # one-shot CLI calls
    assert 20.0 < rec["import_cli_peak_rss_mb"] < 1000.0
    assert [r["name"] for r in rec["cli"]] == [
        "simulate configs/paper_sec6.cfg",
        "energy-check configs/paper_sec6.cfg"]
    for r in rec["rows"] + [rec["import_cli"]] + rec["cli"]:
        assert set(r) == ROW_KEYS, r
        assert r["k"] == 1 and 0.0 < r["best_s"] <= r["median_s"], r
        assert all(r[key] is None or r[key] >= 1 for key in ("N", "nf")), r
    by_name = {r["name"]: r for r in rec["rows"]}
    assert (by_name["run[N=256,nf=144]"]["N"],
            by_name["run[N=256,nf=144]"]["nf"]) == (256, 144)
    assert by_name["direct_solve[nf=144,bw=17]"]["nf"] == 144
    assert by_name["ml_weights[N=8192,T=40]"]["N"] == 8192
    assert [m["name"] for m in rec["memory"]] == [
        f"memory[N={n},nf={nf}],{what}"
        for n, nf in ((2048, 1300), (2560, 544), (8192, 144))
        for what in ("run", "ledger")]
    for m in rec["memory"]:
        assert set(m) == {"name", "N", "nf", "peak_mb", "history_mb",
                          "beyond_histories_mb"}
        assert m["peak_mb"] > 0.0 and m["history_mb"] > 0.0
        # a run holds its two histories; the ledger reads a stored one
        held = 2 * m["history_mb"] if m["name"].endswith(",run") else 0.0
        assert m["beyond_histories_mb"] == m["peak_mb"] - held > 0.0
