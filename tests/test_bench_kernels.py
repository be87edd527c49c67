import os
import subprocess
import sys


def test_benchmark_script_smoke():
    bench = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "bench_kernels.py")
    out = subprocess.run([sys.executable, bench, "--quick"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ml_eval" in out.stdout
    assert "ml_series[" in out.stdout
    assert "ml_asym[" in out.stdout
    assert "ml_spectral[" in out.stdout
    assert "ml_weights[N=8192,T=40]" in out.stdout
    assert "scalar_reference[" in out.stdout
    assert "direct_solve[nf=" in out.stdout
    assert "step[nf=144,bw=" in out.stdout
    assert "ledger[" in out.stdout
    assert "csv[probe_trace,N=8192]" in out.stdout
    assert "memory[N=2048,nf=1300],run" in out.stdout
    assert "memory[N=2048,nf=1300],ledger" in out.stdout
