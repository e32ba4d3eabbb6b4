"""The benchmark's self-tests as part of the package's tests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # bench/selftest.py runs every benchmark check on the program's output and
    # calls the program API that bench/ uses: the per-point
    # batch_input_hessian, the traced network.hessian span and the rest.
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
