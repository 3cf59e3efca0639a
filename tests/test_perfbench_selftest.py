"""Runs the benchmark's own tiny-size self-test (perfbench/selftest.py).

The benchmark's tracer patches layer functions by name, so renaming or
removing one of them breaks traced runs; this keeps that visible in the unit
suite. Each check runs in its own interpreter: the self-test sets the BLAS
thread variables and installs tracer wrappers into the steprouter modules,
and neither may leak into the other tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ("test_traced_runs", "test_untraced_run_prints_every_metric",
          "test_stale_output_is_caught")


@pytest.mark.parametrize("check", CHECKS)
def test_perfbench_selftest(check):
    code = f"import selftest; selftest.{check}()"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
