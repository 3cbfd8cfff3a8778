"""The benchmark's own smoke test, run as part of the test suite.

``bench/smoke.py`` runs every workload at a tiny size, traced and untraced,
and exits non-zero when a traced function is missing, a metric is absent or
not finite, or an operation fails. Running it here means a rename of a
traced target or a broken metric fails the tests, not only the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
