"""The benchmark's smoke run as one opt-in test.

``bench/run.py --smoke`` runs a few operations of every workload, untraced
and traced, through the benchmark's own output checks: every unmasked psi
and far-field sample against the plane wave plus ``scipy.special.hankel1``
within 1e-10, every amplitude against the closed form, and every metric
present.  It takes about 9 s, so the ``bench`` marker keeps it out of the
default run; select it with ``pytest -m bench``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.bench
def test_smoke_run_passes_its_output_checks():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
