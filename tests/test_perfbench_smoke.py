"""The benchmark's own smoke check: every workload runs at toy size,
repeats its fingerprint and passes the checks it makes on the package."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_smoke_passes(tmp_path):
    # run from `tmp_path`, so the run's output directory lands there
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke PASS", done.stdout
