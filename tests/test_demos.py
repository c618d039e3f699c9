"""The quick demos run end to end against the current API.

Demos 03 and 04 are left out: they train for 9-16 s each and write their
plots and reports under demos/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_corpus_pipeline.py", "02_autodiff_gradcheck.py",
                                  "05_hyperparameter_search.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), "the demo wrote files"
