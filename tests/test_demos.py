"""The quick narrative demos run to completion against the current API.

Demos 05 (desk training, about 75 s) and 06 (the CLI workflow, about 50 s)
are left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_autodiff_and_gradcheck.py", "02_features_and_frontend.py",
               "03_model_forward.py", "04_losses_geometry.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
