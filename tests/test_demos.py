"""The quick narrative demos run to completion against the current API.

Demos 05 (desk training, about 75 s) and 06 (the CLI workflow, about 50 s)
are left out to keep the suite fast; the package-root test still checks that
every name they import from `diarnet` is there.
"""

import ast
import os
import subprocess
import sys
import types
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


def _root_imports() -> set[str]:
    """Every name a README python block or a demo imports from `diarnet` itself."""
    readme = (ROOT / "README.md").read_text()
    sources = [block.split("```")[0] for block in readme.split("```python")[1:]]
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    return {alias.name for src in sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.ImportFrom) and node.module == "diarnet" and not node.level
            for alias in node.names}


def test_package_root_exports_exactly_what_readme_and_demos_import():
    import diarnet

    used = _root_imports()
    assert used, "found no `from diarnet import` in README or demos"
    exported = {n for n, v in vars(diarnet).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == used, (f"imported but not exported: {used - exported}; "
                              f"exported but imported nowhere: {exported - used}")
