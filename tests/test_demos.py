"""Every demo script runs to completion against the current package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=demo.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _top_module(node):
    if isinstance(node, ast.Import):
        return node.names[0].name.split(".")[0]
    return node.module.split(".")[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_meltshift_before_numpy(demo):
    # importing meltshift pins BLAS to one thread only if numpy is not loaded yet
    imports = [_top_module(node) for node in ast.parse(demo.read_text()).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "meltshift" in imports and "numpy" in imports
    assert imports.index("meltshift") < imports.index("numpy")
