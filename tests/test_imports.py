"""The library imports only the standard library, numpy and itself.

scipy, mpmath and hypothesis may be installed next to it for tests and
benchmarks, so an import of one of them in the package would otherwise
pass unnoticed.  A sampling run also leaves numpy.ma unimported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foliationlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "foliationlab"}


def _imported_roots(source: str) -> set[str]:
    """Top-level names of every absolute import in the source."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_guard_sees_every_import_form():
    source = ("import scipy.linalg\nimport os, mpmath as mp\nfrom hypothesis import given\n"
              "from . import cpoly\nfrom .jouanolou import counts\n"
              "def f():\n    import numpy.linalg\n")
    assert _imported_roots(source) == {"scipy", "os", "mpmath", "hypothesis", "numpy"}
    assert _imported_roots(source) - ALLOWED == {"scipy", "mpmath", "hypothesis"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert _imported_roots(path.read_text()) - ALLOWED == set()


def test_sampling_does_not_import_numpy_ma():
    # numpy.ma costs a fresh process about 14 ms to import, and np.unique(axis=0) imports it
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\nfrom foliationlab import RunConfig, genericity_sample\n"
            "genericity_sample(3, 2, RunConfig(samples=2, max_order=6))\nprint('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"
