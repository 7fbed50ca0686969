"""The library imports only the standard library, numpy and itself.

scipy, mpmath and hypothesis may be installed next to it for tests and
benchmarks, so an import of one of them in the package would otherwise
pass unnoticed.
"""

import ast
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
