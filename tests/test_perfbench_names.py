"""Every library name the benchmark harness reaches exists and is callable.

perfbench/spans.py rebinds the functions listed in its TARGETS to trace
them, and perfbench/workloads.py calls the library through module
attributes (``solver.track_singularities``, ...).  Renaming or removing
one of them breaks the traced benchmark run without any other test
failing.  Both files are read with ast; perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("solver", "spectral", "genericity", "jouanolou", "cpoly", "cli")


def _span_targets() -> tuple[tuple[str, str], ...]:
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no TARGETS")


def _workload_attributes() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in MODULES})


TARGETS = _span_targets()
ATTRIBUTES = _workload_attributes()


def test_the_parsers_find_the_names_the_trace_divides_by():
    assert {("solver", "track_one"), ("solver", "newton_refine")} <= set(TARGETS)
    assert {("solver", "track_singularities"), ("cli", "run")} <= set(ATTRIBUTES)


@pytest.mark.parametrize("module,name", sorted(set(TARGETS) | set(ATTRIBUTES)),
                         ids=lambda v: v)
def test_perfbench_name_exists_and_is_callable(module, name):
    obj = getattr(importlib.import_module(f"foliationlab.{module}"), name, None)
    assert callable(obj), f"foliationlab.{module}.{name} is missing or not callable"
