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

from foliationlab import FoliationParams, RunConfig, family_field, solver, spectral

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


def _spy(monkeypatch, module, name):
    """Results of every call to module.name, found through the module attribute
    as perfbench's wrappers are."""
    results = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def test_track_one_refines_through_newton_refine(monkeypatch):
    """perfbench/run.py:348-351 divides the newton_refine calls by the track_one
    calls (solver.stages_per_zero), and the eval_field calls under newton_refine
    by the newton_iters that perfbench/spans.py:116 sums from newton_refine's
    results (solver.evals_per_step).  The stacked tracking path calls no
    newton_refine, so routing track_one through it would zero both metrics."""
    refined = _spy(monkeypatch, solver, "newton_refine")
    point = solver.track_one(FoliationParams(2, 2, (0.01, -0.02j)), 3, RunConfig())
    assert refined and refined[-1] == point
    assert sum(p.newton_iters for p in refined) > 0


def test_spectrum_report_scans_through_small_divisor_scan(monkeypatch):
    """perfbench's scan metrics (spectral.small_divisor_scan.*) come only from
    spectrum_report calling small_divisor_scan; the stacked spectrum_reports
    calls _divisor_records instead, so a one-path refactor would zero them."""
    scans = _spy(monkeypatch, spectral, "small_divisor_scan")
    params = FoliationParams(2, 2, (0.01, -0.02j))
    point = solver.track_one(params, 3, RunConfig())
    report = spectral.spectrum_report(family_field(params), point, RunConfig())
    assert scans == [report.divisor]
