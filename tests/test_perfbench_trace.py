"""The benchmark's traced mode runs to the end on the current library.

perfbench/run.py --trace 1 divides per-layer counts by one another (for
example newton_refine calls by track_one calls), so a library change that
removes the calls it divides by ends the traced run with an error that no
other test sees.  The run is made on a copy of perfbench/ and src/ under
a temporary directory, so its .bench_out/ stays out of the tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["member-ladder", "census-defect"])
def test_traced_tiny_run_is_correct(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
