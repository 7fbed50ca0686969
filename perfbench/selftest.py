"""Smoke test of the benchmark itself, at tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
  * every workload, traced and untraced, passes its output checks on two seeds;
  * every metric named in BENCHMARK.json is printed with its unit, both as a
    ``name = value unit`` line and in the final JSON line, and nothing else is;
  * a shifted tracked zero (``--corrupt``) is counted as failed and lowers frac_ok;
  * the exact counts of a traced run repeat for the same seed;
  * in a directory holding only BENCHMARK.json and the benchmark's files, the
    benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics of the rungs and shares that the tiny size does not solve.
TINY_ABSENT = {"member_s.4-3", "member_s.5-3",
               "solver.closed_form_share.4-3", "solver.closed_form_share.5-3"}


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result, lines


def check_names(result: dict, lines: list[str], trace: int) -> None:
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, set(metrics) ^ {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"no printed line for {m['name']}"
        if m["name"] not in TINY_ABSENT:
            assert isinstance(got["value"], (int, float)), (m["name"], got["value"])


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for seed in (1, 2):
            for trace in (0, 1):
                result, lines = result_of(run(workload, seed, trace))
                assert result["correct"] and result["failed"] == 0, \
                    (workload, seed, trace, [ln for ln in lines if ln.startswith("FAILED")])
                check_names(result, lines, trace)
        print(f"ok   {workload}: checks pass on seeds 1 and 2, traced and untraced")

    result, _ = result_of(run("member-ladder", 1, 0, "--corrupt"))
    assert result["failed"] >= 1 and not result["correct"], result
    assert result["metrics"]["frac_ok"]["value"] < 1.0
    print(f"ok   a shifted tracked zero is counted: failed {result['failed']} "
          f"of {result['attempted']}")

    first, _ = result_of(run(names[0], 3, 1))
    second, _ = result_of(run(names[0], 3, 1))
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "B"):
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            assert a == b, (m["name"], a, b)
    print("ok   traced counts repeat for the same seed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(names[0], 1, 0, cwd=bare)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print(f"ok   without the library the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
