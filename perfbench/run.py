"""foliationlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload member-ladder --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
A workload is a closed loop, one item at a time, over a fixed round of item
kinds (see workloads.py): a member at each ladder rung, census, probe and
sample.  Every round holds every kind, so every end-to-end metric has a
value on every workload, and a change that speeds up one path but slows
another shows on each workload.  Each workload weights its own kinds more,
so its own metrics rest on more samples.  A kind's items are spread evenly
through the round, so that a metric's samples come from all parts of a run
on a machine whose speed drifts.  Every run starts with a ``sample`` item at
--jobs 1 and one at --jobs 2 on the same seed, whose outputs must be
byte-identical.  Rounds then repeat until ``--seconds`` have passed, and the
first round always completes.  All inputs are drawn from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
plan (the jobs pair and one round of the mix) once untraced and once
traced, checks that both give bitwise-equal outputs, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# The Jacobians are at most 7 x 7, so BLAS runs on one thread; this must be
# set before numpy is imported, here and in every child process.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Items of each kind in one round of a workload.
MIXES = {
    "member-ladder": {"2-2": 48, "3-2": 24, "3-3": 8, "4-3": 4, "5-3": 3,
                      "census": 2, "probe": 4, "sample": 4},
    "census-defect": {"2-2": 24, "3-2": 12, "3-3": 4, "4-3": 2, "5-3": 2,
                      "census": 3, "probe": 8, "sample": 3},
}
WORKLOADS = tuple(MIXES)
RUNGS = ("2-2", "3-2", "3-3", "4-3", "5-3")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "frac_ok": "fraction",
    **{f"member_s.{r}": "s" for r in RUNGS},
    "draws_per_s": "1/s", "census_s": "s", "probe_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the mix repeats until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at smoke-test size")
    parser.add_argument("--corrupt", action="store_true",
                        help="shift one tracked zero after solving, to test the checks")
    return parser.parse_args(argv)


# -- environment -------------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# -- set-up time ---------------------------------------------------------------

def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import the library and run
    the warm-up items: the smallest instance of every item kind.

    These are not rescaled by the reference kernel: the child runs on
    whichever CPU is free, and its first pool uses both.
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import workloads; workloads.warm_up()")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


# -- passes --------------------------------------------------------------------

def round_order(mix: dict[str, int]) -> list[str]:
    """Each kind's items spread evenly through the round: the i-th of c
    items sits at (i + 1/2) / c, ties broken by the mix's order."""
    slots = [((i + 0.5) / count, k, kind)
             for k, (kind, count) in enumerate(mix.items()) for i in range(count)]
    return [kind for *_, kind in sorted(slots)]


class Plan:
    """Seeded item streams, one per family of kinds, run in the workload's rounds."""

    def __init__(self, wl, workload, seed, size, rec):
        import numpy as np

        self.wl, self.size, self.rec = wl, size, rec
        member_rng, probe_rng, self.sample_rng = (
            np.random.default_rng([seed, k]) for k in range(3))
        self.run_kind = {
            "census": lambda: wl.census_item(size, rec),
            "probe": lambda: wl.probe_item(probe_rng, size, rec),
            "sample": lambda: wl.sample_item(self._sample_seed(), 1, size.draws, rec),
        }
        for n, d in size.rungs:
            self.run_kind[f"{n}-{d}"] = lambda n=n, d=d: wl.member_item(member_rng, n, d, rec)
        mix = MIXES[workload] if size is wl.FULL else dict.fromkeys(MIXES[workload], 1)
        self.order = [kind for kind in round_order(mix) if kind in self.run_kind]

    def _sample_seed(self) -> int:
        return int(self.sample_rng.integers(2**31))

    def run(self, deadline: float | None = None) -> None:
        """The jobs pair, one round, then more items until `deadline`."""
        seed = self._sample_seed()
        serial = self.wl.sample_item(seed, 1, self.size.draws, self.rec)
        self.wl.sample_item(seed, 2, self.size.draws, self.rec, expect=serial)
        done = 0
        while done < len(self.order) or (deadline is not None
                                         and time.perf_counter() < deadline):
            gc.collect()
            self.run_kind[self.order[done % len(self.order)]]()
            done += 1


def _median(values):
    return statistics.median(values) if values else None


def _tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def _print_samples(scaled: dict, raw: dict) -> None:
    for name, values in sorted(scaled.items()):
        tail = _tail(values)
        tail_text = f", p{tail[0]} {tail[1]:.6g}" if tail else ""
        print(f"  {name}: median {statistics.median(values):.6g}{tail_text} "
              f"(n={len(values)}; unscaled median {statistics.median(raw[name]):.6g})")


def end_to_end(wl, args, size):
    from calibrate import REF_NOMINAL_S, Calibration

    setup = measure_setup(SETUP_REPEATS if args.size == "full" else 2)
    calibration = Calibration()
    rec = wl.Record(calibration=calibration, corrupt=args.corrupt)
    wl.warm_up()
    Plan(wl, args.workload, args.seed, size, rec).run(time.perf_counter() + args.seconds)
    calibration.tick()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    scaled = rec.scaled()
    metrics = {
        "setup_s": _median(setup),
        "peak_rss_mb": rss_kb / 1024,
        "frac_ok": 1 - len(rec.failures) / rec.attempted,
        **{f"member_s.{r}": _median(scaled.get(f"member_s.{r}", [])) for r in RUNGS},
        "draws_per_s": size.draws / _median(scaled["sample_cpu_s.jobs1"]),
        "census_s": _median(scaled.get("census_s", [])),
        "probe_s": _median(scaled.get("probe_s", [])),
    }
    print(f"reference kernel: median {statistics.median(calibration.cpu):.5f} s CPU, "
          f"{statistics.median(calibration.wall):.5f} s wall over {len(calibration.cpu)} "
          f"timings; metrics are scaled to a kernel time of {REF_NOMINAL_S} s")
    print("timings in seconds (median, the highest percentile with ten or more "
          "samples beyond it, count):")
    _print_samples(scaled, rec.samples)
    print(f"  setup_s (wall, unscaled): median {_median(setup):.6g} (n={len(setup)}): "
          + ", ".join(f"{t:.4f}" for t in setup))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, rec


# -- traced run ----------------------------------------------------------------

PER_LAYER_UNITS = {
    "jouanolou.closed_form_sing.calls": "count",
    "jouanolou.closed_form_sing.s": "s",
    "solver.track_one.calls": "count",
    "solver.track_one.s": "s",
    "jouanolou.family_field.calls": "count",
    "jouanolou.family_field.s": "s",
    "cpoly.eval_field.calls": "count",
    "cpoly.eval_field.s": "s",
    "cpoly.jacobian.calls": "count",
    "cpoly.jacobian.s": "s",
    "solver.newton_refine.calls": "count",
    "solver.newton_refine.self_s": "s",
    "solver.track_singularities.s": "s",
    "solver.newton_iters": "count",
    "solver.max_residual": "1",
    "solver.stages_per_zero": "ratio",
    "solver.evals_per_step": "ratio",
    "solver.closed_form_share.4-3": "ratio",
    "solver.closed_form_share.5-3": "ratio",
    "solver.collision_matrix.bytes": "B",
    "spectral.char_poly_direct.s": "s",
    "spectral.eigenvalues.calls": "count",
    "spectral.eigenvalues.s": "s",
    "spectral.classify.s": "s",
    "spectral.small_divisor_scan.s": "s",
    "spectral.small_divisor_scan.candidates": "count",
    "spectral.small_divisor_scan.bytes": "B",
    "genericity.alignment_census.s": "s",
    "genericity.alignment_census.pairs": "count",
    "genericity.hyperplane_set.s": "s",
    "genericity.defect_experiment.s": "s",
    "genericity.defect_experiment.expected_track_one": "count",
    "genericity.submersion_all.s": "s",
    "genericity.submersion_all.expected_track_one": "count",
    "genericity.genericity_sample.s": "s",
    "genericity.pool_efficiency": "ratio",
    "cli.run.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
# Computed from input sizes rather than measured.
COMPUTED = ("solver.collision_matrix.bytes", "spectral.small_divisor_scan.candidates",
            "spectral.small_divisor_scan.bytes", "genericity.alignment_census.pairs",
            "genericity.defect_experiment.expected_track_one",
            "genericity.submersion_all.expected_track_one")


def _traced_pass(wl, args, size, tracer=None):
    """The fixed plan; returns its record and its calibrated in-process seconds."""
    import foliationlab
    from calibrate import Calibration

    rec = wl.Record(tracer=tracer, calibration=Calibration(), corrupt=args.corrupt)
    plan = Plan(wl, args.workload, args.seed, size, rec)
    if tracer is not None:
        tracer.install(foliationlab)
    try:
        plan.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec.calibration.tick()
    cpu_timed = [sum(v) for name, v in rec.scaled().items() if "wall" not in name]
    return rec, sum(cpu_timed)


def per_layer(wl, args, size):
    from spans import Tracer

    wl.warm_up()
    plain, plain_s = _traced_pass(wl, args, size)
    tracer = Tracer()
    traced, traced_s = _traced_pass(wl, args, size, tracer)
    mismatched = [(a, b) for a, b in zip(plain.digests, traced.digests) if a != b]
    if len(plain.digests) != len(traced.digests) or mismatched:
        traced.failures.append(f"traced outputs differ from untraced: {mismatched[:3]}")

    table = tracer.layer_table()

    def layer(name, key="s"):
        return table.get(name, {}).get(key, 0)

    def share(rung):
        total = tracer.time_in_items("solver.track_singularities", f"member/{rung}")
        part = tracer.time_in_items("jouanolou.closed_form_sing", f"member/{rung}")
        return part / total if total else None

    candidates, scan_bytes = tracer.scan_counts()
    serial_s = _median(plain.samples["sample_wall_s.jobs1"])
    parallel_s = _median(plain.samples["sample_wall_s.jobs2"])
    overhead = (tracer.durations("cli.run")
                - tracer.child_time("genericity.genericity_sample", "cli.run"))
    metrics = {
        **{f"{fn}.{key}": layer(fn, key) for fn in (
            "jouanolou.closed_form_sing", "solver.track_one", "jouanolou.family_field",
            "cpoly.eval_field", "cpoly.jacobian") for key in ("calls", "s")},
        "solver.newton_refine.calls": layer("solver.newton_refine", "calls"),
        "solver.newton_refine.self_s": layer("solver.newton_refine", "self_s"),
        "solver.track_singularities.s": layer("solver.track_singularities"),
        "solver.newton_iters": tracer.newton_iters,
        "solver.max_residual": tracer.max_residual,
        "solver.stages_per_zero": (layer("solver.newton_refine", "calls")
                                   / layer("solver.track_one", "calls")),
        "solver.evals_per_step": (tracer.calls_under("cpoly.eval_field", "solver.newton_refine")
                                  / tracer.newton_iters),
        "solver.closed_form_share.4-3": share("4-3"),
        "solver.closed_form_share.5-3": share("5-3"),
        "solver.collision_matrix.bytes": tracer.collision_bytes,
        "spectral.char_poly_direct.s": layer("spectral.char_poly_direct"),
        "spectral.eigenvalues.calls": layer("spectral.eigenvalues", "calls"),
        "spectral.eigenvalues.s": layer("spectral.eigenvalues"),
        "spectral.classify.s": layer("spectral.classify"),
        "spectral.small_divisor_scan.s": layer("spectral.small_divisor_scan"),
        "spectral.small_divisor_scan.candidates": candidates,
        "spectral.small_divisor_scan.bytes": scan_bytes,
        "genericity.alignment_census.s": layer("genericity.alignment_census"),
        "genericity.alignment_census.pairs": tracer.census_pairs,
        "genericity.hyperplane_set.s": layer("genericity.hyperplane_set"),
        "genericity.defect_experiment.s": layer("genericity.defect_experiment"),
        "genericity.defect_experiment.expected_track_one": tracer.defect_expected,
        "genericity.submersion_all.s": layer("genericity.submersion_all"),
        "genericity.submersion_all.expected_track_one": tracer.submersion_expected,
        "genericity.genericity_sample.s": layer("genericity.genericity_sample"),
        "genericity.pool_efficiency": serial_s / (2 * parallel_s),
        "cli.run.overhead_s": statistics.median(overhead),
        "trace.overhead_frac": traced_s / plain_s - 1,
    }
    print(f"items of the plan: {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
          f"(in-process, calibrated), "
          f"{len(tracer.name)} spans, outputs bitwise equal: {not mismatched}")
    print("per layer (calls, inclusive s, self s):")
    for name, row in sorted(table.items()):
        print(f"  {name}: {row['calls']} calls, {row['s']:.4f} s, self {row['self_s']:.4f} s")
    for parent in ("genericity.defect_experiment", "genericity.submersion_all"):
        print(f"  solver.track_one calls under {parent}: "
              f"{tracer.calls_under('solver.track_one', parent)}")
    print("computed, not measured: " + ", ".join(COMPUTED))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "foliationlab" / "__init__.py").is_file():
        print(f"error: no foliationlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    size = wl.FULL if args.size == "full" else wl.TINY
    env = environment()
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, size {args.size}")
    metrics, rec = (per_layer if args.trace else end_to_end)(wl, args, size)
    for failure in rec.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {"correct": not rec.failures, "attempted": rec.attempted,
              "failed": len(rec.failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "args": vars(args), "failures": rec.failures,
              "samples": rec.samples, **result}
    if rec.calibration is not None:
        record["kernel"] = vars(rec.calibration)
        record["spans"] = rec.spans
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
