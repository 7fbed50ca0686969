"""Benchmark items: seeded inputs, one timed item at a time, output checks.

member   one perturbed member at a rung (2,2) .. (5,3): tracking plus spectra at all N zeros
census   alignment census at (5,3) and (7,2), then the hyperplane set at (5,2)
probe    defect slopes on two rays at n=5, then submersion certificates at (3,2)
sample   ``foliationlab sample --n 3 --d 2`` through ``cli.run``, at --jobs 1 or 2

Timings are CPU seconds of this process (``time.process_time``) for work
that runs in it.  The work is single-threaded, with BLAS pinned to one
thread, so CPU time equals wall time on an idle core; it leaves out time
the process spends waiting for a core on a shared machine.  The
``--jobs 2`` sample path runs in worker processes and is timed by the wall
clock.

Every item calls the library through module attributes looked up at call
time (``solver.track_singularities``, ``genericity.alignment_census``, ...),
so a traced pass sees the same calls through the tracer's wrappers.  Checks
run outside the timed region and use function objects bound at import time,
so they are never traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from foliationlab import cli, cpoly, genericity, jouanolou, solver, spectral
from foliationlab.errors import VerificationError

CFG = solver.RunConfig()
MU_GRID = (1e-2, 3e-3, 1e-3, 3e-4)
SAMPLE_ARGS = ("--n", "3", "--d", "2", "--max-order", "6", "--radius", "0.05")

# Oracles and helpers for the checks, bound before any tracer is installed.
_eval_field = cpoly.eval_field
_char_poly_closed = spectral.char_poly_closed
_counts = jouanolou.counts
_base_pattern = genericity.base_pattern_indices


@dataclass(frozen=True)
class Size:
    """Problem sizes of the items: ladder rungs (n, d), draws per sample call,
    census pairs, the hyperplane pair, the defect pair and the submersion pair."""

    rungs: tuple[tuple[int, int], ...]
    draws: int
    census: tuple[tuple[int, int], ...]
    hyperplanes: tuple[int, int]
    defect: tuple[int, int]
    submersion: tuple[int, int]


FULL = Size(rungs=((2, 2), (3, 2), (3, 3), (4, 3), (5, 3)), draws=40,
            census=((5, 3), (7, 2)), hyperplanes=(5, 2), defect=(5, 2), submersion=(3, 2))
# Smoke-test size: the three cheap rungs only.
TINY = Size(rungs=((2, 2), (3, 2), (3, 3)), draws=4,
            census=((3, 2), (3, 3)), hyperplanes=(3, 2), defect=(5, 2), submersion=(2, 2))


@dataclass
class Record:
    """Timings in seconds, check failures and output digests of one pass.

    With a calibration, the reference kernel is timed just before each item,
    and `spans` holds the wall-clock start and end of the item of every sample.
    """

    tracer: object = None
    calibration: object = None
    samples: dict[str, list[float]] = field(default_factory=dict)
    spans: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    corrupt: bool = False
    _start: float = 0.0

    def begin(self, label: str) -> None:
        if self.calibration is not None:
            self.calibration.tick()
        if self.tracer is not None:
            self.tracer.begin_item(label)
        self._start = time.perf_counter()

    def add(self, label: str, timings: dict[str, float], problems: list[str], digest: str) -> None:
        self.attempted += 1
        span = (self._start, time.perf_counter())
        for name, seconds in timings.items():
            self.samples.setdefault(name, []).append(seconds)
            self.spans.setdefault(name, []).append(span)
        self.digests.append(f"{label}:{digest}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def fail(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.digests.append(f"{label}:raised")
        self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")

    def scaled(self) -> dict[str, list[float]]:
        """Samples rescaled by the kernel timings around them; the wall-clock
        samples by wall-clock kernel times, the rest by CPU times."""
        cal = self.calibration
        return {name: [cal.scale(v, *span, "wall" if "wall" in name else "cpu")
                       for v, span in zip(values, self.spans[name])]
                for name, values in self.samples.items()}


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _polydisk(rng, n: int, radius: float) -> tuple[complex, ...]:
    mod = radius * np.sqrt(rng.uniform(size=n))
    arg = rng.uniform(0, 2 * np.pi, size=n)
    return tuple(complex(v) for v in mod * np.exp(1j * arg))


# -- members ----------------------------------------------------------------

def _check_member(n, d, points, reports) -> list[str]:
    problems = []
    for p, rep in zip(points, reports):
        coords = np.asarray(p.coords)
        if not p.converged:
            problems.append(f"m={p.m} not converged")
            continue
        try:
            sigma_closed = _char_poly_closed(n, d, coords)
        except VerificationError as exc:
            problems.append(f"m={p.m} closed coefficient routes disagree: {exc}")
            continue
        gap = float(np.max(np.abs(rep.sigma - sigma_closed)))
        if gap > 1e-10:
            problems.append(f"m={p.m} direct vs closed coefficients differ by {gap:.2e}")
        trace_gap = abs(complex(np.sum(rep.eigenvalues)) + complex(rep.sigma[0]))
        if trace_gap > 1e-9 * max(1.0, abs(rep.sigma[0])):
            problems.append(f"m={p.m} eigenvalue sum misses -sigma_1 by {trace_gap:.2e}")
    return problems


def _member_residuals(field_, points) -> float:
    return max(float(np.max(np.abs(_eval_field(field_, p.coords)))) for p in points)


def member_item(rng, n: int, d: int, rec: Record) -> None:
    """Solve one perturbed member: all N zeros tracked, spectra at each."""
    label = f"member/{n}-{d}"
    alpha = _polydisk(rng, n, CFG.radius)
    rec.begin(label)
    try:
        t0 = time.process_time()
        params = jouanolou.FoliationParams(n, d, alpha)
        points = solver.track_singularities(params, CFG)
        field_ = jouanolou.family_field(params)
        reports = [spectral.spectrum_report(field_, p, CFG) for p in points]
        elapsed = time.process_time() - t0
    except Exception as exc:  # a failed member is counted, the run goes on
        rec.fail(label, exc)
        return
    if rec.corrupt:
        shifted = tuple(c + 1e-6 for c in points[0].coords)
        points[0] = jouanolou.SingularPoint(points[0].m, shifted, points[0].residual,
                                            points[0].converged, points[0].newton_iters)
    problems = _check_member(n, d, points, reports)
    worst = _member_residuals(field_, points)
    if worst >= CFG.newton_tol:
        problems.append(f"field residual {worst:.2e} at a tracked zero")
    digest = _hash(np.array([p.coords for p in points]).tobytes(),
                   [(p.residual, p.newton_iters) for p in points],
                   *[(r.sigma.tobytes(), r.eigenvalues.tobytes(), r.classification,
                      r.divisor) for r in reports])
    rec.add(label, {f"member_s.{n}-{d}": elapsed}, problems, digest)


# -- sample ------------------------------------------------------------------

def sample_item(seed: int, jobs: int, draws: int, rec: Record, expect: str | None = None) -> str:
    """One ``foliationlab sample`` call; returns its stdout.

    With `expect`, the output must equal it byte for byte (the same seed at
    another worker count).
    """
    label = f"sample/jobs{jobs}"
    argv = ["sample", *SAMPLE_ARGS, "--seed", str(seed), "--jobs", str(jobs),
            "--samples", str(draws)]
    out = io.StringIO()
    rec.begin(label)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    except Exception as exc:
        rec.fail(label, exc)
        return ""
    text = out.getvalue()
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        stats = json.loads(text)["payload"]
        # criterion 09 bounds
        if stats["n_failed"] or stats["frac_all_hyperbolic"] < 0.99 \
                or stats["frac_any_resonant"] > 0.01:
            problems.append(f"criterion 09 bounds missed: failed {stats['n_failed']}, "
                            f"hyperbolic {stats['frac_all_hyperbolic']}, "
                            f"resonant {stats['frac_any_resonant']}")
    if expect is not None and text != expect:
        problems.append("output differs from the same seed at another worker count")
    timings = {f"sample_wall_s.jobs{jobs}": wall}
    if jobs == 1:
        timings["sample_cpu_s.jobs1"] = cpu
    rec.add(label, timings, problems, _hash(text))
    return text


# -- census and probe -------------------------------------------------------

def _is_translate(indices, base, big_n) -> bool:
    target = set(indices)
    for m in indices:
        k = (m - base[0]) % big_n
        if {((b - 1 + k) % big_n) + 1 for b in base} == target:
            return True
    return False


def _rays(rng, n: int, d: int):
    """An off-hyperplane ray and a mixed-parity on-hyperplane ray, max-norm 1."""
    normal = np.zeros(n)
    for two_k in range(2, n, 2):
        normal[two_k - 1] = float(d) ** (two_k - 1)
    unit = normal / np.linalg.norm(normal)
    while True:
        nu = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu /= np.max(np.abs(nu))
        if np.arcsin(min(1.0, abs(unit @ nu) / np.linalg.norm(nu))) > 0.1:
            off = nu
            break
    while True:
        nu = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu = nu - unit * (unit @ nu)
        nu /= np.max(np.abs(nu))
        if np.min(np.abs(nu[0::2])) > 0.2:      # every odd slot populated
            on = nu
            break
    return tuple(off), tuple(on)


def census_item(size: Size, rec: Record) -> None:
    """Alignment census on closed-form zeros, then the hyperplane set."""
    label = "census"
    rec.begin(label)
    try:
        zeros = [jouanolou.closed_form_sing(n, d) for n, d in size.census]
        t0 = time.process_time()
        censuses = [genericity.alignment_census(pts, d, CFG)
                    for pts, (_, d) in zip(zeros, size.census)]
        planes = genericity.hyperplane_set(*size.hyperplanes)
        elapsed = time.process_time() - t0
    except Exception as exc:
        rec.fail(label, exc)
        return
    problems = []
    for (n, d), records in zip(size.census, censuses):
        c = _counts(n, d)
        base = _base_pattern(n, d)
        if len(records) != c.K:
            problems.append(f"({n},{d}) census has {len(records)} records, expected {c.K}")
        bad = [r.indices for r in records if not _is_translate(r.indices, base, c.N)]
        if bad:
            problems.append(f"({n},{d}) records not translates of the base pattern: {bad[:3]}")
    if len(planes.images) != _counts(*size.hyperplanes).K:
        problems.append(f"{len(planes.images)} hyperplane images")
    digest = _hash([(r.indices, r.line_point.tobytes(), r.line_dir.tobytes(), r.residual)
                    for records in censuses for r in records],
                   [v.tobytes() for v in planes.images], planes.element_powers)
    rec.add(label, {"census_s": elapsed}, problems, digest)


def probe_item(rng, size: Size, rec: Record) -> None:
    """Defect slopes on an off-hyperplane and a mixed-parity on-hyperplane
    ray, then submersion certificates at every zero."""
    label = "probe"
    nu_off, nu_on = _rays(rng, *size.defect)
    n, d = size.defect
    rec.begin(label)
    try:
        t0 = time.process_time()
        off = genericity.defect_experiment(n, d, nu_off, MU_GRID, CFG)
        on = genericity.defect_experiment(n, d, nu_on, MU_GRID, CFG)
        subs = genericity.submersion_all(*size.submersion, CFG)
        elapsed = time.process_time() - t0
    except Exception as exc:
        rec.fail(label, exc)
        return
    problems = []
    if not 0.8 <= off.slope <= 1.2:
        problems.append(f"off-hyperplane slope {off.slope:.3f} outside [0.8, 1.2]")
    if not 1.8 <= on.slope <= 2.2:
        problems.append(f"mixed-parity on-hyperplane slope {on.slope:.3f} outside [1.8, 2.2]")
    worst = max(r.rel_error for r in subs)
    if worst >= 1e-4:
        problems.append(f"submersion relative error {worst:.2e}")
    digest = _hash(off.defects, off.slope, on.defects, on.slope,
                   [(r.jac.tobytes(), r.det) for r in subs])
    rec.add(label, {"probe_s": elapsed}, problems, digest)


# -- warm-up items: the smallest instance of each kind -----------------------

def warm_up() -> None:
    """Pay every first-call cost (lazy imports, caches, the first pool) on
    the smallest instance of every item kind."""
    rec = Record()
    rng = np.random.default_rng(0)
    small = Size(((2, 2),), 2, ((3, 2),), (3, 2), (5, 2), (2, 2))
    member_item(rng, 2, 2, rec)
    census_item(small, rec)
    probe_item(rng, small, rec)
    for jobs in (1, 2):
        sample_item(1, jobs, small.draws, rec)
    if rec.failures:
        raise RuntimeError("warm-up item failed: " + "; ".join(rec.failures))
