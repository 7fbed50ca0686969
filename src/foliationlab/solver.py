"""Newton refinement and continuation of the family's zeros.

The zeros of the base field are continued to a perturbed member as one
batch: an (R, n) array of rows started from the closed-form zeros and
refined together by damped Newton iteration, with the parameter ramped in
continuation steps.  Per-row masks decide which rows take the polishing
step, how often each row's step is halved and when each row stops, so
every row does exactly the arithmetic of a one-point refinement.  Only
the rows that fail are run again with the step count escalated.  The
perturbation is kept inside a small polydisk (RunConfig.radius) where the
N zeros stay simple and separated; a collision of tracked zeros is
reported as the parameter leaving that polydisk rather than as a
numerical failure.

``first_order_point`` evaluates the closed first-order expansion of a
tracked zero.  The first coordinate is an implicit unknown of its own
level-set relation, so its linear term carries an extra 1/N; substituting
the unperturbed coordinate naively would lose that factor and degrade the
remainder from quadratic to linear in the perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpoly import PolyVectorField, eval_field, jacobian
from .errors import CollisionError, ConvergenceError, InputError
from .jouanolou import (
    FoliationParams,
    SingularPoint,
    _geom,
    closed_form_coords,
    closed_form_sing,
    counts,
    family_field,
    unit_roots,
)


@dataclass(frozen=True)
class RunConfig:
    """Numerical knobs shared across the laboratory.

    newton_tol / max_iters     damped Newton stopping rule
    continuation_steps         parameter ramp subdivisions (escalated x4 on failure)
    dedup_tol                  minimum separation between distinct tracked zeros
    radius                     polydisk radius for admissible perturbations
    fd_step                    finite-difference step for parameter derivatives
    tol_hyp / tol_nd           spectral classification thresholds
    align_tol                  distance-to-line threshold for the alignment census
    delta / max_order          small-divisor exponent and truncation order
    seed / samples             Monte Carlo sampling controls
    """

    newton_tol: float = 1e-12
    max_iters: int = 50
    continuation_steps: int = 1
    dedup_tol: float = 1e-6
    radius: float = 0.05
    fd_step: float = 1e-5
    tol_hyp: float = 1e-9
    tol_nd: float = 1e-9
    align_tol: float = 1e-8
    delta: float = 1.0
    max_order: int = 8
    seed: int = 123456789
    samples: int = 1000

    def __post_init__(self):
        for name in ("newton_tol", "dedup_tol", "radius", "fd_step",
                     "tol_hyp", "tol_nd", "align_tol", "delta", "max_iters"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if self.max_order < 2:
            raise InputError("max_order must be at least 2")
        if self.continuation_steps < 1:
            raise InputError("continuation_steps must be at least 1")
        if self.samples < 1:
            raise InputError("samples must be at least 1")


# Most complex entries of one block of the pairwise-difference array that
# the collision check holds at a time (16 MB); rows are scanned in blocks.
COLLISION_BLOCK = 1 << 20


def _newton_rows(
    field: PolyVectorField, x0: np.ndarray, cfg: RunConfig, ms: list[int]
) -> list[SingularPoint]:
    """Damped Newton iteration on every row of an (R, n) stack of start points.

    Row r takes exactly the steps a one-point run from x0[r] would take:
    each row has its own polishing flag, step length, halving count and
    stop, and the Jacobian systems are solved as one stack.  A stacked
    solve fails as a whole when any matrix is singular; the rows are then
    solved one at a time to find which ones stop on "singular jacobian".
    """
    x = np.array(x0, dtype=complex)
    fx = eval_field(field, x)
    res = np.max(np.abs(fx), axis=1)
    iters = np.zeros(len(x), dtype=int)
    polished = np.zeros(len(x), dtype=bool)
    singular = np.zeros(len(x), dtype=bool)
    live = np.ones(len(x), dtype=bool)
    for _ in range(cfg.max_iters):
        below = res < cfg.newton_tol
        live &= ~(below & polished)
        polished |= below
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        jac = jacobian(field, x[rows])
        try:  # right-hand sides as (n, 1) matrices: a 2-D b would be read as one matrix
            step = np.linalg.solve(jac, fx[rows, :, None])[..., 0]
        except np.linalg.LinAlgError:
            steps = []
            for k, r in enumerate(rows):
                try:
                    steps.append(np.linalg.solve(jac[k], fx[r]))
                except np.linalg.LinAlgError:
                    singular[r] = True
            live &= ~singular
            rows = rows[~singular[rows]]
            step = np.array(steps).reshape(len(rows), field.n)
        t = np.ones(len(rows))
        pending = np.ones(len(rows), dtype=bool)
        for _ in range(21):
            k = np.flatnonzero(pending)
            if not len(k):
                break
            cand = x[rows[k]] - t[k, None] * step[k]
            fc = eval_field(field, cand)
            rc = np.max(np.abs(fc), axis=1)
            ok = rc < res[rows[k]]
            better = rows[k[ok]]
            x[better], fx[better], res[better] = cand[ok], fc[ok], rc[ok]
            pending[k[ok]] = False
            t[k[~ok]] *= 0.5
        live[rows[pending]] = False
        iters[rows[~pending]] += 1
    converged = res < cfg.newton_tol
    notes = np.where(converged, "",
                     np.where(singular, "singular jacobian", "newton stalled above tolerance"))
    return [
        SingularPoint(m=m, coords=tuple(x[r]), residual=float(res[r]),
                      converged=bool(converged[r]), newton_iters=int(iters[r]),
                      note=str(notes[r]))
        for r, m in enumerate(ms)
    ]


def newton_refine(
    field: PolyVectorField, x0, cfg: RunConfig, m: int = 0
) -> SingularPoint:
    """Damped Newton iteration toward a zero of the field.

    Full steps are halved (up to 20 times) whenever the residual fails to
    decrease.  Once the residual passes newton_tol one extra improving
    step is taken if available, which polishes the iterate well below the
    tolerance and makes downstream closed-form comparisons insensitive to
    the stopping point.  Non-convergence and singular Jacobians are
    reported through the converged flag, not raised.
    """
    x = np.asarray(x0, dtype=complex)
    if x.shape != (field.n,):
        raise InputError(f"start point has shape {x.shape}, expected ({field.n},)")
    return _newton_rows(field, x[None, :], cfg, [m])[0]


def _refine_one(
    field: PolyVectorField, x: np.ndarray, cfg: RunConfig, ms: list[int]
) -> list[SingularPoint]:
    """The one-row refine of ``track_one``: a single zero is refined through
    the public ``newton_refine``, so wrappers around it see every one-point
    refinement."""
    return [newton_refine(field, x[0], cfg, m=ms[0])]


def _check_radius(params: FoliationParams, cfg: RunConfig) -> None:
    size = max((abs(a) for a in params.alpha), default=0.0)
    if size > cfg.radius:
        raise InputError(
            f"perturbation size {size:.3g} exceeds the tracked polydisk radius {cfg.radius:.3g}"
        )


def _continue(
    params: FoliationParams, ms: list[int], cfg: RunConfig, refine
) -> list[SingularPoint]:
    """Continue the unperturbed zeros of indices ms to the member, in the order of ms.

    The parameter is ramped linearly in continuation steps; at each stage
    the field is built once and every row still converging is refined by
    ``refine(field, x, cfg, ms)`` from its previous stage's zero.  The rows
    that fail are run again from their start points with the step count
    escalated by a factor of 4 (at most to 64); then a ConvergenceError
    names the smallest failing index.
    """
    alpha = np.asarray(params.alpha, dtype=complex)
    if not np.any(alpha):
        base = closed_form_sing(params.n, params.d)
        return [base[m - 1] for m in ms]
    start = closed_form_coords(params.n, params.d)
    tracked = {}
    todo = ms
    steps = cfg.continuation_steps
    while True:
        x = start[np.array(todo) - 1]
        active = todo
        failed = []
        for stage in range(1, steps + 1):
            stage_params = FoliationParams(
                params.n, params.d, tuple(alpha * (stage / steps))
            )
            points = refine(family_field(stage_params), x, cfg, active)
            failed += [p for p in points if not p.converged]
            points = [p for p in points if p.converged]
            if not points:
                break
            active = [p.m for p in points]
            x = np.array([p.coords for p in points])
        tracked.update((p.m, p) for p in points)  # converged at every stage
        if not failed:
            return [tracked[m] for m in ms]
        if steps * 4 > 64:
            first = min(failed, key=lambda p: p.m)
            raise ConvergenceError(
                f"tracking failed for index m={first.m} at steps={steps}: {first.note}"
            )
        todo = sorted(p.m for p in failed)
        steps *= 4


def track_one(params: FoliationParams, m: int, cfg: RunConfig) -> SingularPoint:
    """Continue the m-th unperturbed zero to the perturbed member.

    The parameter is ramped linearly in continuation steps, refining at
    each stage from the previous stage's zero.  On failure the step count
    escalates by factors of 4 (at most to 64) before a ConvergenceError
    naming the index is raised.  The result is bitwise the m-th entry of
    ``track_singularities``.
    """
    _check_radius(params, cfg)
    big_n = counts(params.n, params.d).N
    if not 1 <= m <= big_n:
        raise InputError(f"index m must lie in [1, {big_n}], got {m}")
    return _continue(params, [m], cfg, _refine_one)[0]


def _closest_pair(coords: np.ndarray) -> tuple[int, int, float]:
    """Rows (a, b) of the closest pair in the sup-norm, and their distance.

    Ties go to the first pair in row-major order.  The pairwise
    differences are formed COLLISION_BLOCK entries at a time.
    """
    big_n, n = coords.shape
    block = max(1, COLLISION_BLOCK // (big_n * n))
    best = (0, 0, np.inf)
    for lo in range(0, big_n, block):
        diff = coords[lo:lo + block, None, :] - coords[None, :, :]
        dist = np.max(np.abs(diff), axis=2)
        own = np.arange(len(dist))
        dist[own, lo + own] = np.inf
        a, b = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[a, b] < best[2]:
            best = (lo + int(a), int(b), dist[a, b])
    return best


def track_singularities(params: FoliationParams, cfg: RunConfig) -> list[SingularPoint]:
    """Track all N zeros of a family member, sorted by index m.

    Raises ConvergenceError when an index fails to continue (naming the
    smallest such index) and CollisionError when two tracked zeros come
    within dedup_tol of each other (the parameter left the polydisk where
    zeros stay simple).
    """
    _check_radius(params, cfg)
    big_n = counts(params.n, params.d).N
    points = _continue(params, list(range(1, big_n + 1)), cfg, _newton_rows)
    a, b, dist = _closest_pair(np.array([p.coords for p in points]))
    if dist <= cfg.dedup_tol:
        raise CollisionError(
            f"tracked zeros m={points[a].m} and m={points[b].m} merged "
            f"(separation {dist:.3e}); the perturbation left the safe polydisk"
        )
    return points


def first_order_point(n: int, d: int, m: int, alpha) -> np.ndarray:
    """First-order expansion of the m-th tracked zero in the perturbation.

    At alpha = 0 the result is bitwise the closed-form point.  The first
    coordinate's linear response comes from differentiating its implicit
    level-set relation (coefficients d^(j-1)/N); the other coordinates
    evaluate the displayed expansion at that corrected first coordinate,
    keeping the remainder quadratic in the perturbation.  All root-of-unity
    exponents are exact integers reduced mod N.
    """
    big_n = counts(n, d).N
    if not 1 <= m <= big_n:
        raise InputError(f"index m must lie in [1, {big_n}], got {m}")
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != n:
        raise InputError(f"alpha has {len(alpha)} entries, expected {n}")
    table = unit_roots(big_n)

    def root(e: int) -> complex:
        return complex(table[e % big_n])

    # d x_1 / d alpha_j at 0: (d^(j-1) / N) * xi^(m * (-d - sum_{l=0}^{j-2} d^(n-l)))
    delta1 = 0j
    for j in range(1, n + 1):
        e_j = -d - sum(d ** (n - l) for l in range(j - 1))
        delta1 += alpha[j - 1] * (d ** (j - 1) / big_n) * root(m * e_j)

    out = np.zeros(n, dtype=complex)
    out[0] = root(m) + delta1
    for i in range(2, n + 1):
        e_i = -_geom(d, n + 1 - i)
        value = root(m * e_i) + e_i * root(m * (e_i - 1)) * delta1
        value += alpha[i - 1] * root(-m * d)
        for j in range(i + 1, n + 1):
            e_ij = -d - sum(d ** (n + 1 - i - l) for l in range(j - i))
            value += alpha[j - 1] * d ** (j - i) * root(m * e_ij)
        out[i - 1] = value
    return out
