"""Newton refinement and continuation of the family's zeros.

The zeros of the base field are continued to perturbed members as one
batch: an (R, n) array of rows, one per (member, zero) pair, started from
the closed-form zeros and refined together by damped Newton iteration,
with the parameter ramped in continuation steps.  A member differs from
the base field only by its constant term alpha, and the Jacobian does not
see it, so the base field is built once per call and each row's value is
the base field's sum started from its member's ramped alpha.  Per-row
masks decide which rows take the polishing step, how often each row's
step is halved and when each row stops, so every row does exactly the
arithmetic of a one-point refinement on its member's own field.  Only the
rows that fail are run again, across members as one batch, with the step
count escalated.  The rows stay arrays; only ``newton_refine``,
``track_zeros`` and ``track_singularities`` make ``SingularPoint``s of
them.  The perturbation is kept inside a small polydisk (RunConfig.radius)
where the N zeros stay simple and separated; a collision of tracked zeros
is reported as the parameter leaving that polydisk rather than as a
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

from .cpoly import PolyVectorField, _evaluate, eval_field, jacobian
from .errors import CollisionError, ConvergenceError, InputError
from .jouanolou import (
    FoliationParams,
    SingularPoint,
    _check_int,
    _check_positive,
    _geom,
    _points,
    closed_form_coords,
    counts,
    family_field,
    jouanolou_field,
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
                     "tol_hyp", "tol_nd", "align_tol", "delta"):
            _check_positive(name, getattr(self, name))
        for name, low in (("max_iters", 1), ("seed", 0), ("max_order", 2),
                          ("continuation_steps", 1), ("samples", 1)):
            _check_int(name, getattr(self, name))
            if getattr(self, name) < low:
                raise InputError(f"{name} must be at least {low}")


def _newton_rows(
    field: PolyVectorField, x0: np.ndarray, cfg: RunConfig, const=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton iteration on every row of an (R, n) stack of start points.

    With `const`, an (R, n) array, row r refines a zero of the field plus
    the constant const[r]: its sum starts from const[r], and its Jacobian
    is the field's.  Row r takes exactly the steps a one-point run from
    x0[r] would take: each row has its own polishing flag, step length,
    halving count and stop, and the Jacobian systems are solved as one
    stack.  A stacked solve fails as a whole when any matrix is singular;
    the rows whose determinant sign (np.linalg.slogdet) is 0 then stop on
    "singular jacobian", and the others are solved again as one stack.
    Returns the rows' end points (R, n), residuals, Newton iteration counts
    and notes; a note of "" marks a converged row.
    """

    def value(rows, x):
        return eval_field(field, x) if const is None else _evaluate(field, x, 0, field.n, const[rows])

    x = np.array(x0, dtype=complex)
    fx = value(slice(None), x)
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
            # slogdet runs solve's LU on the same matrix: sign 0 is its exact zero pivot
            regular = np.linalg.slogdet(jac)[0] != 0
            singular[rows[~regular]] = True
            live &= ~singular
            rows = rows[regular]
            step = np.linalg.solve(jac[regular], fx[rows, :, None])[..., 0]
        pending = np.ones(len(rows), dtype=bool)
        k = np.arange(len(rows))  # the rows still halving, all at the same step length t
        for t in 0.5 ** np.arange(21):  # up to 20 halvings
            xk = x[rows[k]]
            cand = xk - t * step[k]
            # once x - t step rounds to x, so does every smaller t, and x never
            # lowers its own residual: the row stays pending without more evaluations
            moved = (cand != xk).any(axis=1)
            k, cand = k[moved], cand[moved]
            if not len(k):
                break
            fc = value(rows[k], cand)
            rc = np.max(np.abs(fc), axis=1)
            ok = rc < res[rows[k]]
            better = rows[k[ok]]
            x[better], fx[better], res[better] = cand[ok], fc[ok], rc[ok]
            pending[k[ok]] = False
            k = k[~ok]
        live[rows[pending]] = False
        iters[rows[~pending]] += 1
    notes = np.where(res < cfg.newton_tol, "",
                     np.where(singular, "singular jacobian", "newton stalled above tolerance"))
    return x, res, iters, notes


def newton_refine(
    field: PolyVectorField, x0, cfg: RunConfig, m: int = 0
) -> SingularPoint:
    """Damped Newton iteration toward a zero of the field.

    Full steps are halved (up to 20 times) whenever the residual fails to
    decrease, and no further once x - t step rounds to x, which cannot
    lower the residual.  Once the residual passes newton_tol one extra
    improving step is taken if available, which polishes the iterate well
    below the tolerance and makes downstream closed-form comparisons
    insensitive to the stopping point.  Non-convergence and singular Jacobians are
    reported through the converged flag, not raised.
    """
    x = np.asarray(x0, dtype=complex)
    if x.shape != (field.n,):
        raise InputError(f"start point has shape {x.shape}, expected ({field.n},)")
    return _points([m], *_newton_rows(field, x[None, :], cfg))[0]


def _check_indices(n: int, d: int, ms) -> int:
    """N at (n, d), after checking that ms is a non-empty sequence of integer
    indices of the N zeros in [1, N] (bool refused)."""
    big_n = counts(n, d).N
    try:
        size = len(ms)
    except TypeError:  # a scalar, or an iterator that cannot be indexed
        raise InputError(f"zero indices must be a sequence, got {ms!r}") from None
    if not size:
        raise InputError("no zero index given")
    for m in ms:
        _check_int("index m", m)
        if not 1 <= m <= big_n:
            raise InputError(f"index m must lie in [1, {big_n}], got {m}")
    return big_n


def _continue(n: int, d: int, alphas: np.ndarray, ms: list[int], cfg: RunConfig,
              base: PolyVectorField | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Continue the unperturbed zeros of indices ms to every member base + alphas[s].

    Returns the zeros (S, count, n) in the order of ms, their residuals and
    Newton iteration counts (S, count), and {s: ConvergenceError} for the
    members that fail; a member outside the polydisk, then a bad ms, raises
    InputError first.  The rows are the (member, index) pairs, refined as
    one batch.  The parameter is ramped linearly in continuation steps: at
    stage k of `steps` every row still converging is refined from its
    previous stage's zero, on the base field plus its member's
    alpha * (k / steps), so the field is built at most once per call, and
    not at all when the caller passes it in as `base`.  A call with
    one row refines each stage through the public ``newton_refine`` on the
    stage's ``family_field``, so wrappers around it see every one-point
    refinement.  The rows that fail are run again from their start points,
    as one batch across members, with the step count escalated by a factor
    of 4 (at most to 64); then a member's error names its smallest failing
    index.  An alpha = 0 member takes the closed-form zeros, no iteration.
    """
    _check_radius(alphas, cfg)
    _check_indices(n, d, ms)
    count = len(ms)
    index = np.tile(np.asarray(ms) - 1, len(alphas))  # row r is member r // count, zero index[r]
    start = closed_form_coords(n, d)
    perturbed = np.repeat(alphas.any(axis=1), count)
    todo, closed = np.flatnonzero(perturbed), np.flatnonzero(~perturbed)
    one_row = len(todo) == 1 and not len(closed)
    if base is None and not one_row:
        base = jouanolou_field(n, d)
    x, res, iters = start[index], np.zeros(len(index)), np.zeros(len(index), dtype=int)
    if len(closed):
        res[closed] = np.max(np.abs(eval_field(base, start[index[closed]])), axis=1)
    errors = {}
    steps = cfg.continuation_steps
    while len(todo):
        active = todo
        xs = start[index[active]]
        failed = {}  # row: note
        for stage in range(1, steps + 1):
            if one_row:
                field = family_field(FoliationParams(n, d, tuple(alphas[0] * (stage / steps))))
                p = newton_refine(field, xs[0], cfg, m=ms[0])
                xs, r, k, note = (np.array([v]) for v in (p.coords, p.residual, p.newton_iters, p.note))
            else:
                xs, r, k, note = _newton_rows(base, xs, cfg, alphas[active // count] * (stage / steps))
            ok = note == ""
            failed.update(zip(active[~ok].tolist(), note[~ok].tolist()))
            active, xs = active[ok], xs[ok]
            if not len(active):
                break
        x[active], res[active], iters[active] = xs, r[ok], k[ok]  # converged at every stage
        if not failed:
            break
        if steps * 4 > 64:
            for row, note in sorted(failed.items(), key=lambda f: (f[0] // count, ms[f[0] % count])):
                errors.setdefault(row // count, ConvergenceError(
                    f"tracking failed for index m={ms[row % count]} at steps={steps}: {note}"))
            break
        todo = np.array(sorted(failed))
        steps *= 4
    return x.reshape(len(alphas), count, n), res.reshape(-1, count), iters.reshape(-1, count), errors


def _check_radius(alphas: np.ndarray, cfg: RunConfig) -> None:
    """Refuse the first member of an (S, n) alpha stack outside the polydisk."""
    sizes = np.hypot(alphas.real, alphas.imag).max(axis=1)  # bitwise abs(complex); np.abs is not
    outside = np.flatnonzero(sizes > cfg.radius)
    if len(outside):
        raise InputError(f"perturbation size {sizes[outside[0]]:.3g} exceeds "
                         f"the tracked polydisk radius {cfg.radius:.3g}")


def track_one(params: FoliationParams, m: int, cfg: RunConfig) -> SingularPoint:
    """Continue the m-th unperturbed zero to the perturbed member: ``track_zeros``
    on [m], so the result is bitwise the m-th entry of ``track_singularities``.

    On failure the step count escalates by factors of 4 (at most to 64)
    before a ConvergenceError naming the index is raised.
    """
    return track_zeros(params, [m], cfg)[0]


def track_zeros(params: FoliationParams, ms, cfg: RunConfig) -> list[SingularPoint]:
    """Continue the unperturbed zeros of indices ms to the member as one batch.

    Entry r is bitwise ``track_one(params, ms[r], cfg)``, for ms in any
    order.  Only the rows that fail are run again with the step count
    escalated; a ConvergenceError names the smallest failing index.  No
    collision scan is made.  An alpha outside the polydisk, an empty ms,
    or an index that is not an integer in [1, N] raises InputError.
    """
    x, res, iters, errors = _continue(params.n, params.d, np.array([params.alpha]), ms, cfg)
    if errors:
        raise errors[0]
    return _points([int(m) for m in ms], x[0], res[0], iters[0], np.full(len(ms), ""))


def _closest_pair(coords: np.ndarray, tol: float) -> list[tuple[int, int, float]]:
    """For each member of an (S, N, n) stack of zeros, (a, b, dist) of its
    closest pair in the sup-norm, the first in row-major order at ties, if
    dist <= tol; else (0, 0, inf).  An exact sort-and-sweep (Shamos and Hoey
    1975): with the rows sorted by Re x_1, the pairs k = 1, 2, ... places
    apart whose keys lie within tol are measured, up to the first k with none.

    The computed |Re(x_a1 - x_b1)| is at most the computed |x_a1 - x_b1|
    (hypot never rounds below a float that bounds it), so at most the computed
    sup-norm distance: the window drops no pair the distance test accepts.
    Rounded differences of sorted keys do not decrease with k, so a row that
    leaves the window at some k stays out, and stopping is safe.
    """
    order = np.argsort(coords[:, :, 0].real, axis=1, kind="stable")
    keys = np.take_along_axis(coords[:, :, 0].real, order, axis=1)
    best = np.tile([np.inf, 0, 0], (len(coords), 1))  # each member's (dist, a, b)
    k, (s, i) = 1, np.nonzero(np.diff(keys, axis=1) <= tol)  # member s, sorted rows i, i + k
    while len(s):
        a, b = np.sort([order[s, i], order[s, i + k]], axis=0)
        dist = np.max(np.abs(coords[s, a] - coords[s, b]), axis=1)
        # each member's best pair so far and its pairs in this window, least first
        owner = np.r_[np.arange(len(best)), s]
        pairs = np.r_[best, np.c_[dist, a, b]]
        least = np.lexsort((pairs[:, 2], pairs[:, 1], pairs[:, 0], owner))
        best = pairs[least[np.searchsorted(owner[least], np.arange(len(best)))]]
        k += 1  # the rows of this window are the only ones that can open the next
        j = np.flatnonzero(i + k < keys.shape[1])
        j = j[keys[s[j], i[j] + k] - keys[s[j], i[j]] <= tol]
        s, i = s[j], i[j]
    return [(int(a), int(b), dist) if dist <= tol else (0, 0, np.inf) for dist, a, b in best.tolist()]


def _track_members(n: int, d: int, alphas: np.ndarray,
                   cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """``track_singularities`` of the members base + alphas[s] of one (n, d),
    an (S, n) stack, tracked as one batch with one stacked collision scan.

    Returns ``_continue``'s arrays over the indices 1..N and {s: the
    ConvergenceError or CollisionError that ``track_singularities`` raises
    for member s}; a member outside the polydisk raises InputError for the
    whole call, naming its size.
    """
    x, res, iters, errors = _continue(n, d, alphas, list(range(1, counts(n, d).N + 1)), cfg)
    tracked = [s for s in range(len(alphas)) if s not in errors]
    for s, (a, b, dist) in zip(tracked, _closest_pair(x[tracked], cfg.dedup_tol)):
        if dist <= cfg.dedup_tol:
            errors[s] = CollisionError(
                f"tracked zeros m={a + 1} and m={b + 1} merged "
                f"(separation {dist:.3e}); the perturbation left the safe polydisk"
            )
    return x, res, iters, errors


def track_singularities(params: FoliationParams, cfg: RunConfig) -> list[SingularPoint]:
    """Track all N zeros of a family member, sorted by index m: ``track_zeros``
    over 1..N, then a scan for colliding zeros (``_track_members`` on one member).

    Raises ConvergenceError when an index fails to continue (naming the
    smallest such index) and CollisionError when two tracked zeros come
    within dedup_tol of each other (the parameter left the polydisk where
    zeros stay simple).
    """
    x, res, iters, errors = _track_members(params.n, params.d, np.array([params.alpha]), cfg)
    if errors:
        raise errors[0]
    return _points(range(1, len(x[0]) + 1), x[0], res[0], iters[0], np.full(len(x[0]), ""))


def first_order_point(n: int, d: int, m: int, alpha) -> np.ndarray:
    """First-order expansion of the m-th tracked zero in the perturbation.

    At alpha = 0 the result is bitwise the closed-form point.  The first
    coordinate's linear response comes from differentiating its implicit
    level-set relation (coefficients d^(j-1)/N); the other coordinates
    evaluate the displayed expansion at that corrected first coordinate,
    keeping the remainder quadratic in the perturbation.  All root-of-unity
    exponents are exact integers reduced mod N.
    """
    alpha = FoliationParams(n, d, alpha).alpha
    big_n = _check_indices(n, d, [m])
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
