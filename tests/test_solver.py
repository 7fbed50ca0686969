"""Newton refinement, continuation tracking, and the first-order predictor."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from foliationlab import solver
from foliationlab import (
    CollisionError,
    ConvergenceError,
    FoliationParams,
    InputError,
    PolyVectorField,
    RunConfig,
    closed_form_coords,
    closed_form_sing,
    coeff_derivative_table,
    counts,
    defect_experiment,
    eval_field,
    family_field,
    first_order_point,
    group_action,
    group_elements,
    jacobian,
    jouanolou_field,
    linear_diagonal_field,
    newton_refine,
    pushforward_factor,
    submersion_all,
    submersion_report,
    track_one,
    track_singularities,
    track_zeros,
)
from foliationlab.jouanolou import unit_roots

ROOT = Path(__file__).resolve().parents[1]
DESK = [(n, d) for n in (2, 3, 4) for d in (1, 2, 3)]
CFG = RunConfig()


def _fields(p):
    return (p.m, np.array(p.coords).tobytes(), float(p.residual).hex(), p.converged,
            p.newton_iters, p.note)


def _row_points(rows, ms):
    """A ``solver._newton_rows`` result as SingularPoints labelled ms: the one
    place these tests read the kernel's return shape."""
    return solver._points(ms, *rows)


def _member_results(n, d, alphas, cfg):
    """``solver._track_members`` as one entry per member, its SingularPoints or
    the error it fails with: the one place these tests read its return shape."""
    x, res, iters, errors = solver._track_members(n, d, alphas, cfg)
    ms = range(1, x.shape[1] + 1)
    return [errors[s] if s in errors else
            solver._points(ms, x[s], res[s], iters[s], np.full(len(ms), ""))
            for s in range(len(alphas))]


@pytest.mark.parametrize("start", [np.zeros(3), np.zeros((1, 2)), np.zeros(())])
def test_newton_refuses_a_start_of_the_wrong_shape(start):
    with pytest.raises(InputError, match=r"^start point has shape .*, expected \(2,\)$"):
        newton_refine(jouanolou_field(2, 2), start, CFG)


def test_newton_from_exact_point():
    f = jouanolou_field(2, 2)
    p = closed_form_sing(2, 2)[0]
    out = newton_refine(f, np.array(p.coords), CFG, m=p.m)
    assert out.converged
    assert out.residual < 1e-13
    assert out.newton_iters <= 1
    assert out.m == p.m


def test_newton_pulls_back_perturbed_start():
    f = jouanolou_field(3, 2)
    p = closed_form_sing(3, 2)[4]
    start = np.array(p.coords) + 1e-3 * np.array([1 + 1j, -1, 0.5j])
    out = newton_refine(f, start, CFG)
    assert out.converged
    assert np.max(np.abs(np.array(out.coords) - np.array(p.coords))) < 1e-10


def test_newton_singular_jacobian_reports_instead_of_raising():
    f = jouanolou_field(2, 2)
    out = newton_refine(f, np.zeros(2, dtype=complex), CFG)
    assert not out.converged
    assert "singular" in out.note


def test_newton_batch_rows_match_one_point_runs():
    # a singular start fails the stacked solve; the other rows must not notice
    rng = np.random.default_rng(9)
    f = jouanolou_field(3, 2)
    starts = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    starts[[2, 7]] = 0
    for cfg in (CFG, RunConfig(max_iters=4)):
        batch = _row_points(solver._newton_rows(f, starts, cfg), range(12))
        single = [newton_refine(f, x, cfg, m=m) for m, x in enumerate(starts)]
        assert [_fields(p) for p in batch] == [_fields(p) for p in single]
        assert {p.note for p in batch[2::5]} == {"singular jacobian"}


def _newton_reference(field, x0, cfg):
    """``solver._newton_rows`` without a const, one row at a time: each row's
    Jacobian system is solved on its own, and a LinAlgError stops the row on
    "singular jacobian"."""
    out = []
    for x in np.array(x0, dtype=complex):
        fx = eval_field(field, x[None])[0]
        res, iters, polished, singular = np.max(np.abs(fx)), 0, False, False
        for _ in range(cfg.max_iters):
            if res < cfg.newton_tol and polished:
                break
            polished |= res < cfg.newton_tol
            try:
                step = np.linalg.solve(jacobian(field, x[None])[0], fx)
            except np.linalg.LinAlgError:
                singular = True
                break
            lowered = False
            for t in 0.5 ** np.arange(21):
                cand = x - t * step
                if (cand == x).all():  # so is every smaller t: x cannot lower its residual
                    break
                fc = eval_field(field, cand[None])[0]
                if np.max(np.abs(fc)) < res:
                    x, fx, res, lowered = cand, fc, np.max(np.abs(fc)), True
                    break
            if not lowered:
                break
            iters += 1
        note = "" if res < cfg.newton_tol else (
            "singular jacobian" if singular else "newton stalled above tolerance")
        out.append((x.tobytes(), float(res).hex(), iters, note))
    return out


# x_1^2 = 1, x_2 = 1: a Newton step from x_1 = i lands exactly on the singular x_1 = 0
_SQUARE = PolyVectorField(2, ({(2, 0): 1 + 0j, (0, 0): -1 + 0j}, {(0, 1): 1 + 0j, (0, 0): -1 + 0j}))


@pytest.mark.parametrize("field,start,singular", [
    (jouanolou_field(2, 2), 0, [0, 4, 8]),
    (jouanolou_field(3, 2), 0, [0, 4, 8]),
    # every Jacobian is singular; the rows at 0 are zeros of the field and converge
    (linear_diagonal_field([1, 0, 2j]), 0, [1, 2, 3, 5, 6, 7]),
    # singular at the second iteration, after the rows at a zero have stopped
    (_SQUARE, (1j, 2), [0, 4, 8]),
], ids=["2-2", "3-2", "linear-0", "lands-on-0"])
def test_newton_rows_with_singular_jacobians_equal_the_per_row_reference(field, start, singular):
    # exactly singular rows first, in the middle and last of the stack, and
    # two rows at the all-ones point, a zero of every field but the linear one
    rng = np.random.default_rng(25)
    starts = rng.standard_normal((9, field.n)) + 1j * rng.standard_normal((9, field.n))
    starts[[0, 4, 8]] = start
    starts[[1, 6]] = 1
    for cfg in (CFG, RunConfig(max_iters=4)):
        x, res, iters, notes = solver._newton_rows(field, starts, cfg)
        got = [(a.tobytes(), r.hex(), k, note)
               for a, r, k, note in zip(x, res.tolist(), iters.tolist(), notes.tolist())]
        assert got == _newton_reference(field, starts, cfg)
        assert [k for k, note in enumerate(notes) if note == "singular jacobian"] == singular


def test_track_at_zero_is_bitwise_closed_form():
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        pts = closed_form_sing(n, d)
        params = FoliationParams(n, d)
        for p in pts:
            t = track_one(params, p.m, CFG)
            assert t.coords == p.coords


def test_track_matches_linear_response_2_2():
    # dx_1/dalpha_1 at the all-ones point is 1/7
    h = 1e-6
    t = track_one(FoliationParams(2, 2, (h, 0)), 7, CFG)
    assert abs((t.coords[0] - 1) / h - 1 / 7) < 1e-4


def test_track_determinism():
    params = FoliationParams(3, 2, (0.02 - 0.01j, 0.01j, -0.015))
    a = track_one(params, 11, CFG)
    b = track_one(params, 11, CFG)
    assert a.coords == b.coords


def test_track_all_and_residuals():
    rng = np.random.default_rng(41)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        re, im = rng.uniform(-0.02, 0.02, size=(2, n))
        params = FoliationParams(n, d, tuple(re + 1j * im))
        f = family_field(params)
        tracked = track_singularities(params, CFG)
        assert len(tracked) == counts(n, d).N
        for t in tracked:
            assert t.converged
            assert np.max(np.abs(eval_field(f, np.array(t.coords)))) < 1e-10


def test_track_collision_guard():
    cfg = RunConfig(dedup_tol=10.0)  # every pair now "collides"
    with pytest.raises(CollisionError):
        track_singularities(FoliationParams(2, 2, (0.01, 0.0)), cfg)


def test_track_failure_raises_convergence_error():
    cfg = RunConfig(newton_tol=1e-15, max_iters=1)
    with pytest.raises(ConvergenceError):
        track_one(FoliationParams(2, 2, (0.04 + 0.02j, -0.03j)), 3, cfg)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_batch_tracking_equals_one_point_tracking_bitwise(n, d):
    rng = np.random.default_rng(10 * n + d)
    alpha = 0.04 * np.exp(2j * np.pi * rng.uniform(size=n))
    params = FoliationParams(n, d, tuple(alpha))
    tracked = track_singularities(params, CFG)
    assert [_fields(t) for t in tracked] == [
        _fields(track_one(params, m, CFG)) for m in range(1, counts(n, d).N + 1)]


def test_only_failing_rows_escalate(monkeypatch):
    # max_iters=2 at the polydisk edge: some rows need x4 steps, the rest converge directly
    # (with the first-order start every row converges within 3)
    batches = []
    kernel = solver._newton_rows

    def spy(field, x, cfg, alpha):
        rows = kernel(field, x, cfg, alpha)
        points = _row_points(rows, range(len(x)))
        batches.append((len(points), sum(p.converged for p in points)))
        return rows

    cfg = RunConfig(max_iters=2)
    params = FoliationParams(3, 3, (0.05, 0.05j, -0.05))
    monkeypatch.setattr(solver, "_newton_rows", spy)
    tracked = track_singularities(params, cfg)
    first, escalated = batches[0], batches[1:]
    assert first[0] == 40 and 0 < first[1] < 40
    assert [size for size, _ in escalated] == [40 - first[1]] * 4
    monkeypatch.undo()
    assert [_fields(t) for t in tracked] == [
        _fields(track_one(params, m, cfg)) for m in range(1, 41)]


@pytest.mark.parametrize("params,cfg", [
    (FoliationParams(2, 2, (0.04 + 0.02j, -0.03j)), RunConfig(newton_tol=1e-15, max_iters=1)),
    (FoliationParams(3, 2, (-0.03, 0.005 - 0.02j, 0.0175j)),
     RunConfig(newton_tol=3e-16, max_iters=2)),
])
def test_batch_failure_names_smallest_failing_index(params, cfg):
    failing = []
    for m in range(1, counts(params.n, params.d).N + 1):
        try:
            track_one(params, m, cfg)
        except ConvergenceError as err:
            failing.append((m, str(err)))
    assert failing
    with pytest.raises(ConvergenceError) as info:
        track_singularities(params, cfg)
    assert str(info.value) == failing[0][1]
    assert str(info.value).startswith(f"tracking failed for index m={failing[0][0]} at steps=64:")


def test_track_zeros_is_track_one_for_an_unsorted_index_list():
    rng = np.random.default_rng(33)
    params = FoliationParams(3, 3, tuple(0.04 * np.exp(2j * np.pi * rng.uniform(size=3))))
    ms = [int(m) for m in rng.permutation(np.arange(1, 41))[:15]]
    assert ms != sorted(ms)
    assert [_fields(t) for t in track_zeros(params, ms, CFG)] == [
        _fields(track_one(params, m, CFG)) for m in ms]


STALLING = RunConfig(newton_tol=4e-16, max_iters=5)
# draw 7 of genericity_sample(3, 2, STALLING): of its zeros only m=15 fails
FAILING_DRAW = FoliationParams(3, 2, (
    -0.023233565845734657 + 0.018361766324250656j,
    0.034084801560676184 + 0.009186538720956218j,
    0.01832376875803115 + 0.04458617161303995j))


def test_track_zeros_fails_with_the_message_of_track_singularities():
    with pytest.raises(ConvergenceError) as whole:
        track_singularities(FAILING_DRAW, STALLING)
    assert str(whole.value).startswith("tracking failed for index m=15 at steps=64:")
    for ms in (range(1, 16), range(15, 0, -1)):
        with pytest.raises(ConvergenceError) as batch:
            track_zeros(FAILING_DRAW, ms, STALLING)
        assert str(batch.value) == str(whole.value)


@pytest.mark.parametrize("ms,message", [
    ([], "no zero index given"),
    ([0], r"index m must lie in \[1, 7\], got 0"),
    ([8], r"index m must lie in \[1, 7\], got 8"),
    ([3, 8, 1], r"index m must lie in \[1, 7\], got 8"),
])
def test_track_zeros_rejects_indices_outside_the_member(ms, message):
    with pytest.raises(InputError, match=message):
        track_zeros(FoliationParams(2, 2, (0.01, 0)), ms, CFG)


OUTSIDE = FoliationParams(2, 2, (0.01, -0.06j))


@pytest.mark.parametrize("call", [
    lambda: track_one(OUTSIDE, 1, CFG),
    lambda: track_zeros(OUTSIDE, [3, 1], CFG),
    lambda: track_singularities(OUTSIDE, CFG),
], ids=["track_one", "track_zeros", "track_singularities"])
def test_perturbation_outside_the_polydisk_is_refused(call):
    with pytest.raises(InputError, match=r"^perturbation size 0\.06 exceeds the tracked "
                                         r"polydisk radius 0\.05$"):
        call()


def test_member_stack_refuses_its_first_member_outside_the_polydisk():
    alphas = np.array([[0.01, 0.02j], [0.03, 0.07j], [0.09, 0], [0.05, -0.05]])
    with pytest.raises(InputError, match=r"^perturbation size 0\.07 exceeds"):
        _member_results(2, 2, alphas, CFG)
    (points,) = _member_results(2, 2, alphas[3:], CFG)  # on the boundary is inside
    assert [_fields(p) for p in points] == [
        _fields(p) for p in track_singularities(FoliationParams(2, 2, (0.05, -0.05)), CFG)]


@pytest.mark.parametrize("alphas,ms,message", [
    (np.zeros((1, 2)), [0], r"^index m must lie in \[1, 7\], got 0$"),
    (np.zeros((2, 2)), [8, 1], r"^index m must lie in \[1, 7\], got 8$"),
    (np.zeros((1, 2)), [], "^no zero index given$"),
    (np.zeros((1, 2)), [2.5], "^index m must be an integer, got 2.5$"),
    (np.array([[0.01, 0], [0, 0.06]]), [0], r"^perturbation size 0\.06 exceeds"),  # radius first
], ids=["zero", "past-N", "empty", "float", "radius"])
def test_continue_checks_the_indices_it_tracks(alphas, ms, message):
    # every tracked batch passes through _continue, which refuses before it indexes
    with pytest.raises(InputError, match=message):
        solver._continue(2, 2, alphas, ms, CFG)


@pytest.mark.parametrize("dedup_tol,outcomes", [
    (1.45, [list, list, ConvergenceError, CollisionError, list]),
    (10.0, [CollisionError, CollisionError, ConvergenceError, CollisionError, CollisionError]),
])
def test_a_mixed_member_stack_is_each_member_alone(dedup_tol, outcomes):
    # alpha = 0, tracked, failing to converge (FAILING_DRAW) and colliding: at
    # dedup_tol 1.45 only the fourth member has two zeros that close (1.42 apart)
    cfg = dataclasses.replace(STALLING, dedup_tol=dedup_tol)
    alphas = [(0, 0, 0), (0.01, 0.02j, -0.01), FAILING_DRAW.alpha,
              (0.03 - 0.04j, -0.04 + 0.03j, -0.05), (0, 0, 0)]
    stacked = _member_results(3, 2, np.array(alphas), cfg)
    kinds = []
    for alpha, got in zip(alphas, stacked):
        try:
            want = track_singularities(FoliationParams(3, 2, alpha), cfg)
        except (ConvergenceError, CollisionError) as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            kinds.append(type(exc))
        else:
            assert [_fields(p) for p in got] == [_fields(p) for p in want]
            if not any(alpha):
                assert [_fields(p) for p in got] == [_fields(p) for p in closed_form_sing(3, 2)]
            kinds.append(list)
    assert kinds == outcomes


SMALL = FoliationParams(2, 2, (0.01, 0.02j))


@pytest.mark.parametrize("call", [
    lambda: track_zeros(SMALL, [1.5], CFG),
    lambda: track_one(SMALL, 2.0, CFG),
    lambda: submersion_report(2, 2, 2.5, CFG),
    lambda: first_order_point(2, 2, 1.5, (0.01, 0)),
    lambda: track_zeros(SMALL, ["3"], CFG),
    lambda: track_zeros(SMALL, [True, 3], CFG),
    lambda: track_one(SMALL, np.bool_(True), CFG),
], ids=["float-list", "float-one", "submersion", "first-order", "str", "bool", "numpy-bool"])
def test_non_integer_indices_are_refused(call):
    with pytest.raises(InputError, match="index m must be an integer"):
        call()


def test_the_first_bad_index_names_the_error():
    with pytest.raises(InputError, match=r"^index m must lie in \[1, 7\], got 8$"):
        track_zeros(SMALL, [1, 8, 2.5], CFG)
    with pytest.raises(InputError, match="^index m must be an integer, got 2.5$"):
        track_zeros(SMALL, [1, 2.5, 8], CFG)


def test_numpy_integer_indices_are_accepted():
    ms = np.arange(1, 8)[::-1]
    for params in (SMALL, FoliationParams(2, 2)):
        points = track_zeros(params, ms, CFG)
        assert [_fields(p) for p in points] == [
            _fields(track_one(params, int(m), CFG)) for m in ms]
        assert {type(p.m) for p in points} == {int}  # json.dumps refuses an np.int64
    assert np.array_equal(first_order_point(2, 2, np.int64(3), (0.01, 0)),
                          first_order_point(2, 2, 3, (0.01, 0)))


@pytest.mark.parametrize("alpha", [(0, 0, 0), (0.03, 0.02j, -0.01)])
def test_zero_coordinates_are_python_complex(alpha):
    # tracked zeros hold the coordinate type of the closed-form zeros
    for p in [*track_singularities(FoliationParams(3, 2, alpha), CFG),
              track_one(FoliationParams(3, 2, alpha), 4, CFG), *closed_form_sing(3, 2)]:
        assert {type(c) for c in p.coords} == {complex}


def test_only_one_index_calls_refine_through_newton_refine(monkeypatch):
    """perfbench's traced solver.stages_per_zero and solver.evals_per_step
    count newton_refine calls under track_one; only a one-index call makes them."""
    refined = []
    real = solver.newton_refine

    def spy(*args, **kwargs):
        refined.append(real(*args, **kwargs))
        return refined[-1]

    monkeypatch.setattr(solver, "newton_refine", spy)
    params = FoliationParams(3, 2, (0.03, 0.02j, -0.01))
    cfg = RunConfig(continuation_steps=3)
    point = track_one(params, 5, cfg)
    assert len(refined) == 3 and refined[-1] == point
    assert all(p.newton_iters > 0 for p in refined)
    refined.clear()
    track_zeros(params, [5, 2], cfg)
    track_singularities(params, cfg)
    submersion_all(2, 2, CFG)
    submersion_report(2, 2, 7, CFG)
    coeff_derivative_table(2, 2, CFG)
    assert refined == []


def test_halving_stops_once_the_candidate_rounds_to_x(monkeypatch):
    # the polishing step of a converged row rounds to x, and so does every
    # halved step after it: the row stops without evaluating them.  The
    # digest was taken before the early stop, with 25 evaluations, re-taken
    # (6 evaluations to 5) when each stage began at the first-order point, and
    # re-taken from track_one when that point came from the orbit of the all-ones
    # zero, and when fields were evaluated through one power table.
    calls = []
    real = solver._evaluate  # the batch kernel's values: the base field plus each row's alpha

    def spy(field, x, *table):
        calls.append(len(x))
        return real(field, x, *table)

    monkeypatch.setattr(solver, "_evaluate", spy)
    points = track_singularities(FoliationParams(3, 2, (0.03, 0.02j, -0.01)), CFG)
    assert len(calls) == 5
    coords = np.array([p.coords for p in points])
    residuals = np.array([p.residual for p in points])
    iters = np.array([p.newton_iters for p in points], dtype=np.int64)
    digest = hashlib.sha256(coords.tobytes() + residuals.tobytes() + iters.tobytes())
    assert digest.hexdigest() == "952ef4fc771a2f5cddb55656b36da4e09a745068cc0429dc3bd24381173f1f2f"


def test_line_search_of_rows_that_stall_above_tolerance_is_frozen(monkeypatch):
    # below the rounding floor of (3,3) some rows never pass newton_tol: their
    # halvings run out or stop once the candidate rounds to x.  Re-taken when
    # fields were evaluated through one power table: 1 row stalls, not 8, and
    # 270 rows are evaluated in the same 46 calls, not 278
    calls = []
    real = solver._evaluate

    def spy(field, x, *table):
        calls.append(len(x))
        return real(field, x, *table)

    monkeypatch.setattr(solver, "_evaluate", spy)
    start = np.array([p.coords for p in closed_form_sing(3, 3)])
    const = np.tile(np.array([0.03, 0.02j, -0.01]), (len(start), 1))
    points = _row_points(solver._newton_rows(jouanolou_field(3, 3), start,
                                             RunConfig(newton_tol=4e-16, max_iters=5), const),
                         range(1, len(start) + 1))
    assert (len(calls), sum(calls)) == (46, 270)
    assert sum(p.note == "newton stalled above tolerance" for p in points) == 1
    digest = hashlib.sha256(b"".join(repr(_fields(p)).encode() for p in points))
    assert digest.hexdigest() == "a217e47cf220fb042daa7506d059034e48f8602de8617fbd0a72a49a28a31174"


def _shift_alphas(n):
    """Random, exact-zero, signed-zero and defect-ray perturbations at dimension n."""
    rng = np.random.default_rng(60 + n)
    alpha = 0.04 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    zero = alpha.copy()
    zero[::2] = 0
    signed = alpha.copy()
    signed.real[0] = -0.0
    signed.imag[-1] = -0.0
    nu = [0j] * n
    nu[-1], nu[1] = -0.5 + 0j, 1j
    # the members defect_experiment tracks along the ray nu
    rays = [tuple(mu * v for v in nu) for mu in (1e-2, 3e-4)]
    return [tuple(alpha), tuple(zero), tuple(signed)] + rays


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_base_field_plus_alpha_is_the_member_field_bitwise(n, d):
    # the kernel's route (the base field's sum started from alpha) against the
    # member's own field, in values and in whole Newton runs
    base = jouanolou_field(n, d)
    start = np.array([p.coords for p in closed_form_sing(n, d)])
    rng = np.random.default_rng(n * d)
    x = np.vstack([start, rng.standard_normal(start.shape) + 1j * rng.standard_normal(start.shape),
                   np.zeros((1, n))])
    ms = list(range(1, len(start) + 1))
    for alpha in _shift_alphas(n):
        member = family_field(FoliationParams(n, d, alpha))
        const = np.tile(np.array(alpha), (len(x), 1))
        assert solver._evaluate(base, x, 0, n, const).tobytes() == eval_field(member, x).tobytes()
        for cfg in (CFG, RunConfig(max_iters=3)):
            shifted = _row_points(solver._newton_rows(base, start, cfg, const[:len(start)]), ms)
            assert [_fields(p) for p in shifted] == [
                _fields(p) for p in _row_points(solver._newton_rows(member, start, cfg), ms)]


def test_tracking_on_the_base_field_is_frozen():
    # digest taken when every continuation stage built the member's own field
    # (the submersion reports, which track nothing, left it later), and
    # re-taken from track_one when each stage began at the first-order point,
    # when that point came from the orbit of the all-ones zero and when fields
    # were evaluated through one power table
    h = hashlib.sha256()
    for n, d in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        big_n = counts(n, d).N
        for alpha in _shift_alphas(n):
            params = FoliationParams(n, d, alpha)
            for p in track_singularities(params, CFG):
                h.update(repr(_fields(p)).encode())
            for p in track_zeros(params, [big_n, 2, 1, 2], RunConfig(continuation_steps=3, max_iters=3)):
                h.update(repr(_fields(p)).encode())
    for n, d in [(3, 2), (5, 2)]:
        nu = np.zeros(n, dtype=complex)
        nu[-1], nu[1] = -0.5, 1j
        res = defect_experiment(n, d, nu, (1e-2, 3e-3, 1e-3), CFG)
        h.update(np.array(res.defects).tobytes() + float(res.slope).hex().encode())
    assert h.hexdigest() == "78bd95f93af5e3fc240804252848ef9a219c129f8e17caceac39ff33fb3609e7"


def _dense_closest_pair(coords, tol):
    # every pair measured; the closest, if it lies within tol
    dist = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)
    dist[np.diag_indices(len(coords))] = np.inf
    a, b = np.unravel_index(np.argmin(dist), dist.shape)
    return (int(a), int(b), dist[a, b]) if dist[a, b] <= tol else (0, 0, np.inf)


@pytest.mark.parametrize("tol", [0, 1e-9, 1e-7, 0.5, 1, 3, 100])
def test_chunked_collision_scan_matches_dense(tol):
    rng = np.random.default_rng(7)
    for scale in (1, 0.3, 1e-7):
        for jitter in (0, 1e-9):
            shape = (7, 30, 3)
            lattice = scale * (rng.integers(-2, 3, size=shape) + 1j * rng.integers(-2, 3, size=shape))
            lattice += jitter * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            # many exact ties, in keys and in distances; the members are scanned as one stack
            assert solver._closest_pair(lattice, tol) == [_dense_closest_pair(c, tol) for c in lattice]
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        coords = np.array([p.coords for p in closed_form_sing(n, d)])
        assert solver._closest_pair(coords[None], tol) == [_dense_closest_pair(coords, tol)]
    params = FoliationParams(2, 2, (0.01, 0.0))
    coords = np.array([p.coords for p in track_singularities(params, CFG)])
    a, b, dist = _dense_closest_pair(coords, 10.0)
    with pytest.raises(CollisionError) as info:
        track_singularities(params, RunConfig(dedup_tol=10.0))
    assert str(info.value) == (
        f"tracked zeros m={a + 1} and m={b + 1} merged (separation {dist:.3e}); "
        "the perturbation left the safe polydisk")


def test_collision_scan_sweeps_wide_windows_of_tied_keys():
    # at alpha = 0, 15 conjugate pairs m, N - m of (4,3) share Re x_1 exactly,
    # so windows open at k = 1, but no pair lies within 0.5
    coords = np.array([p.coords for p in closed_form_sing(4, 3)])
    assert sum(np.diff(np.sort(coords[:, 0].real)) == 0) == 15
    for tol in (0, 1e-6, 0.5):
        assert solver._closest_pair(coords[None], tol) == [(0, 0, np.inf)]
    assert solver._closest_pair(coords[None], 3) == [_dense_closest_pair(coords, 3)]
    # every row of (3,2) given the same Re x_1: one window of all N rows at
    # every k, with a pair 1e-9 apart 10 places apart, then two exact duplicates
    near = np.array([p.coords for p in closed_form_sing(3, 2)])
    near[:, 0] = 0.25 + 1j * near[:, 0].imag
    near[12] = near[2] + [0, 1e-9, 0]
    tied = near.copy()
    tied[9], tied[14] = tied[3], tied[1]
    stack = np.array([near, tied, tied[::-1], np.roll(tied, 5, axis=0)])
    for tol in (0, 1e-9, 1e-6, 1):
        assert solver._closest_pair(stack, tol) == [_dense_closest_pair(c, tol) for c in stack]
    assert solver._closest_pair(near[None], 1e-6)[0][:2] == (2, 12)
    assert solver._closest_pair(tied[None], 0) == [(1, 14, 0.0)]  # the first of two ties


def test_collision_scan_of_no_members_is_empty():
    # _track_members scans an empty stack when no member of a block tracks
    assert solver._closest_pair(np.zeros((0, 7, 2), dtype=complex), 1.0) == []


def test_tracking_commutes_with_group():
    rng = np.random.default_rng(52)
    for n, d in [(2, 2), (3, 2)]:
        N = counts(n, d).N
        re, im = rng.uniform(-0.02, 0.02, size=(2, n))
        params = FoliationParams(n, d, tuple(re + 1j * im))
        tracked = track_singularities(params, CFG)
        for k in (1, N // 2):
            g = group_elements(n, d)[k]
            _, alpha_t, _ = pushforward_factor(g, params)
            tracked_t = track_singularities(FoliationParams(n, d, alpha_t), CFG)
            for m in range(1, N + 1):
                moved = group_action(g, np.array(tracked[m - 1].coords))
                target = np.array(tracked_t[(m + k - 1) % N].coords)
                assert np.max(np.abs(moved - target)) < 1e-8


def test_first_order_at_zero_is_bitwise():
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        for p in closed_form_sing(n, d):
            pred = first_order_point(n, d, p.m, np.zeros(n))
            assert tuple(pred) == p.coords


def test_first_order_rejects_non_finite_alpha():
    with pytest.raises(InputError, match="must be finite"):
        first_order_point(2, 2, 1, (math.nan, 0))
    with pytest.raises(InputError, match="alpha has 1 entries"):
        first_order_point(2, 2, 1, (0.01,))
    with pytest.raises(InputError, match=r"index m must lie in \[1, 7\]"):
        first_order_point(2, 2, 8, (0.01, 0))


def test_first_order_linear_in_alpha():
    rng = np.random.default_rng(63)
    n, d = 3, 2
    for _ in range(5):
        m = int(rng.integers(1, 16))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p0 = first_order_point(n, d, m, np.zeros(n))
        pa = first_order_point(n, d, m, 0.01 * a)
        pb = first_order_point(n, d, m, 0.02 * a)
        # the predictor is affine in alpha
        assert np.allclose(pb - p0, 2 * (pa - p0), rtol=1e-12, atol=1e-14)


def _polydisk_draws(n, k, seed):
    """k members drawn from the radius-0.05 polydisk as genericity_sample draws them."""
    u = np.random.default_rng(seed).random((k, n, 2))
    return 0.05 * np.sqrt(u[:, :, 0]) * np.exp(2j * np.pi * u[:, :, 1])


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3)])
def test_tracking_starts_at_the_first_order_point(n, d, monkeypatch):
    # the start of every row is x0 - J(x0)^-1 alpha, the linear term in closed
    # form; the rounding bound is 4 eps per unit of the largest term,
    # 1 + (d + ... + d^(n-1)) |alpha|_1, the weight by which first_order_point
    # multiplies its first coordinate's linear term
    starts = []
    kernel = solver._newton_rows

    def spy(field, x, cfg, const):
        starts.append(np.array(x))
        return kernel(field, x, cfg, const)

    monkeypatch.setattr(solver, "_newton_rows", spy)
    weight = sum(d**k for k in range(1, n))
    for alpha in _polydisk_draws(n, 3, 10 * n + d):
        starts.clear()
        track_singularities(FoliationParams(n, d, tuple(alpha)), CFG)
        closed = np.array([first_order_point(n, d, m, alpha) for m in range(1, len(starts[0]) + 1)])
        bound = 4 * np.finfo(float).eps * (1 + weight * np.abs(alpha).sum())
        assert np.abs(starts[0] - closed).max() <= bound


@pytest.mark.parametrize("n,d,draws", [(2, 2, 10), (3, 2, 5), (3, 3, 2)])
def test_tracked_zeros_lie_within_two_ulps_of_the_true_zeros(n, d, draws):
    # a 50-digit mpmath Newton from each tracked zero is the oracle; the
    # coordinates have modulus near 1, so 2 eps is 2 ulps (the bound holds
    # for the start at x0 as well)
    alphas = _polydisk_draws(n, draws, 7)
    x, _, _, errors = solver._track_members(n, d, alphas, CFG)
    assert not errors
    worst = 0.0
    with mpmath.workdps(50):
        for alpha, zeros in zip(alphas, x):
            a = [mpmath.mpc(complex(v)) for v in alpha]

            def field(*z):
                return [(z[i + 1] ** d if i < n - 1 else 1) - z[i] * z[0] ** d + a[i]
                        for i in range(n)]

            for row in zeros:
                true = mpmath.findroot(field, [mpmath.mpc(complex(v)) for v in row])
                worst = max(worst, max(float(abs(complex(v) - true[i])) for i, v in enumerate(row)))
    assert worst <= 2 * np.finfo(float).eps


def test_first_order_start_saves_an_iteration_a_zero():
    # 200 seeded (3,2) draws took 11924 Newton iterations from x0 (3.97 a zero)
    _, _, iters, errors = solver._track_members(3, 2, _polydisk_draws(3, 200, 1), CFG)
    assert not errors
    assert iters.sum() <= 0.8 * 11924


def test_first_order_derivative_matches_tracking():
    # directional derivative of the tracked point equals the predictor slope
    rng = np.random.default_rng(74)
    h = 1e-6
    for n, d in [(2, 2), (3, 2)]:
        N = counts(n, d).N
        m = int(rng.integers(1, N + 1))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a /= np.max(np.abs(a))
        t = np.array(track_one(FoliationParams(n, d, tuple(h * a)), m, CFG).coords)
        p0 = first_order_point(n, d, m, np.zeros(n))
        slope_fd = (t - p0) / h
        slope_pred = (first_order_point(n, d, m, h * a) - p0) / h
        assert np.max(np.abs(slope_fd - slope_pred)) < 1e-4


ORBIT_RUNGS = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (5, 2), (7, 2), (2, 30), (2, 200)]


def _orbit_bound(n, d):
    # J's entries at a zero carry d-th powers of its coordinates, each rounded
    # once per factor, and an n-term row: 8 (n + d) eps relative to the largest
    return 8 * (n + d) * np.finfo(float).eps


@pytest.mark.parametrize("n,d", ORBIT_RUNGS)
def test_orbit_step_is_the_inverse_jacobian_at_every_zero(n, d):
    # J(x_m)^-1 rise by the orbit of the all-ones zero against np.linalg.inv
    # of the Jacobian at x_m itself, a reference that does not use the orbit
    x = closed_form_coords(n, d)
    rng = np.random.default_rng(n * d)
    rise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    want = (np.linalg.inv(jacobian(jouanolou_field(n, d), x)) @ rise[:, :, None])[..., 0]
    got = solver._euler_step(n, d, np.arange(len(x)), rise)
    assert np.abs(got - want).max() <= _orbit_bound(n, d) * np.abs(want).max()


@pytest.mark.parametrize("n,d", ORBIT_RUNGS)
def test_spectrum_at_every_zero_is_the_all_ones_spectrum_turned_by_s_m(n, d):
    # J(x_m) = s_m D_m J(1) D_m^-1 with s_m = xi^(d m), so spec J(x_m) = s_m kappa
    # as a multiset: each eigenvalue lies nearest to its own entry of s_m kappa
    x = closed_form_coords(n, d)
    base = jouanolou_field(n, d)
    kappa = np.linalg.eigvals(jacobian(base, np.ones((1, n)))[0])
    m = np.arange(1, len(x) + 1)
    want = np.exp(2j * np.pi * (d * m % len(x)) / len(x))[:, None] * kappa
    dist = np.abs(np.linalg.eigvals(jacobian(base, x))[:, :, None] - want[:, None, :])
    bound = _orbit_bound(n, d) * np.abs(kappa).max()
    assert bound < np.abs(kappa[:, None] - kappa[None, :])[~np.eye(n, dtype=bool)].min() / 2
    assert (np.sort(dist.argmin(axis=2), axis=1) == np.arange(n)).all()
    assert dist.min(axis=2).max() <= bound


@pytest.mark.parametrize("n,d", ORBIT_RUNGS)
def test_orbit_reads_the_inverse_zero_from_the_root_table(n, d):
    # 1 / x_m by exponent is bitwise zero N - m, and 1 for m = N
    x = closed_form_coords(n, d)
    big_n, (down, _), _ = solver._orbit_inverse(n, d)
    m = np.arange(1, big_n + 1)
    inverse = unit_roots(big_n)[m[:, None] * down % big_n]
    assert inverse[:-1].tobytes() == x[big_n - m[:-1] - 1].tobytes()
    assert inverse[-1].tobytes() == np.ones(n, dtype=complex).tobytes()


@pytest.mark.parametrize("n,d,rows", [(2, 200, None), (5, 3, 50_000)])
def test_rows_above_the_temporary_elision_size_are_their_one_row_calls(n, d, rows):
    # numpy reuses a temporary of 256 KiB or more as an output, and on the
    # right of a product then computes b * a: stacks past that size, all of
    # (2,200)'s rows or 5e4 sampled (5,3) rows, must still give each row the
    # bits of its one-row call.  Every row of the Euler step is checked; the
    # field and its Jacobian, whose kernel other tests cover, at every 8th row
    x = closed_form_coords(n, d)
    rng = np.random.default_rng(rows)
    index = np.arange(len(x)) if rows is None else rng.integers(0, len(x), rows)
    rise = 0.05 * (rng.standard_normal((len(index), n)) + 1j * rng.standard_normal((len(index), n)))
    base = jouanolou_field(n, d)
    points = x[index] - rise
    assert points.nbytes >= 256 << 10  # as is every (R, n) temporary of the calls
    calls = [(lambda r: solver._euler_step(n, d, index[r], rise[r]), 1),
             (lambda r: eval_field(base, points[r]), 8), (lambda r: jacobian(base, points[r]), 8)]
    for call, stride in calls:
        stack = call(slice(None))
        assert all(call(slice(r, r + 1)).tobytes() == stack[r:r + 1].tobytes()
                   for r in range(0, len(index), stride))


_FRESH_PEAK = """
import sys, tracemalloc
from foliationlab import FoliationParams, RunConfig, submersion_report, track_one
call = {"submersion": lambda: submersion_report(2, 1023, 5, RunConfig()),
        "track": lambda: track_one(FoliationParams(2, 1023, (0.01, 0)), 5, RunConfig())}
tracemalloc.start()
call[sys.argv[1]]()
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("call", ["submersion", "track"])
def test_one_index_at_the_largest_member_holds_no_table_of_all_zeros(call):
    # a fresh process, so that no cache of an earlier test hides the cost: one
    # index at (2, 1023) holds the (N, n) zeros and their root table (72 MiB),
    # not an (N, n, n) table of J^-1 (304 MiB with it)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PEAK, call], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) <= 128 << 20


def test_quadratic_remainder_scaling():
    # halving alpha divides the predictor error by about four, on the whole grid
    rng = np.random.default_rng(85)
    for n, d in DESK:
        N = counts(n, d).N
        for _ in range(3):
            m = int(rng.integers(1, N + 1))
            a = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            a *= 0.02 / np.max(np.abs(a))
            errs = []
            for scale in (1.0, 0.5):
                t = track_one(FoliationParams(n, d, tuple(scale * a)), m, CFG)
                errs.append(np.max(np.abs(
                    np.array(t.coords) - first_order_point(n, d, m, scale * a))))
            assert 3.0 < errs[0] / errs[1] < 5.5


def test_continuation_handles_radius_boundary():
    # a perturbation at the configured radius still tracks with escalation room
    a = np.array([0.05, 0.0])
    t = track_one(FoliationParams(2, 2, tuple(a)), 7, CFG)
    assert t.converged and t.residual < 1e-10


@pytest.mark.parametrize("field,value", [
    ("delta", 0.0), ("delta", -1.0), ("seed", -1), ("max_iters", 0), ("max_iters", -3),
    ("max_order", 1), ("continuation_steps", 0), ("samples", 0),
    # each of these used to pass construction and then fail in the library, or pass
    ("samples", 2.5), ("max_iters", 2.5), ("continuation_steps", 1.5), ("seed", 1.5),
    ("max_order", 3.0), ("newton_tol", "a"), ("radius", 1j), ("max_iters", True),
    ("continuation_steps", True), ("newton_tol", True), ("samples", np.float64(3)),
])
def test_run_config_rejects_values_that_fail_later(field, value):
    with pytest.raises(InputError, match=field):
        RunConfig(**{field: value})


def test_run_config_names_the_type_it_wants():
    with pytest.raises(InputError, match="^samples must be an integer, got 2.5$"):
        RunConfig(samples=2.5)
    with pytest.raises(InputError, match="^newton_tol must be a real number, got True$"):
        RunConfig(newton_tol=True)
    with pytest.raises(InputError, match="^seed must be at least 0$"):
        RunConfig(seed=-1)


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
def test_run_config_refuses_an_int_beyond_the_float_range(value):
    # float(value) overflows, so the finiteness check raised OverflowError
    with pytest.raises(InputError, match="^radius must be finite$"):
        RunConfig(radius=value)
    assert RunConfig(radius=10**300).radius == 10**300  # within the float range


def test_run_config_takes_numpy_scalars():
    cfg = RunConfig(max_iters=np.int64(5), samples=np.int32(3), radius=np.float64(0.01),
                    tol_hyp=np.float32(1e-6), delta=2)
    assert (cfg.max_iters, cfg.samples, cfg.radius, cfg.delta) == (5, 3, 0.01, 2)


FLOAT_FIELDS = ("newton_tol", "dedup_tol", "radius", "tol_hyp", "tol_nd", "align_tol", "delta")


def test_float_fields_are_the_checked_ones():
    assert FLOAT_FIELDS == tuple(f.name for f in dataclasses.fields(RunConfig)
                                 if isinstance(f.default, float))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_run_config_rejects_non_finite_floats(field, value):
    with pytest.raises(InputError, match=f"^{field} must be finite$"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_run_config_negative_infinity_is_not_positive(field):
    with pytest.raises(InputError, match=f"^{field} must be positive$"):
        RunConfig(**{field: -math.inf})


def test_run_config_accepts_smallest_valid_values():
    cfg = RunConfig(delta=1e-300, seed=0, max_iters=1)
    assert (cfg.delta, cfg.seed, cfg.max_iters) == (1e-300, 0, 1)
