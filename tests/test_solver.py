"""Newton refinement, continuation tracking, and the first-order predictor."""

import numpy as np
import pytest

from foliationlab import solver
from foliationlab import (
    CollisionError,
    ConvergenceError,
    FoliationParams,
    InputError,
    RunConfig,
    closed_form_sing,
    counts,
    eval_field,
    family_field,
    first_order_point,
    group_action,
    group_elements,
    jouanolou_field,
    newton_refine,
    pushforward_factor,
    track_one,
    track_singularities,
)

DESK = [(n, d) for n in (2, 3, 4) for d in (1, 2, 3)]
CFG = RunConfig()


def _fields(p):
    return (p.m, np.array(p.coords).tobytes(), float(p.residual).hex(), p.converged,
            p.newton_iters, p.note)


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
        batch = solver._newton_rows(f, starts, cfg, list(range(12)))
        single = [newton_refine(f, x, cfg, m=m) for m, x in enumerate(starts)]
        assert [_fields(p) for p in batch] == [_fields(p) for p in single]
        assert {p.note for p in batch[2::5]} == {"singular jacobian"}


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
    # max_iters=3 at the polydisk edge: some rows need x4 steps, the rest converge directly
    batches = []
    kernel = solver._newton_rows

    def spy(field, x, cfg, ms):
        points = kernel(field, x, cfg, ms)
        batches.append((len(ms), sum(p.converged for p in points)))
        return points

    cfg = RunConfig(max_iters=3)
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
     RunConfig(newton_tol=3e-16, max_iters=3)),
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


def _dense_closest_pair(coords):
    dist = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)
    dist[np.diag_indices(len(coords))] = np.inf
    a, b = np.unravel_index(np.argmin(dist), dist.shape)
    return int(a), int(b), dist[a, b]


@pytest.mark.parametrize("block", [1, 200, 1000, solver.COLLISION_BLOCK])
def test_chunked_collision_scan_matches_dense(monkeypatch, block):
    monkeypatch.setattr(solver, "COLLISION_BLOCK", block)
    rng = np.random.default_rng(block)
    lattice = rng.integers(-2, 3, size=(30, 3)) + 1j * rng.integers(-2, 3, size=(30, 3))
    assert solver._closest_pair(lattice) == _dense_closest_pair(lattice)  # many exact ties
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        coords = np.array([p.coords for p in closed_form_sing(n, d)])
        assert solver._closest_pair(coords) == _dense_closest_pair(coords)
    params = FoliationParams(2, 2, (0.01, 0.0))
    coords = np.array([p.coords for p in track_singularities(params, CFG)])
    a, b, dist = _dense_closest_pair(coords)
    with pytest.raises(CollisionError) as info:
        track_singularities(params, RunConfig(dedup_tol=10.0))
    assert str(info.value) == (
        f"tracked zeros m={a + 1} and m={b + 1} merged (separation {dist:.3e}); "
        "the perturbation left the safe polydisk")


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
])
def test_run_config_rejects_values_that_fail_later(field, value):
    with pytest.raises(InputError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_smallest_valid_values():
    cfg = RunConfig(delta=1e-300, seed=0, max_iters=1)
    assert (cfg.delta, cfg.seed, cfg.max_iters) == (1e-300, 0, 1)
