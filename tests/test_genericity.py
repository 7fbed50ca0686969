"""Submersion checks, derivative tables, alignment census, defect slopes, sampling."""

import numpy as np
import pytest

from foliationlab import (
    HYPERBOLIC,
    CollisionError,
    ConvergenceError,
    FoliationParams,
    InputError,
    RunConfig,
    alignment_census,
    base_pattern_indices,
    char_coeff_map,
    closed_form_sing,
    coeff_derivative_table,
    counts,
    defect_experiment,
    expected_det_modulus,
    family_field,
    generator_weights,
    genericity_sample,
    group_action,
    group_elements,
    hyperplane_set,
    pushforward_factor,
    sigma_at_ones,
    spectrum_report,
    submersion_all,
    submersion_report,
    track_singularities,
    unit_root,
)
from foliationlab.jouanolou import FACTOR_TOL

CFG = RunConfig()
MU_GRID = (1e-2, 3e-3, 1e-3, 3e-4)


# ---------------------------------------------------------------------------
# coefficient map and submersion


def test_char_coeff_map_at_zero():
    assert np.allclose(char_coeff_map(2, 2, 7, np.zeros(2), CFG), [4.0, 7.0], atol=1e-12)


def test_sigma_at_ones_frozen():
    assert np.allclose(sigma_at_ones(2, 2), [4, 7])
    assert np.allclose(sigma_at_ones(3, 2), [5, 11, 15])
    assert np.allclose(sigma_at_ones(2, 3), [5, 13])


def test_sigma_at_ones_matches_direct_jacobian():
    # binomial sums against the actual characteristic coefficients at p_N
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            got = char_coeff_map(n, d, counts(n, d).N, np.zeros(n), CFG)
            assert np.allclose(got, sigma_at_ones(n, d), rtol=0, atol=1e-10)


def test_expected_det_modulus_frozen():
    assert expected_det_modulus(2, 2) == pytest.approx(64 / 7)
    assert expected_det_modulus(3, 2) == pytest.approx(256 / 3)
    assert expected_det_modulus(2, 3) == pytest.approx(405 / 13)


def test_submersion_report_2_2():
    rep = submersion_report(2, 2, 7, CFG)
    assert rep.rel_error < 1e-4
    assert abs(rep.det) == pytest.approx(64 / 7, rel=1e-4)
    assert rep.sv_min > 1e-6 * rep.sv_max


def test_submersion_all_m_independent():
    dets = [abs(r.det) for r in submersion_all(2, 2, CFG)]
    assert np.allclose(dets, 64 / 7, rtol=1e-4)


def test_submersion_fd_error_scales_quadratically():
    # truncation dominates tracking noise at these steps; halving gives ~1/4
    for n, d, m in [(2, 2, 7), (3, 2, 15)]:
        exp = expected_det_modulus(n, d)
        errs = [abs(abs(submersion_report(n, d, m, RunConfig(fd_step=h)).det) - exp)
                for h in (3e-3, 1.5e-3)]
        assert 3.0 < errs[0] / errs[1] < 5.0


def test_cauchy_stencil_beats_central():
    for n, d, m in [(2, 2, 7), (3, 2, 15)]:
        cfg = RunConfig(fd_step=1e-3)
        central = submersion_report(n, d, m, cfg, stencil="central")
        cauchy = submersion_report(n, d, m, cfg, stencil="cauchy4")
        assert cauchy.rel_error < central.rel_error * 1e-2


def test_submersion_rejects_unknown_stencil():
    with pytest.raises(InputError):
        submersion_report(2, 2, 7, CFG, stencil="forward")


# ---------------------------------------------------------------------------
# derivative table


def test_derivative_table_2_2_frozen():
    table = {(e.i, e.j): e for e in coeff_derivative_table(2, 2, CFG)}
    want = {(1, 1): 8 / 7, (1, 2): 16 / 7, (2, 1): 0.0, (2, 2): 8.0}
    for key, val in want.items():
        entry = table[key]
        assert entry.formula == pytest.approx(val, abs=1e-12)
        assert abs(entry.fd - val) < 1e-4 * max(1, abs(val))
        assert entry.rel_error < 1e-4


def test_derivative_table_3_2_formula_rows():
    table = {(e.i, e.j): e for e in coeff_derivative_table(3, 2, CFG)}
    # j >= i-1 entries carry closed values; below that only the measurement
    assert table[(1, 3)].formula == pytest.approx(8 / 3)
    assert table[(3, 1)].formula is None
    for (i, j), entry in table.items():
        if entry.formula is not None:
            assert entry.rel_error < 1e-4


# ---------------------------------------------------------------------------
# alignment census and hyperplanes


def test_census_empty_for_even_n_or_d_one():
    for n, d in [(2, 2), (2, 3), (4, 2)]:
        pts = closed_form_sing(n, d)
        assert alignment_census(pts, d, CFG) == []


def test_census_counts_and_shape():
    for n, d in [(3, 2), (3, 3), (5, 2)]:
        c = counts(n, d)
        records = alignment_census(closed_form_sing(n, d), d, CFG)
        assert len(records) == c.K
        for rec in records:
            assert len(rec.indices) == d + 1
            assert rec.residual < CFG.align_tol


def test_census_records_are_residue_classes():
    # every record is {r, r+K, ..., r+dK} as m-values, one per residue class
    for n, d in [(3, 2), (3, 3)]:
        c = counts(n, d)
        records = alignment_census(closed_form_sing(n, d), d, CFG)
        got = {rec.indices for rec in records}
        want = set()
        for r in range(1, c.K + 1):
            cls = tuple(sorted(((r + j * c.K - 1) % c.N) + 1 for j in range(d + 1)))
            want.add(cls)
        assert got == want


def test_census_members_sit_on_reported_line():
    records = alignment_census(closed_form_sing(3, 2), 2, CFG)
    pts = {p.m: np.array(p.coords) for p in closed_form_sing(3, 2)}
    for rec in records:
        q = np.asarray(rec.line_point)
        v = np.asarray(rec.line_dir)
        v = v / np.linalg.norm(v)
        for m in rec.indices:
            w = pts[m] - q
            dist = np.linalg.norm(w - (np.vdot(v, w)) * v)
            assert dist < CFG.align_tol


def test_census_invariant_under_diagonal_maps():
    # diagonal scalings preserve lines, so the index sets cannot move
    pts = closed_form_sing(3, 2)
    base = {rec.indices for rec in alignment_census(pts, 2, CFG)}
    g = group_elements(3, 2)[4]
    moved = []
    for p in pts:
        q = group_action(g, np.array(p.coords))
        moved.append(type(p)(m=p.m, coords=tuple(q), residual=p.residual,
                             converged=p.converged, newton_iters=p.newton_iters))
    assert {rec.indices for rec in alignment_census(moved, 2, CFG)} == base


def test_census_translation_shifts_records():
    # relabeling m -> m+k maps records to records
    c = counts(3, 2)
    records = {rec.indices for rec in alignment_census(closed_form_sing(3, 2), 2, CFG)}
    for k in range(1, c.N):
        for rec in records:
            shifted = tuple(sorted(((m + k - 1) % c.N) + 1 for m in rec))
            assert shifted in records


def test_census_rejects_d_one():
    with pytest.raises(InputError):
        alignment_census(closed_form_sing(2, 1), 1, CFG)


def test_base_pattern_indices():
    assert base_pattern_indices(3, 2) == [5, 10, 15]
    assert base_pattern_indices(3, 3) == [10, 20, 30, 40]
    assert base_pattern_indices(5, 2) == [21, 42, 63]


def test_hyperplane_set_3_2():
    hset = hyperplane_set(3, 2)
    assert np.allclose(hset.base_normal, [0, 2, 0])
    assert list(hset.element_powers) == list(range(5))
    assert len(hset.images) == 5
    # normals transform slotwise by the group weights
    w = generator_weights(3, 2)
    for k, img in zip(hset.element_powers, hset.images):
        want = [b * unit_root(-k * wi, 15) for b, wi in zip(hset.base_normal, w)]
        assert np.allclose(img, want, atol=1e-12)


def test_hyperplane_images_distinct_5_2():
    # with several nonzero slots no two image normals are proportional
    hset = hyperplane_set(5, 2)
    assert len(hset.images) == 21
    assert np.allclose(hset.base_normal, [0, 2, 0, 8, 0])
    for a in range(21):
        for b in range(a + 1, 21):
            u, v = np.asarray(hset.images[a]), np.asarray(hset.images[b])
            gram = abs(np.vdot(u, v)) ** 2
            assert gram < (1 - 1e-9) * np.vdot(u, u).real * np.vdot(v, v).real


# ---------------------------------------------------------------------------
# defect slopes


def test_defect_slope_off_hyperplane_3_2():
    res = defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG)
    assert 0.8 <= res.slope <= 1.2


def test_defect_on_hyperplane_3_2_is_exactly_aligned():
    # alpha_2 = 0 keeps the residual diagonal symmetry of the tracked
    # pattern, so the triple stays collinear for every mu and the defect
    # never rises above rounding noise
    for nu in [(1, 0, 0), (0, 0, 1), (0.6, 0, -0.3j)]:
        res = defect_experiment(3, 2, nu, MU_GRID, CFG)
        assert max(res.defects) < 1e-12


def test_residual_symmetry_fixes_base_hyperplane_3_2():
    # g^K is x -> (w x1, x2, w x3), w = e^(2 pi i / 3); it fixes exactly the
    # members with alpha_2 = 0 (the base hyperplane) and cycles the pattern
    K = counts(3, 2).K
    g = group_elements(3, 2)[K]
    assert g.weights == (5, 0, 5)
    assert group_elements(5, 2)[counts(5, 2).K].weights == (21, 0, 21, 0, 21)
    omega = unit_root(1, 3)
    for alpha in [(0.02, 0, 0), (0.01, 0, -0.03j), (0.006 - 0.01j, 0, 0.004)]:
        _, alpha_t, _ = pushforward_factor(g, FoliationParams(3, 2, alpha))
        assert np.max(np.abs(np.array(alpha_t) - alpha)) < FACTOR_TOL
    alpha = (0.01, 0.02 + 0.01j, -0.005)
    _, alpha_t, _ = pushforward_factor(g, FoliationParams(3, 2, alpha))
    assert abs(alpha_t[1] - omega ** 2 * alpha[1]) < FACTOR_TOL
    assert abs(alpha_t[1] - alpha[1]) > 0.01
    closed = np.array([p.coords for p in closed_form_sing(3, 2)])
    image = {m: int(np.argmin(np.max(np.abs(closed - group_action(g, closed[m - 1])),
                                     axis=1))) + 1
             for m in base_pattern_indices(3, 2)}
    assert image == {5: 10, 10: 15, 15: 5}


def test_defect_slope_quadratic_on_mixed_hyperplane_5_2():
    # 2 nu_2 + 8 nu_4 = 0 with odd slots populated: genuine second order
    res = defect_experiment(5, 2, (1, 0.8, 0, -0.2, 0), MU_GRID, CFG)
    assert 1.8 <= res.slope <= 2.2


def test_defect_slope_quartic_on_even_support_5_2():
    # even-slot directions commute with the pattern symmetry up to a phase,
    # which empties orders 2 and 3 as well
    res = defect_experiment(5, 2, (0, 4, 0, -1, 0), MU_GRID, CFG)
    assert 3.8 <= res.slope <= 4.2


def test_defect_slopes_cluster_by_class_5_2():
    rng = np.random.default_rng(207)
    normal = np.array([0, 2, 0, 8, 0], dtype=float)
    normal /= np.linalg.norm(normal)
    on_h, off_h = [], []
    while len(on_h) < 10 or len(off_h) < 10:
        nu = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        ang = np.arcsin(min(1.0, abs(np.vdot(normal, nu)) / np.linalg.norm(nu)))
        if ang > 0.1 and len(off_h) < 10:
            off_h.append(nu / np.max(np.abs(nu)))
        elif len(on_h) < 10:
            nu[3] = -nu[1] * 2 / 8          # project onto the hyperplane
            on_h.append(nu / np.max(np.abs(nu)))
    for nu in on_h:
        assert 1.8 <= defect_experiment(5, 2, tuple(nu), MU_GRID, CFG).slope <= 2.2
    for nu in off_h:
        assert 0.8 <= defect_experiment(5, 2, tuple(nu), MU_GRID, CFG).slope <= 1.2


def test_defect_alternate_projection_loses_first_order():
    # the middle coordinate is constant on the base pattern, so the (1,2)
    # projection cancels the linear term even off the hyperplane
    res = defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=(1, 2))
    assert 2.0 <= res.slope <= 2.3


def test_defect_validation():
    with pytest.raises(InputError):
        defect_experiment(2, 2, (0, 1), MU_GRID, CFG)            # even n
    with pytest.raises(InputError):
        defect_experiment(3, 1, (0, 1, 0), MU_GRID, CFG)         # d = 1
    with pytest.raises(InputError):
        defect_experiment(3, 2, (0, 1), MU_GRID, CFG)            # arity
    with pytest.raises(InputError):
        defect_experiment(3, 2, (0, 1, 0), (0.2,), CFG)          # single mu, too big
    with pytest.raises(InputError):
        defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=(1, 1))


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def test_sample_deterministic_and_consistent():
    cfg = RunConfig(samples=60, max_order=6)
    a = genericity_sample(2, 2, cfg)
    b = genericity_sample(2, 2, cfg)
    assert a == b
    assert a.samples == 60
    assert a.n_failed + 60 - a.n_failed == 60
    assert a.frac_failures == a.n_failed / 60
    assert a.frac_all_hyperbolic == a.n_all_hyperbolic / 60


def test_sample_worker_count_does_not_change_result():
    cfg = RunConfig(samples=40, max_order=6)
    assert genericity_sample(2, 2, cfg) == genericity_sample(2, 2, cfg, jobs=2)


def test_sample_small_run_is_clean():
    s = genericity_sample(2, 2, RunConfig(samples=60, max_order=6))
    assert s.frac_failures == 0.0
    assert s.frac_all_hyperbolic >= 0.95
    assert s.frac_any_resonant <= 0.05


def test_sample_note_text_is_fixed():
    s = genericity_sample(2, 2, RunConfig(samples=10, max_order=4))
    assert s.note == ("finite sample with a truncated resonance scan; "
                      "not a proof of a full-measure statement")


def _reference_sample(n, d, cfg):
    # one draw at a time, one zero at a time: (failed, all hyperbolic, any resonant)
    u = np.random.default_rng(cfg.seed).random((cfg.samples, n, 2))
    alphas = cfg.radius * np.sqrt(u[:, :, 0]) * np.exp(2j * np.pi * u[:, :, 1])
    failed = hyp = res = 0
    for alpha in alphas:
        params = FoliationParams(n, d, tuple(alpha))
        try:
            field = family_field(params)
            reports = [spectrum_report(field, p, cfg) for p in track_singularities(params, cfg)]
        except (ConvergenceError, CollisionError):
            failed += 1
            continue
        hyp += all(r.classification == HYPERBOLIC for r in reports)
        res += any(r.divisor.resonant for r in reports)
    return failed, hyp, res


@pytest.mark.parametrize("cfg,fails", [
    (RunConfig(samples=20, max_order=6), "none"),
    (RunConfig(samples=10, max_order=6, dedup_tol=10), "all"),  # every draw collides
    (RunConfig(samples=20, max_order=6, newton_tol=4e-16, max_iters=5), "some"),
], ids=["clean", "collisions", "some-fail"])
def test_sample_equals_per_draw_reference(cfg, fails):
    s = genericity_sample(3, 2, cfg)
    assert (s.n_failed, s.n_all_hyperbolic, s.n_any_resonant) == _reference_sample(3, 2, cfg)
    assert genericity_sample(3, 2, cfg, jobs=3) == s
    assert {"none": s.n_failed == 0, "all": s.n_failed == cfg.samples,
            "some": 0 < s.n_failed < cfg.samples}[fails]


def test_sample_rejects_zero_jobs():
    with pytest.raises(InputError):
        genericity_sample(2, 2, RunConfig(samples=2), jobs=0)
