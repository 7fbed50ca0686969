"""Submersion checks, derivative tables, alignment census, defect slopes, sampling."""

import gc
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from foliationlab import genericity, solver, spectral
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
    char_poly_direct,
    closed_form_coords,
    closed_form_sing,
    coeff_derivative_table,
    counts,
    defect_experiment,
    expected_det_modulus,
    family_field,
    first_order_point,
    generator_weights,
    genericity_sample,
    group_action,
    group_elements,
    hyperplane_set,
    jacobian,
    jouanolou_field,
    pushforward_factor,
    sigma_at_ones,
    spectrum_report,
    submersion_all,
    submersion_report,
    track_one,
    track_singularities,
    track_zeros,
    unit_root,
)
from foliationlab.errors import VerificationError
from foliationlab.genericity import CENSUS_MAX_POINTS, DEFECT_NOISE_FLOOR, SUBMERSION_RTOL, SubmersionReport
from foliationlab.jouanolou import FACTOR_TOL, SingularPoint

CFG = RunConfig()
ROOT = Path(__file__).resolve().parents[1]
MU_GRID = (1e-2, 3e-3, 1e-3, 3e-4)


# ---------------------------------------------------------------------------
# coefficient map and submersion


def test_char_coeff_map_at_zero():
    assert np.allclose(char_coeff_map(2, 2, 7, np.zeros(2), CFG), [4.0, 7.0], atol=1e-12)


def test_sigma_at_ones_frozen():
    assert np.allclose(sigma_at_ones(2, 2), [4, 7])
    assert np.allclose(sigma_at_ones(3, 2), [5, 11, 15])
    assert np.allclose(sigma_at_ones(2, 3), [5, 13])


@pytest.mark.parametrize("helper,n,d,message", [
    (sigma_at_ones, -1, 2, "^ambient dimension must be an integer >= 2, got -1$"),
    (sigma_at_ones, 0, 2, "^ambient dimension must be an integer >= 2, got 0$"),
    (sigma_at_ones, 2, 0, "^degree must be an integer >= 1, got 0$"),
    (sigma_at_ones, 2.0, 2, "^ambient dimension must be an integer >= 2, got 2.0$"),
    # (n, d) that counts takes, with a value past the float range
    (sigma_at_ones, 400, 10, r"^coefficients at \(n, d\) = \(400, 10\) exceed the float range$"),
    (expected_det_modulus, 44, 2,
     r"^determinant modulus at \(n, d\) = \(44, 2\) exceeds the float range$"),
    # refused by its entries before an array of n entries is allocated
    (sigma_at_ones, 10**13, 1,
     r"^coefficients at \(n, d\) = \(10000000000000, 1\) exceed the float range$"),
], ids=["n-negative", "n-zero", "d-zero", "n-float", "sigma-float-range", "modulus-float-range",
        "sigma-huge-n"])
def test_sigma_at_ones_refuses_what_counts_refuses(helper, n, d, message):
    with pytest.raises(InputError, match=message):
        helper(n, d)


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
    assert expected_det_modulus(43, 2) == pytest.approx(6.691576088150404e285)  # (44, 2) is refused


def test_submersion_report_2_2():
    rep = submersion_report(2, 2, 7, CFG)
    assert rep.rel_error < 1e-4
    assert abs(rep.det) == pytest.approx(64 / 7, rel=1e-4)
    assert rep.sv_min > 1e-6 * rep.sv_max


def test_submersion_all_m_independent():
    dets = [abs(r.det) for r in submersion_all(2, 2, CFG)]
    assert np.allclose(dets, 64 / 7, rtol=1e-4)


# every rung of the ladder, and one with a high degree
LADDER = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (5, 2), (7, 2), (2, 30)]


def _cauchy_jacs(n, d):
    # d sigma_i / d alpha_j at every zero by an (n d + 1)-point Cauchy rule on
    # sigma along x + zeta w_j, w = -J^-1: F has degree d + 1, so sigma has
    # degree at most n d along a line and the rule is exact up to rounding
    base = jouanolou_field(n, d)
    x = closed_form_coords(n, d)
    w = np.linalg.solve(jacobian(base, x), -np.eye(n))
    k = n * d + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    r = 0.03 / np.abs(w).max(axis=1)  # one radius per column
    steps = r[..., None] * np.swapaxes(w, 1, 2)  # [zero, j] is r_j w_j
    pts = x[:, None, None, :] + nodes[:, None, None] * steps[:, None]
    # sigma[zero, node, j, i]
    sigma = char_poly_direct(base, pts.reshape(-1, n)).reshape(len(x), k, n, n)
    return np.einsum("k,zkji->zij", nodes.conj(), sigma) / (k * r[:, None, :])


@pytest.mark.parametrize("n,d", LADDER)
def test_submersion_equals_the_cauchy_rule_on_sigma(n, d):
    reports = submersion_all(n, d, CFG)
    got = np.array([r.jac for r in reports])
    want = _cauchy_jacs(n, d)
    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * np.abs(got).max(axis=(1, 2))).all()
    assert max(r.rel_error for r in reports) < 1e-13


@pytest.mark.parametrize("n,d", LADDER)
def test_submersion_singular_values_equal_the_real_embedding(n, d):
    # the real 2n x 2n embedding of jac has each singular value of jac twice;
    # both ends agree with its SVD to rounding, measured against sv_max
    for r in submersion_all(n, d, CFG):
        real = np.block([[r.jac.real, -r.jac.imag], [r.jac.imag, r.jac.real]])
        sv = np.linalg.svd(real, compute_uv=False)
        assert np.abs(sv[::2] - sv[1::2]).max() <= 1e-14 * sv[0]
        assert abs(sv[-1] - r.sv_min) <= 1e-14 * r.sv_max
        assert abs(sv[0] - r.sv_max) <= 1e-14 * r.sv_max


def test_submersion_modulus_is_exact_at_2_200():
    # N = 40201; central differences missed by 2e-8 here
    assert max(r.rel_error for r in submersion_all(2, 200, CFG)) < 1e-13


@pytest.mark.parametrize("n,d", LADDER)
def test_ift_direction_is_the_first_order_term(n, d):
    # -J^-1, the oracle's direction, is the linear term of first_order_point
    base = jouanolou_field(n, d)
    for m, x in enumerate(closed_form_coords(n, d), 1):
        w = -np.linalg.inv(jacobian(base, x))
        linear = np.column_stack([first_order_point(n, d, m, e) - x for e in np.eye(n)])
        assert np.abs(w - linear).max() <= 1e-12 * np.abs(w).max()


# finite-difference stencils on the tracked coefficient map, the test-side
# oracles of the exact Jacobian: (node, weight) pairs on the circle |alpha_j| = h
STENCILS = {"central": ((1, 1), (-1, -1)), "cauchy4": tuple((1j**k, 1j**-k) for k in range(4))}


def _stencil_jac(n, d, m, h, stencil, cfg=CFG):
    # one probe member alpha = h node e_j per node and column, each tracked alone
    nodes = STENCILS[stencil]
    cols = []
    for step in h * np.eye(n):
        col = sum(char_coeff_map(n, d, m, step * node, cfg) * weight for node, weight in nodes)
        cols.append(col / (len(nodes) * h))
    return np.column_stack(cols)


def test_submersion_fd_error_scales_quadratically():
    # a central difference misses by O(h^2): halving h quarters its gap to the
    # exact Jacobian, and at h = 1e-3 its determinant misses by far more
    for n, d, m in [(2, 2, 7), (3, 2, 15)]:
        rep = submersion_report(n, d, m, CFG)
        gaps = [np.abs(_stencil_jac(n, d, m, h, "central") - rep.jac).max() for h in (3e-3, 1.5e-3)]
        assert 3.0 < gaps[0] / gaps[1] < 5.0
        assert np.abs(_stencil_jac(n, d, m, 1e-5, "central") - rep.jac).max() < 1e-9 * np.abs(rep.jac).max()
        central = abs(np.linalg.det(_stencil_jac(n, d, m, 1e-3, "central")))
        assert rep.rel_error < 1e-2 * abs(central - rep.expected_modulus) / rep.expected_modulus


def test_cauchy_stencil_beats_central():
    # at one step the four-node stencil's O(h^4) misses the exact Jacobian,
    # and its determinant the certified modulus, by under 1e-2 of the central
    # stencil's O(h^2) misses; a Jacobian with an O(h^2) error of its own fails
    for n, d, m in [(2, 2, 7), (3, 2, 15)]:
        rep = submersion_report(n, d, m, CFG)
        central, cauchy = (_stencil_jac(n, d, m, 1e-3, stencil) for stencil in ("central", "cauchy4"))
        assert np.abs(cauchy - rep.jac).max() < 1e-2 * np.abs(central - rep.jac).max()
        misses = [abs(abs(np.linalg.det(jac)) - rep.expected_modulus) for jac in (central, cauchy)]
        assert misses[1] < 1e-2 * misses[0]


@pytest.mark.parametrize("stencil", ["central", "cauchy4"])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_submersion_all_equals_one_zero_at_a_time_reference(n, d, stencil):
    # every report is bitwise its own one-zero report, and the stencil on
    # that zero alone agrees with it to the stencil's error (measured at most
    # 2.1e-11 for central at h = 1e-5 and 1.8e-13 for cauchy4 at h = 1e-3)
    h, tol = {"central": (1e-5, 1e-9), "cauchy4": (1e-3, 1e-11)}[stencil]
    reports = submersion_all(n, d, CFG)
    assert [r.m for r in reports] == list(range(1, counts(n, d).N + 1))
    for r in reports:
        one = submersion_report(n, d, r.m, CFG)
        assert (one.jac.tobytes(), one.det, one.rel_error, one.sv_min, one.sv_max) == (
            r.jac.tobytes(), r.det, r.rel_error, r.sv_min, r.sv_max)
        assert np.abs(_stencil_jac(n, d, r.m, h, stencil) - r.jac).max() < tol * np.abs(r.jac).max()


def test_submersion_reports_are_frozen():
    # digest taken when the adjugate-Hessian product became an einsum, whose
    # bits do not depend on the BLAS thread count, and re-taken when fields were
    # evaluated through one power table; the reports track nothing, so a change
    # to the tracker's start moves no bit
    h = hashlib.sha256()
    for n, d in [(3, 2), (5, 3), (7, 2)]:
        for r in submersion_all(n, d, CFG):
            h.update(repr((r.m, r.jac.tobytes(), r.det, r.expected_modulus, r.rel_error,
                           r.sv_min, r.sv_max)).encode())
    assert h.hexdigest() == "00e44bc4535ad8b110bd84814c5356237a77005e504cc853f24cdab99f3b4a93"


def test_probe_layer_is_frozen():
    # digest taken when the adjugate-Hessian product of Jacobi's formula became
    # an einsum; the tracked char_coeff_map rows moved when tracking began at
    # the first-order point, and every value when fields were evaluated
    # through one power table
    h = hashlib.sha256()
    for n, d in [(2, 2), (3, 2)]:
        for m in range(1, counts(n, d).N + 1):
            r = submersion_report(n, d, m, CFG)
            h.update(r.jac.tobytes() + np.array([r.det, r.sv_min, r.sv_max, r.rel_error]).tobytes())
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        for e in coeff_derivative_table(n, d, CFG):
            h.update(repr((e.i, e.j, e.value, e.formula, e.rel_error)).encode())
    for alpha in [(0, 0, 0), (0.01, 0.02j, -0.005)]:
        h.update(char_coeff_map(3, 2, 4, alpha, CFG).tobytes())
    assert h.hexdigest() == "ef5e26514312e7de3593a72516741932d0eeeb600a6eb23ce1fe44faa659dee0"


def test_submersion_refuses_an_oversized_member_before_any_probe_array():
    # an (n, n) complex array at n = 3001 would take about 144 MB
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"^member \(n, d\) = \(3001, 1\) is too large"):
            submersion_report(3001, 1, 1, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _probe_outputs(cfg):
    # every probe-layer result as bytes, or the class and text of its error
    out = []
    for call in (lambda: submersion_all(3, 2, cfg), lambda: submersion_all(2, 3, cfg),
                 lambda: [submersion_report(3, 2, 4, cfg)],
                 lambda: [submersion_report(2, 2, 7, cfg)]):
        try:
            out += [(r.m, r.jac.tobytes(), r.det, r.rel_error, r.sv_min, r.sv_max) for r in call()]
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    try:
        out += [(e.i, e.j, e.value, e.formula, e.rel_error) for e in coeff_derivative_table(3, 2, cfg)]
    except Exception as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def _tracking_calls(monkeypatch):
    # the name of every tracking call from here on, and (members, indices)
    # for every solver._continue call; each call goes on to the real one
    calls = []
    real_continue = solver._continue

    def continue_spy(n, d, alphas, ms, cfg):
        calls.append(("_continue", len(alphas), len(ms)))
        return real_continue(n, d, alphas, ms, cfg)

    monkeypatch.setattr(solver, "_continue", continue_spy)
    for module, name in [(solver, "track_zeros"), (solver, "track_one"),
                         (genericity, "track_zeros"), (genericity, "track_one")]:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name):
            calls.append((_name,))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_submersion_tracks_each_probe_member_as_one_batch(monkeypatch):
    # the reports track no member at all; a stencil on the coefficient map
    # tracks each of its probe members, one zero each, as one batch
    calls = _tracking_calls(monkeypatch)
    _probe_outputs(CFG)
    assert calls == []
    _stencil_jac(3, 2, 4, 1e-3, "cauchy4")
    assert calls == [("track_zeros",), ("_continue", 1, 1)] * 12


@pytest.mark.parametrize("stencil", ["central", "cauchy4"])
def test_submersion_raises_the_first_probe_members_tracking_error(stencil):
    # no member converges: a stencil raises its first probe member's error,
    # alpha = (h, 0); the exact reports track nothing, so no bit of them moves
    cfg = RunConfig(newton_tol=1e-17, max_iters=2)
    with pytest.raises(ConvergenceError) as want:
        track_zeros(FoliationParams(2, 2, (1e-3, 0)), [7], cfg)
    assert str(want.value) == "tracking failed for index m=7 at steps=64: newton stalled above tolerance"
    with pytest.raises(ConvergenceError) as got:
        _stencil_jac(2, 2, 7, 1e-3, stencil, cfg)
    assert str(got.value) == str(want.value)
    assert _probe_outputs(cfg) == _probe_outputs(CFG)


@pytest.mark.parametrize("stencil", ["central", "cauchy4"])
def test_submersion_refuses_a_step_outside_the_polydisk(stencil):
    # a stencil whose first probe member leaves the polydisk is refused; the
    # exact reports take no step, so a radius of 1e-300 moves no bit of them
    with pytest.raises(InputError, match=r"^perturbation size 0\.06 exceeds "
                       r"the tracked polydisk radius 0\.05$"):
        _stencil_jac(2, 2, 7, 0.06, stencil)
    assert _probe_outputs(RunConfig(radius=1e-300)) == _probe_outputs(CFG)


@pytest.mark.parametrize("cfg", [CFG, RunConfig(radius=0.5), RunConfig(newton_tol=1e-17, max_iters=2)],
                         ids=["default", "wide-step", "stalling"])
def test_probe_members_split_into_one_member_batches_bitwise(monkeypatch, cfg):
    # the reports probe each zero by the n columns of -J^-1 and take the zeros
    # in blocks under MEMBER_MAX_ENTRIES; no bit depends on the blocks or on
    # cfg, whether it admits ten times wider steps or stalls every tracking
    whole = _probe_outputs(CFG) + [r.jac.tobytes() for r in submersion_all(5, 2, CFG)]
    for limit in (1, 55):  # one zero per block; blocks of 2 at n = 3 and of 6 at n = 2
        monkeypatch.setattr(genericity, "MEMBER_MAX_ENTRIES", limit)
        assert _probe_outputs(cfg) + [r.jac.tobytes() for r in submersion_all(5, 2, cfg)] == whole


def test_probe_batches_hold_at_most_the_member_limit(monkeypatch):
    # the reports' batches are blocks of zeros; (3, 2): 15 zeros of 27
    # second-partial entries each
    blocks = []
    real = genericity._evaluate

    def evaluate_spy(field, x, which, width, const=None):
        if which == 2:
            blocks.append(len(x))
        return real(field, x, which, width, const)

    monkeypatch.setattr(genericity, "_evaluate", evaluate_spy)
    for limit, want in [(27 * 15, [15]), (27 * 4, [4, 4, 4, 3]), (27 * 5 - 1, [4, 4, 4, 3]),
                        (27 * 5, [5, 5, 5]), (26, [1] * 15)]:
        monkeypatch.setattr(genericity, "MEMBER_MAX_ENTRIES", limit)
        blocks.clear()
        submersion_all(3, 2, CFG)
        assert blocks == want, limit


def test_a_submersion_report_builds_its_base_field_once(monkeypatch):
    # one base field per report, however many blocks the member limit makes
    built = []
    real = genericity.jouanolou_field

    def field_spy(n, d):
        built.append((n, d))
        return real(n, d)

    monkeypatch.setattr(genericity, "jouanolou_field", field_spy)
    monkeypatch.setattr(solver, "jouanolou_field", field_spy)
    whole = _probe_outputs(CFG)
    assert built == [(3, 2), (2, 3), (3, 2), (2, 2), (3, 2)]
    built.clear()
    monkeypatch.setattr(genericity, "MEMBER_MAX_ENTRIES", 1)
    assert _probe_outputs(CFG) == whole
    assert built == [(3, 2), (2, 3), (3, 2), (2, 2), (3, 2)]


def test_submersion_memory_follows_the_blocks(monkeypatch):
    # (2, 60), N = 3661: with blocks of a tenth of the zeros the work on top of
    # the reports the call returns (peak minus what is held after it) stays
    # well below that of one block
    n, d = 2, 60
    big_n = counts(n, d).N
    work = []
    for zeros in (big_n, big_n // 10):
        monkeypatch.setattr(genericity, "MEMBER_MAX_ENTRIES", zeros * n**3)
        gc.collect()
        tracemalloc.start()
        try:
            reports = submersion_all(n, d, CFG)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == big_n
        work.append(peak - held)
    assert work[1] < 0.3 * work[0], work


def _scale_jacobian_at(monkeypatch, n, d, scales):
    # the reports read J scaled by scales[m] at zero m (the second partials
    # unscaled): jac row i scales by s^(i - 2), and |det| by s^(n (n - 3) / 2)
    zeros = closed_form_coords(n, d)
    real = genericity.jacobian

    def scaled(field, x):
        out = real(field, x)
        for m, s in scales.items():
            out[(x == zeros[m - 1]).all(axis=-1)] *= s
        return out

    monkeypatch.setattr(genericity, "jacobian", scaled)


def test_submersion_all_refuses_its_first_modulus_miss(monkeypatch):
    # at (2, 2) |det| scales by 1 / s: m = 3 misses by 2.0e-3 and m = 5 by 3.0e-3
    _scale_jacobian_at(monkeypatch, 2, 2, {5: 1 - 3e-3, 3: 1 + 2e-3})
    with pytest.raises(VerificationError, match=r"^determinant modulus 9\.12461 misses certified "
                       r"value 9\.14286 \(rel error 1\.996e-03\) at m=3$") as info:
        submersion_all(2, 2, CFG)
    rep = info.value.payload
    assert isinstance(rep, SubmersionReport)
    assert (rep.m, f"{rep.rel_error:.3e}") == (3, "1.996e-03")
    assert rep.rel_error == abs(abs(rep.det) - rep.expected_modulus) / rep.expected_modulus


def test_submersion_report_names_its_index_when_the_modulus_misses(monkeypatch):
    _scale_jacobian_at(monkeypatch, 2, 2, {7: 1.0015})
    with pytest.raises(VerificationError, match=r"\(rel error 1\.498e-03\) at m=7$") as info:
        submersion_report(2, 2, 7, CFG)
    assert info.value.payload.m == 7


def test_submersion_at_d_1_passes_through_n_25():
    # the worst zero of (25, 1) is m = 15, and (26, 1) is first refused at
    # m = 5; a determinant that overflows, as from (66, 1) on, is refused in test_cli
    reports = submersion_all(25, 1, CFG)
    assert max(reports, key=lambda r: r.rel_error).m == 15
    assert f"{max(r.rel_error for r in reports):.3e}" == "4.757e-05"
    assert f"{reports[10].rel_error:.3e}" == "1.073e-05"
    with pytest.raises(VerificationError, match=r"\(rel error 1\.353e-04\) at m=5$"):
        submersion_all(26, 1, CFG)


_SUBMERSION_BITS = """
import hashlib
from foliationlab import RunConfig, VerificationError, submersion_all
h = hashlib.sha256()
for r in submersion_all(25, 1, RunConfig()):
    h.update(repr((r.m, r.jac.tobytes(), r.det, r.rel_error, r.sv_min, r.sv_max)).encode())
try:
    submersion_all(26, 1, RunConfig())
except VerificationError as exc:
    h.update(repr((str(exc), exc.payload.jac.tobytes())).encode())
print(h.hexdigest())
"""


def test_submersion_verdicts_do_not_depend_on_the_blas_thread_count():
    # a BLAS product's rounding may follow its thread count; the reports, and
    # so the verdict at (26, 1), must not
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _SUBMERSION_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_submersion_all_refuses_a_modulus_spread(monkeypatch):
    # the moduli straddle the certified one and spread by 1.2e-3; each zero is
    # checked against SUBMERSION_RTOL, so the first zero off by 6.0e-4 is refused
    _scale_jacobian_at(monkeypatch, 2, 2, {2: 1 + 6e-4, 6: 1 - 6e-4})
    with pytest.raises(VerificationError, match=r"^determinant modulus 9\.13737 misses certified "
                       r"value 9\.14286 \(rel error 5\.996e-04\) at m=2$") as info:
        submersion_all(2, 2, CFG)
    rep = info.value.payload
    assert rep.m == 2 and rep.rel_error > SUBMERSION_RTOL
    with pytest.raises(VerificationError, match=r"\(rel error 5\.996e-04\) at m=2$") as one:
        submersion_report(2, 2, 2, CFG)
    assert (one.value.payload.det, one.value.payload.jac.tobytes()) == (rep.det, rep.jac.tobytes())


# ---------------------------------------------------------------------------
# derivative table


def test_derivative_table_2_2_frozen():
    table = {(e.i, e.j): e for e in coeff_derivative_table(2, 2, CFG)}
    want = {(1, 1): 8 / 7, (1, 2): 16 / 7, (2, 1): 0.0, (2, 2): 8.0}
    for key, val in want.items():
        entry = table[key]
        assert entry.formula == pytest.approx(val, abs=1e-12)
        assert abs(entry.value - val) < 1e-12 * max(1, abs(val))
        assert entry.rel_error < 1e-12


def test_derivative_table_3_2_formula_rows():
    table = {(e.i, e.j): e for e in coeff_derivative_table(3, 2, CFG)}
    # j >= i-1 entries carry closed values; below that only the value
    assert table[(1, 3)].formula == pytest.approx(8 / 3)
    assert table[(3, 1)].formula is None
    for (i, j), entry in table.items():
        if entry.formula is not None:
            assert entry.rel_error < 1e-4


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2), (7, 2), (2, 30)])
def test_derivative_table_closed_values_hold_to_1e_12(n, d):
    entries = coeff_derivative_table(n, d, CFG)
    assert len(entries) == n * n
    assert max(e.rel_error for e in entries if e.formula is not None) < 1e-12


def test_derivative_table_refuses_its_mismatches_with_the_full_table(monkeypatch):
    # sigma_2 = 7 moved by 5e-5 relative: the closed (2, 1) entry moves by 2e-4
    monkeypatch.setattr(genericity, "sigma_at_ones", lambda n, d: np.array([4.0, 7.0 + 3.5e-4]))
    with pytest.raises(VerificationError) as info:
        coeff_derivative_table(2, 2, CFG)
    assert str(info.value) == ("derivative table mismatches beyond 0.0001: "
                               "[(2, 1, 0.00020000000000042206)]")
    entries = info.value.payload
    assert [(e.i, e.j) for e in entries] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    jac = submersion_report(2, 2, 7, CFG).jac
    assert [e.value for e in entries] == [complex(v) for v in jac.ravel()]
    assert [e.rel_error > SUBMERSION_RTOL for e in entries] == [False, False, True, False]


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



@pytest.mark.parametrize("d", [2.5, 2.0, "2", True])
def test_census_refuses_a_d_that_is_not_an_integer(d):
    with pytest.raises(InputError, match=r"^d must be an integer, got "):
        alignment_census(closed_form_sing(3, 2), d, CFG)


def test_census_takes_a_numpy_integer_d():
    records = alignment_census(closed_form_sing(3, 2), np.int64(2), CFG)
    assert [(r.indices, r.residual) for r in records] == [
        (r.indices, r.residual) for r in alignment_census(closed_form_sing(3, 2), 2, CFG)]
    assert len(records) == 5

def test_census_skips_a_pair_of_coincident_points():
    # the pair (p1, p1 relabelled 99) spans no line; (p1, p2) then holds all three
    p1, p2 = closed_form_sing(3, 2)[:2]
    records = alignment_census([p1, replace(p1, m=99), p2], 2, CFG)
    assert [r.indices for r in records] == [(1, 2, 99)]
    assert records[0].line_point.tolist() == list(p1.coords)


def test_census_rejects_fewer_than_d_plus_one_points():
    with pytest.raises(InputError, match=r"^need at least d \+ 1 = 3 points, got 2$"):
        alignment_census(closed_form_sing(3, 2)[:2], 2, CFG)


def test_census_rejects_too_many_points():
    # one shared point object: the list is cheap, and the limit is checked first
    p = closed_form_sing(3, 2)[0]
    with pytest.raises(InputError, match=str(CENSUS_MAX_POINTS)):
        alignment_census([p] * (CENSUS_MAX_POINTS + 1), 2, CFG)


def _with_point_3(coords):
    pts = closed_form_sing(3, 2)
    return pts[:3] + [replace(pts[3], coords=coords)] + pts[4:]


# malformed points with the InputError message that census and spectra both give
_malformed_points = pytest.mark.parametrize("points,message", [
    (_with_point_3((1j, 2.0)), "^point coords must have one length, got 2 and 3$"),
    (_with_point_3((np.nan, 1j, 2.0)), "^point coords must be finite numbers$"),
    (_with_point_3((complex(0, np.inf), 1j, 2.0)), "^point coords must be finite numbers$"),
    (_with_point_3(("a", "b", "c")), "^point coords must be finite numbers$"),
    (_with_point_3(5), "^points must be singular points, each with m and a coords sequence$"),
    (closed_form_sing(3, 2)[:3] + [(1j, 2.0, 3.0)], "^points must be singular points"),
], ids=["lengths", "nan", "inf", "str", "scalar", "no-coords"])


@_malformed_points
def test_census_refuses_malformed_points(points, message):
    # refused before np.array or the screen sees them
    with pytest.raises(InputError, match=message):
        alignment_census(points, 2, CFG)


@_malformed_points
def test_spectrum_reports_refuse_malformed_points(points, message):
    # refused before np.array or the spectral kernel sees them
    with pytest.raises(InputError, match=message):
        spectral.spectrum_reports(family_field(FoliationParams(3, 2)), points, CFG)


def test_spectrum_reports_refuse_no_points():
    with pytest.raises(InputError, match="^no points given$"):
        spectral.spectrum_reports(family_field(FoliationParams(3, 2)), [], CFG)


@pytest.mark.parametrize("point", ["x", 5, None, (1j, 2.0, 3.0)])
def test_spectrum_report_refuses_what_is_not_a_point(point):
    # spectrum_reports' message, without its array pass over the coords
    with pytest.raises(InputError, match="^points must be singular points, each with m and a coords sequence$"):
        spectral.spectrum_report(family_field(FoliationParams(3, 2)), point, CFG)


@pytest.mark.parametrize("coords", [("a", "b", "c"), (object(), 1j, 2.0), ((1, 2), 1j, 2.0)],
                         ids=["str", "object", "ragged"])
def test_spectrum_report_refuses_coords_that_are_not_numbers(coords):
    # spectrum_reports' message, caught where the coords are converted
    point = replace(closed_form_sing(3, 2)[3], coords=coords)
    with pytest.raises(InputError, match="^point coords must be finite numbers$"):
        spectral.spectrum_report(family_field(FoliationParams(3, 2)), point, CFG)


def test_census_takes_real_coords_as_complex():
    points = closed_form_sing(3, 3)
    real = [replace(p, coords=tuple(c.real for c in p.coords)) for p in points]
    cast = [replace(p, coords=tuple(complex(c.real) for c in p.coords)) for p in points]
    want = [(r.indices, r.line_dir.tobytes()) for r in alignment_census(cast, 3, CFG)]
    assert want
    assert [(r.indices, r.line_dir.tobytes()) for r in alignment_census(real, 3, CFG)] == want


def _reference_census(points, d, cfg):
    # the plain O(N^3) sweep: the pair test on every pair (a, b), a < b
    coords = np.array([p.coords for p in points])
    labels = [p.m for p in points]
    count = len(points)
    tol = cfg.align_tol
    found = {}
    covered = set()
    for a in range(count):
        for b in range(a + 1, count):
            if frozenset((a, b)) in covered:
                continue
            direction = coords[b] - coords[a]
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction = direction / norm
            rel = coords - coords[a]
            along = rel @ np.conj(direction)
            dist = np.linalg.norm(rel - along[:, None] * direction[None, :], axis=1)
            members = np.flatnonzero(dist < tol)
            if members.shape[0] < d + 1:
                continue
            for s in range(members.shape[0]):
                for t in range(s + 1, members.shape[0]):
                    covered.add(frozenset((int(members[s]), int(members[t]))))
            key = tuple(sorted(labels[i] for i in members))
            if key not in found:
                found[key] = (key, coords[a].copy(), direction, float(dist[members].max()))
    return [found[key] for key in sorted(found)]


def _points(coords):
    rows = np.asarray(coords, dtype=complex).tolist()
    return [SingularPoint(m=m, coords=tuple(row), residual=0.0, converged=True, newton_iters=0)
            for m, row in enumerate(rows, start=1)]


def _tracked(n, d, seed, on_base_hyperplane=False):
    u = np.random.default_rng(seed).random((n, 2))
    alpha = 0.02 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    if on_base_hyperplane:
        alpha[1::2] = 0.0
    return track_singularities(FoliationParams(n, d, tuple(alpha)), CFG)


def _near_tolerance_set(scale=1.0):
    # In C^3: a line L through m=1 and m=2 along u, with points off it by
    # tol (1 -+ 1e-6) along w, Hermitian-orthogonal to u.  The pair (1, 2)
    # covers (1, 3), whose tilted line would hold 4 but not 5.  A second line
    # is first spanned by m=7 and m=8, 1e-6 apart.
    tol = CFG.align_tol
    u = np.array([1.0, 1j, 0.5 - 0.5j]) / np.sqrt(2.5)
    w = np.array([1j, 1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.2, -1j, 0.6]) / np.sqrt(1.4)
    x = np.array([0.0, 0.6, 1j])
    x = (x - np.vdot(v, x) * v) / np.linalg.norm(x - np.vdot(v, x) * v)
    assert abs(np.vdot(u, w)) < 1e-15 and abs(np.vdot(v, x)) < 1e-15
    inside, outside = tol * (1 - 1e-6), tol * (1 + 1e-6)
    q = -1.5 * w + 0.3 * u
    coords = [
        0.0 * u,
        1.0 * u,
        2.0 * u + inside * w,
        3.0 * u + outside * w,
        -2.0 * u + inside * w,
        0.7 * u + 1e-6 * w,
        q,
        q + 1e-6 * v,
        q + 2.0 * v,
        q - 3.0 * v + 0.5 * inside * x,
    ]
    return _points(np.array(coords) * scale)


EDGE_TOL = 1e-5


def _window_edge_set(rho, duplicates=False):
    # In C^3: the line through m=1 (the origin) and m=2 along u, with m=3 at
    # EDGE_TOL (1 - 1e-6) from it and m=4 at EDGE_TOL (1 + 1e-6), both rho
    # away from m=1.  u, and the side m=3 lies on, are chosen so that m=3's
    # key, seen from m=1, differs from m=2's by sin(angle at m=1), the most a
    # point at that distance can: the full half-width of m=3's window, which
    # scales as 1 / rho.  With duplicates, m=5 repeats m=1 and m=6 repeats m=2.
    w = 1.0 / np.sqrt([2.0, 3.0, 4.0])  # the screen's fixed vector, normalized below
    w /= np.linalg.norm(w)
    v = np.array([0.3 - 1j, 1.0, 0.2j])
    z0 = v - np.vdot(w, v) * w
    z0 /= np.linalg.norm(z0)  # a unit Hermitian-orthogonal to the real w
    theta = np.arcsin(EDGE_TOL / rho)
    beta = (theta + np.pi / 2) / 2
    u = np.cos(beta) * w + np.sin(beta) * z0
    z = -np.sin(beta) * w + np.cos(beta) * z0
    coords = [0.0 * u, u]
    for dist in (EDGE_TOL * (1 - 1e-6), EDGE_TOL * (1 + 1e-6)):
        coords.append(-rho * np.sqrt(1 - (dist / rho) ** 2) * u + dist * z)
    if duplicates:
        coords += [0.0 * u, u.copy()]
    return _points(coords)


def _coarse_edge_set(rho):
    # In C^3, for d = 3: the line through m=1 (the origin) and m=2 = 2 rho u
    # holds m=3 and m=4, rho from m=1 and EDGE_TOL (1 - 1e-6) from the line,
    # on either side of it in the plane of u and the screen's fixed vector.
    # Seen from m=1 their keys differ from m=2's by about -+ EDGE_TOL / rho,
    # the half-width of their windows and the widest of the anchor, so the
    # three keys span almost twice it.  No other pair's line holds four.
    w = 1.0 / np.sqrt([2.0, 3.0, 4.0])
    w /= np.linalg.norm(w)
    v = np.array([0.3 - 1j, 1.0, 0.2j])
    z0 = v - np.vdot(w, v) * w
    z0 /= np.linalg.norm(z0)
    theta = np.arcsin(EDGE_TOL * (1 - 1e-6) / rho)
    coords = [0.0 * w, 2 * rho * (w + z0) / np.sqrt(2.0)]
    for phi in (np.pi / 4 - theta, np.pi / 4 + theta):
        coords.append(rho * (np.cos(phi) * w + np.sin(phi) * z0))
    return _points(coords)


def _tied_key_set():
    # Seen from m=1 (the origin), v 2^k and conj(v) 2^k have bitwise the same
    # key for every v and k (the imaginary parts only change sign, and powers
    # of two cancel exactly), so the keys fall into few exactly tied groups.
    # Each line through the origin along v or conj(v) holds four points, and
    # each axis three.
    vs = np.random.default_rng(5).normal(size=(3, 3, 2)) @ [1.0, 1j]
    coords = [np.zeros(3)]
    for v in vs:
        for k in range(3):
            coords += [v * 2.0**k, np.conj(v) * 2.0**k]
    for j in range(3):
        coords += [np.eye(3)[j], np.eye(3)[j] * -2j]
    return _points(coords)


def _census_cases():
    cases = {f"closed-{n}-{d}": (closed_form_sing(n, d), d, CFG)
             for n, d in [(2, 2), (4, 2), (3, 2), (3, 3), (5, 2)]}
    for n, d in [(3, 2), (3, 3), (5, 2)]:
        cases[f"tracked-{n}-{d}"] = (_tracked(n, d, 7), d, CFG)
        cases[f"tracked-{n}-{d}-wide-tol"] = (_tracked(n, d, 7), d, RunConfig(align_tol=0.05))
    cases["tracked-3-2-on-hyperplane"] = (_tracked(3, 2, 7, on_base_hyperplane=True), 2, CFG)
    pts = closed_form_sing(3, 3)
    perm = np.random.default_rng(3).permutation(len(pts))
    cases["shuffled-3-3"] = ([pts[i] for i in perm], 3, CFG)
    pts = closed_form_sing(3, 2)
    cases["duplicate-3-2"] = (pts[:7] + [replace(pts[4], m=99)] + pts[7:], 2, CFG)
    cases["near-tolerance"] = (_near_tolerance_set(), 2, CFG)
    cases["near-tolerance-x1e3"] = (_near_tolerance_set(1e3), 2, RunConfig(align_tol=1e-5))
    cases["closed-3-3-x1e3"] = (_points(np.array([p.coords for p in closed_form_sing(3, 3)]) * 1e3),
                                3, CFG)
    # 2^+-250 are scaled inside the screen; 2^+-320 fall outside its range
    for k in (-320, -250, 250, 320):
        coords = np.array([p.coords for p in closed_form_sing(3, 2)]) * 2.0**k
        cases[f"closed-3-2-x2^{k}"] = (_points(coords), 2, RunConfig(align_tol=1e-8 * 2.0**k))
        coords = np.array([p.coords for p in _window_edge_set(1e3)]) * 2.0**k
        cases[f"window-edge-1000-x2^{k}"] = (_points(coords), 2, RunConfig(align_tol=EDGE_TOL * 2.0**k))
    edge = RunConfig(align_tol=EDGE_TOL)
    for rho in (1e-3, 1e3):
        cases[f"window-edge-{rho:g}"] = (_window_edge_set(rho), 2, edge)
        cases[f"window-edge-{rho:g}-duplicates"] = (_window_edge_set(rho, duplicates=True), 2, edge)
    cases["tied-keys"] = (_tied_key_set(), 2, CFG)
    # m=2 lies 2^-470 from m=1, too close for its key to be trusted; the line
    # it spans, tilted by 1e-12 from the one through m=3 and m=4, holds all four
    u, z = np.array([0.6, 0.8j, 0.0]), np.array([0.0, 0.0, 1.0])
    cases["near-anchor"] = (_points([0.0 * u, 2.0**-470 * (u + 1e-12 * z), u, 2.0 * u]), 2, CFG)
    cases["tied-keys-d3"] = (_tied_key_set(), 3, CFG)
    for rho in (1.0, 1e3):
        cases[f"coarse-edge-{rho:g}"] = (_coarse_edge_set(rho), 3, edge)
    # past the largest distance between two points every point is on every
    # line: one record of all 15, and no overflow in the screen's margins
    for tol in (1e150, 1e200, 1e300):
        cases[f"closed-3-2-tol-{tol:g}"] = (closed_form_sing(3, 2), 2, RunConfig(align_tol=tol))
    # m=3 lies 1.98 from the line through m=1 and m=2, near the largest
    # distance two of these points can have, along the screen's fixed vector
    # w, and that line is orthogonal to w: m=3's key differs from m=2's by 1
    w = 1.0 / np.sqrt([2.0, 3.0, 4.0])
    w /= np.linalg.norm(w)
    z = np.array([0.0, 1.0, -np.sqrt(4.0 / 3.0)]) / np.sqrt(7.0 / 3.0)
    cases["far-point-tol-1e300"] = (_points([-0.99 * w, -0.99 * w + 0.1 * z, 0.99 * w]), 2,
                                    RunConfig(align_tol=1e300))
    return cases


CENSUS_CASES = _census_cases()


def _assert_census_equals_pair_sweep(points, d, cfg):
    got = alignment_census(points, d, cfg)
    want = _reference_census(points, d, cfg)
    assert len(got) == len(want)
    for rec, (indices, line_point, line_dir, residual) in zip(got, want):
        assert rec.indices == indices
        assert rec.line_point.dtype == line_point.dtype
        assert rec.line_point.tobytes() == line_point.tobytes()
        assert rec.line_dir.dtype == line_dir.dtype
        assert rec.line_dir.tobytes() == line_dir.tobytes()
        assert np.float64(rec.residual).tobytes() == np.float64(residual).tobytes()
    return got


@pytest.mark.parametrize("name", sorted(CENSUS_CASES))
def test_census_bitwise_equals_pair_sweep(name):
    _assert_census_equals_pair_sweep(*CENSUS_CASES[name])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_census_screens_pairs_in_small_blocks(monkeypatch, size):
    # the screen takes the keys of SAMPLE_BLOCK // (32 N n) anchors at once
    # and tests SAMPLE_BLOCK // (N n) pairs at once: blocks of `size` anchors,
    # then of `size` pairs (and one anchor)
    names = ["closed-3-2", "tracked-5-2-wide-tol", "closed-3-3", "window-edge-0.001-duplicates",
             "tied-keys-d3", "duplicate-3-2", "near-anchor"]
    for name in names:
        points, d, cfg = CENSUS_CASES[name]
        entries = len(points) * len(points[0].coords)
        for block in (32 * size * entries, size * entries):
            monkeypatch.setattr(genericity, "SAMPLE_BLOCK", block)
            _assert_census_equals_pair_sweep(points, d, cfg)
    # a block boundary falls between two anchors of one record
    records = alignment_census(*CENSUS_CASES["closed-3-2"])
    assert any(len({(m - 1) // size for m in r.indices}) > 1 for r in records)


@pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.05])
def test_census_candidates_do_not_depend_on_the_anchor_blocks(monkeypatch, tol):
    # every stage runs at every anchor, so the screen yields the same (a, bs)
    # with SAMPLE_BLOCK's blocks of anchors as with one anchor per block
    def candidates(coords, need):
        covered = np.zeros((len(coords), len(coords)), dtype=bool)
        return [(a, bs.tolist()) for a, bs in genericity._census_candidates(coords, tol, need, covered)]

    for n, d in [(3, 2), (5, 2), (7, 2), (5, 3)]:
        coords = np.array([p.coords for p in closed_form_sing(n, d)])
        want = candidates(coords, d + 1)
        assert want
        with monkeypatch.context() as patch:
            patch.setattr(genericity, "SAMPLE_BLOCK", 32 * coords.size)
            assert candidates(coords, d + 1) == want


def test_census_peak_memory_at_5_3():
    # keys for SAMPLE_BLOCK entries' worth of anchors, the whole set at
    # (5,3), peaked at 18.3 MiB; blocks of a 32nd of that at 1.6 MiB
    points = closed_form_sing(5, 3)
    alignment_census(points, 3, RunConfig())
    tracemalloc.start()
    try:
        alignment_census(points, 3, RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_census_past_the_largest_distance_is_one_record():
    for tol in (1e150, 1e200, 1e300):
        records = alignment_census(closed_form_sing(3, 2), 2, RunConfig(align_tol=tol))
        assert [r.indices for r in records] == [tuple(range(1, 16))]
    # the far point's record is spanned by the first pair
    points, d, cfg = CENSUS_CASES["far-point-tol-1e300"]
    records = alignment_census(points, d, cfg)
    assert [r.indices for r in records] == [(1, 2, 3)]
    assert abs(records[0].line_dir[0]) < 1e-12


def test_window_edge_and_tied_key_sets_have_the_intended_records():
    # guards the sets themselves: the record spanned by (m=1, m=2) holds m=3
    # and not m=4 (lines through m=3 and m=4 hold records of their own), the
    # coarse-edge sets hold one record of all four points, and the tied set
    # holds its six lines through the origin and three axes
    for rho in (1e-3, 1e3):
        for duplicates, want in [(False, (1, 2, 3)), (True, (1, 2, 3, 5, 6))]:
            points = _window_edge_set(rho, duplicates)
            u = np.array(points[1].coords)
            records = alignment_census(points, 2, RunConfig(align_tol=EDGE_TOL))
            first = [r for r in records if r.line_dir.tobytes() == (u / np.linalg.norm(u)).tobytes()]
            assert [r.indices for r in first] == [want]
            assert first[0].line_point.tolist() == [0j] * 3
            assert first[0].residual > EDGE_TOL * (1 - 2e-6)
    for rho in (1.0, 1e3):
        records = alignment_census(_coarse_edge_set(rho), 3, RunConfig(align_tol=EDGE_TOL))
        assert [r.indices for r in records] == [(1, 2, 3, 4)]
        assert records[0].residual > EDGE_TOL * (1 - 2e-6)
    records = {r.indices for r in alignment_census(_tied_key_set(), 2, CFG)}
    lines = {(1, 2 + v + c, 4 + v + c, 6 + v + c) for v in (0, 6, 12) for c in (0, 1)}
    axes = {(1, 20 + 2 * j, 21 + 2 * j) for j in range(3)}
    assert lines | axes <= records


def test_near_tolerance_set_has_the_intended_records():
    # guards the adversarial set itself: the point at tol (1 - 1e-6) from L is
    # in, the one at tol (1 + 1e-6) is out, and the 1e-6 pair spans a record
    for points, cfg in [(_near_tolerance_set(), CFG),
                        (_near_tolerance_set(1e3), RunConfig(align_tol=1e-5))]:
        got = {rec.indices for rec in alignment_census(points, 2, cfg)}
        assert (1, 2, 3, 5) in got
        assert (7, 8, 9, 10) in got


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


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_hyperplane_powers_equal_search_over_k(n, d):
    # reference: the smallest k in 0..N-1 whose translate of the base set is
    # the record, and the image normal built from it
    c = counts(n, d)
    hset = hyperplane_set(n, d)
    base_set = set(base_pattern_indices(n, d))
    weights = generator_weights(n, d)
    want = {}
    for rec in alignment_census(closed_form_sing(n, d), d, CFG):
        k = next(k for k in range(c.N)
                 if {((m - 1 + k) % c.N) + 1 for m in base_set} == set(rec.indices))
        want[k] = hset.base_normal * np.array([unit_root(-k * w, c.N) for w in weights])
    assert hset.element_powers == sorted(want)
    assert [v.tobytes() for v in hset.images] == [want[k].tobytes() for k in sorted(want)]


def test_hyperplane_set_refuses_a_record_that_is_not_a_translate(monkeypatch):
    def census(points, d, cfg):
        records = alignment_census(points, d, cfg)
        records[2] = replace(records[2], indices=(1, 2, 3))
        return records

    monkeypatch.setattr(genericity, "alignment_census", census)
    with pytest.raises(VerificationError, match=r"^census record \(1, 2, 3\) is not a group "
                       "translate of the base pattern$") as info:
        hyperplane_set(3, 2)
    assert [r.indices for r in info.value.payload][2] == (1, 2, 3)


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
    # projection cancels the linear term even off the hyperplane.  The defect
    # grows as mu^5 (4.6557523e-13, 1.4898402e-11 and 4.7674744e-10 at mu =
    # 0.01, 0.02 and 0.04, from zeros refined in 60-digit mpmath), so the
    # slope is fitted where every defect lies above DEFECT_NOISE_FLOOR.  On
    # MU_GRID three of the four defects are rounding noise (true values
    # 1.1e-15, 4.7e-18 and 1.1e-20), and the fit read 2.21, then 2.41 once
    # fields were evaluated through one power table
    res = defect_experiment(3, 2, (0, 1, 0), (4e-2, 2e-2, 1e-2), CFG, coord_pair=(1, 2))
    assert min(res.defects) > DEFECT_NOISE_FLOOR
    assert 4.99 <= res.slope <= 5.01


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


@pytest.mark.parametrize("nu,mus,message", [
    ((0, 0, 0), MU_GRID, "^nu must be nonzero$"),
    ((0, 1, 0), (1e-2,), "^need at least two mu values to fit a slope$"),
    ((0, 1, 0), (1e-2, 1e-2), "^need at least two distinct mu values to fit a slope$"),
    ((0, 1, 0), (1e-2, 0.06), r"^perturbation size 0\.06 exceeds the tracked polydisk radius 0\.05$"),
    ((0, 2, 0), (1e-2, 3e-2), r"^perturbation size 0\.06 exceeds the tracked polydisk radius 0\.05$"),
    ((0, 1, 0), (1e-2, 0.0), "^mu must be positive$"),
    ((0, 1, 0), (-1e-2, 1e-3), "^mu must be positive$"),
    ((np.inf, 1, 0), MU_GRID, "^nu entries must be finite$"),
    ((np.nan, 1, 0), MU_GRID, "^nu entries must be finite$"),
    ((0, np.nan, 1), MU_GRID, "^nu entries must be finite$"),
    ((0, complex(0, np.inf), 1), MU_GRID, "^nu entries must be finite$"),
    ((0, 1, 0), (1e-2, "a"), "^mu must be a real number, got 'a'$"),
    ((0, 1, 0), (1e-2, 1e-3j), r"^mu must be a real number, got 0\.001j$"),
    ((0, 0.01, 0), (1e-3, True), "^mu must be a real number, got True$"),  # 1.0 fit
    ((0, 1, 0), (1e-2, 10**400), "^mu must be finite$"),
    (("0.01", 1, 0), MU_GRID, "^nu entry must be a number, got '0.01'$"),
    ((0, True, 0), MU_GRID, "^nu entry must be a number, got True$"),
    ((0, b"1", 0), MU_GRID, "^nu entry must be a number, got b'1'$"),
], ids=["zero-nu", "one-mu", "repeated-mu", "mu-too-big",
        "mu-too-big-for-nu", "mu-zero", "mu-negative", "nu-inf", "nu-nan", "nu-nan-after-one",
        "nu-imaginary-inf", "mu-str", "mu-complex", "mu-bool", "mu-huge-int", "nu-str",
        "nu-bool", "nu-bytes"])
def test_defect_refuses_bad_rays(nu, mus, message):
    with pytest.raises(InputError, match=message):
        defect_experiment(3, 2, nu, mus, CFG)


# Directions 0 and 6 of default_rng(1), complex normal in C^3.  At mu = radius / max |nu_i|
# the member's largest |alpha_i| rounds to 0.05 for the first and one ulp above it,
# 0.05 + 2^-57, for the second: one of the 421 in 2000 such directions that round above.
RAY_INSIDE = (complex(0.345584192064786, -1.303157231604361),
              complex(0.8216181435011584, 0.9053558666731177),
              complex(0.33043707618338714, 0.4463745723640113))
RAY_OUTSIDE = (complex(-0.5140063716874629, 0.10901408782154753),
               complex(-1.6480751708556527, -1.2273520542445742),
               complex(0.16746474422274113, -0.6832266617805622))


def _spy_track_one(monkeypatch):
    calls = []
    real = genericity.track_one

    def spy(params, m, cfg):
        calls.append(m)
        return real(params, m, cfg)

    monkeypatch.setattr(genericity, "track_one", spy)
    return calls


def test_defect_refuses_a_ray_past_the_radius_before_tracking(monkeypatch):
    calls = _spy_track_one(monkeypatch)
    mu = CFG.radius / max(abs(v) for v in RAY_OUTSIDE)
    with pytest.raises(InputError, match=r"^perturbation size 0\.05 exceeds the tracked "
                       r"polydisk radius 0\.05$"):
        defect_experiment(3, 2, RAY_OUTSIDE, (mu / 4, mu), CFG)
    assert calls == []


def test_defect_tracks_a_ray_that_rounds_inside_the_radius(monkeypatch):
    calls = _spy_track_one(monkeypatch)
    mu = CFG.radius / max(abs(v) for v in RAY_INSIDE)
    res = defect_experiment(3, 2, RAY_INSIDE, (mu / 4, mu), CFG)
    assert calls == [5, 10, 15] * 2
    # re-pinned when fields were evaluated through one power table: the first
    # defect moved by 1.3e-14 relative, the slope by 8.6e-15
    assert [v.hex() for v in res.defects] == ["0x1.81c6da826e73ap-6", "0x1.8120d91f04781p-4"]
    assert res.slope.hex() == "0x1.ff60f02c0ff19p-1"


@pytest.mark.parametrize("pair", [(1, 2, 3), (1,), (1.0, 2), ("1", "2"), (0, 2), (1, 4), (True, 3),
                                  (1, np.True_)])
def test_defect_rejects_a_coord_pair_that_is_not_two_indices(pair):
    with pytest.raises(InputError, match="must be two distinct integers in"):
        defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=pair)


@pytest.mark.parametrize("call,name,value", [
    (lambda: FoliationParams(2, 2, 0.01), "alpha", "0.01"),
    (lambda: defect_experiment(3, 2, 1, MU_GRID, CFG), "nu", "1"),
    (lambda: defect_experiment(3, 2, (0, 1, 0), 0.01, CFG), "mu_grid", "0.01"),
    (lambda: defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=5), "coordinate pair", "5"),
    (lambda: track_zeros(FoliationParams(2, 2), 3, CFG), "zero indices", "3"),
    (lambda: track_zeros(FoliationParams(2, 2), np.int64(3), CFG), "zero indices", repr(np.int64(3))),
    (lambda: alignment_census(None, 2, CFG), "points", "None"),
    (lambda: spectral.spectrum_reports(family_field(FoliationParams(2, 2)), None, CFG), "points", "None"),
], ids=["alpha", "nu", "mu_grid", "coord_pair", "ms", "numpy-ms", "points", "report-points"])
def test_a_scalar_where_a_sequence_belongs_is_an_input_error(call, name, value):
    with pytest.raises(InputError, match=f"^{name} must be a sequence, got {re.escape(value)}$"):
        call()


def test_an_index_iterator_without_a_length_is_an_input_error():
    with pytest.raises(InputError, match="^zero indices must be a sequence, got <generator"):
        track_zeros(FoliationParams(2, 2), (m for m in [1, 2]), CFG)


def test_defect_reads_a_coord_pair_iterator_once():
    want = defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=(1, 3))
    got = defect_experiment(3, 2, (0, 1, 0), MU_GRID, CFG, coord_pair=iter([1, 3]))
    assert (got.coord_pair, got.defects) == (want.coord_pair, want.defects)


@pytest.mark.parametrize("n,d", [(4, 2), (3, 1)])
def test_pattern_experiments_take_the_pattern_rule(n, d):
    for call in (lambda: hyperplane_set(n, d),
                 lambda: defect_experiment(n, d, (0, 1) + (0,) * (n - 2), MU_GRID, CFG)):
        with pytest.raises(InputError, match="^aligned patterns need odd n and d >= 2$"):
            call()


def test_sample_checks_n_before_drawing():
    with pytest.raises(InputError, match="ambient dimension"):
        genericity_sample(-1, 2, RunConfig(samples=2))


@pytest.mark.parametrize("n,samples", [(17, 2), (30, 3)])
def test_sample_refuses_the_scan_size_before_tracking_a_draw(monkeypatch, n, samples):
    # at max_order 8 the scan is above SCAN_MAX_BYTES from n = 17; at n = 30
    # every draw would also fail the root gate, and no scan would run at all
    def refuse(*args):
        raise AssertionError("a draw was tracked")

    monkeypatch.setattr(genericity, "_track_members", refuse)
    with pytest.raises(InputError, match="SCAN_MAX_BYTES"):
        genericity_sample(n, 1, RunConfig(samples=samples))


def test_defect_tracks_only_the_three_zeros_it_uses(monkeypatch):
    tracked = []
    real = genericity.track_one

    def spy(params, m, cfg):
        tracked.append(m)
        return real(params, m, cfg)

    monkeypatch.setattr(genericity, "track_one", spy)
    defect_experiment(3, 3, (0, 1, 0), MU_GRID, CFG)
    assert len(base_pattern_indices(3, 3)) == 4
    assert tracked == base_pattern_indices(3, 3)[:3] * len(MU_GRID)


@pytest.mark.parametrize("n,d,nu", [
    (3, 2, (0, 1, 0)), (3, 3, (0.3, 1, -0.5j)), (5, 2, (1, 0.8, 0, -0.2, 0)),
])
def test_defects_are_those_of_the_batch_tracked_pattern(n, d, nu):
    # track_one is bitwise the m-th zero of track_singularities, so the
    # defects equal the ones read off a whole tracked member
    res = defect_experiment(n, d, nu, MU_GRID, CFG)
    nu = tuple(complex(v) for v in nu)
    want = []
    for mu in MU_GRID:
        points = track_singularities(FoliationParams(n, d, tuple(mu * v for v in nu)), CFG)
        triple = [points[m - 1].coords for m in base_pattern_indices(n, d)[:3]]
        u = [p[0] for p in triple]
        w = [p[n - 1] for p in triple]
        want.append(abs((u[1] - u[0]) * (w[2] - w[0]) - (u[2] - u[0]) * (w[1] - w[0])))
    assert res.defects == tuple(want)


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


def test_sample_small_run_is_clean():
    s = genericity_sample(2, 2, RunConfig(samples=60, max_order=6))
    assert s.frac_failures == 0.0
    assert s.frac_all_hyperbolic >= 0.95
    assert s.frac_any_resonant <= 0.05


def test_sample_note_text_is_fixed():
    s = genericity_sample(2, 2, RunConfig(samples=10, max_order=4))
    assert s.note == ("finite sample with a truncated resonance scan; "
                      "not a proof of a full-measure statement")


def _alphas(n, cfg):
    u = np.random.default_rng(cfg.seed).random((cfg.samples, n, 2))
    return cfg.radius * np.sqrt(u[:, :, 0]) * np.exp(2j * np.pi * u[:, :, 1])


def _reference_sample(n, d, cfg):
    # one draw at a time, one zero at a time; per draw (error class name or "",
    # all hyperbolic, any resonant)
    outcomes = []
    for alpha in _alphas(n, cfg):
        params = FoliationParams(n, d, tuple(alpha))
        try:
            field = family_field(params)
            reports = [spectrum_report(field, p, cfg) for p in track_singularities(params, cfg)]
        except (ConvergenceError, CollisionError) as exc:
            outcomes.append((type(exc).__name__, False, False))
            continue
        outcomes.append(("", all(r.classification == HYPERBOLIC for r in reports),
                         any(r.divisor.resonant for r in reports)))
    return outcomes


@pytest.mark.parametrize("n,d,cfg,block,fails", [
    (3, 2, RunConfig(samples=20, max_order=6), None, "none"),
    (3, 2, RunConfig(samples=10, max_order=6, dedup_tol=10), None, "all"),  # every draw collides
    (3, 2, RunConfig(samples=20, max_order=6, newton_tol=4e-16, max_iters=5), None, "some"),
    (3, 3, RunConfig(samples=10, max_order=6, max_iters=3), None, "none"),  # 8 rows escalate x4
    (3, 2, RunConfig(samples=20, max_order=6, radius=0.3), None, "none"),
    (2, 2, RunConfig(samples=30, max_order=6), None, "none"),
    (2, 5, RunConfig(samples=10, max_order=6), None, "none"),
    (4, 3, RunConfig(samples=4, max_order=5, max_iters=3), None, "none"),
    # blocks of 4 draws, the last one of 3, with failures in some blocks
    (3, 2, RunConfig(samples=23, max_order=6, newton_tol=4e-16, max_iters=5), 4, "some"),
], ids=["clean", "collisions", "some-fail", "escalation", "radius-0.3", "2-2", "2-5", "4-3",
        "blocks"])
def test_sample_equals_per_draw_reference(monkeypatch, n, d, cfg, block, fails):
    if block is not None:
        big_n = counts(n, d).N
        monkeypatch.setattr(genericity, "SAMPLE_BLOCK", block * big_n * big_n * n + 1)
    outcomes = list(genericity._draw_outcomes(n, d, cfg))
    assert outcomes == _reference_sample(n, d, cfg)
    s = genericity_sample(n, d, cfg)
    assert (s.n_failed, s.n_all_hyperbolic, s.n_any_resonant) == (
        sum(bool(e) for e, _, _ in outcomes), sum(h for _, h, _ in outcomes),
        sum(r for _, _, r in outcomes))
    assert {"none": s.n_failed == 0, "all": s.n_failed == cfg.samples,
            "some": 0 < s.n_failed < cfg.samples}[fails]


def test_sample_memory_does_not_grow_with_samples(monkeypatch):
    # blocks of 32 draws at (2,1): each block's draws are made when it runs and
    # nothing is kept per draw, so past two blocks the traced peak grows by far
    # less than the 136 B a draw that keeping each draw's float64 draws, alpha
    # and outcome tuple would cost (about 40 B a draw is measured here, with the
    # free lists that Python keeps emptied by gc.collect() first)
    monkeypatch.setattr(genericity, "SAMPLE_BLOCK", 32 * 3 * 3 * 2)
    genericity_sample(2, 1, RunConfig(samples=64, max_order=2))
    peaks = []
    for samples in (64, 864):
        gc.collect()
        tracemalloc.start()
        try:
            genericity_sample(2, 1, RunConfig(samples=samples, max_order=2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 96 * (864 - 64)


def test_sample_eigenvalue_gate_fails_only_its_draw(monkeypatch):
    # the root helper is made to put one zero of draw 5, in the middle of a
    # block of 4 draws, above the gate: the block's roots are masked, and only
    # draw 5 counts
    n, d, cfg = 3, 2, RunConfig(samples=12, max_order=6)
    params = FoliationParams(n, d, tuple(_alphas(n, cfg)[5]))
    coords = track_singularities(params, cfg)[7].coords
    refused = char_poly_direct(family_field(params), coords)
    real = spectral._roots

    def roots(sigma):
        lams, worst, failing = real(sigma)
        hit = (np.atleast_2d(sigma) == refused).all(axis=1)
        return lams, np.where(hit, 1.0, worst), failing | hit

    monkeypatch.setattr(spectral, "_roots", roots)  # the gate of the reference's reports
    monkeypatch.setattr(genericity, "_roots", roots)
    monkeypatch.setattr(genericity, "SAMPLE_BLOCK", 4 * 15 * 15 * 3)
    outcomes = list(genericity._draw_outcomes(n, d, cfg))
    assert [k for k, (error, _, _) in enumerate(outcomes) if error] == [5]
    assert outcomes[5] == ("ConvergenceError", False, False)
    assert outcomes == _reference_sample(n, d, cfg)
    assert genericity_sample(n, d, cfg).n_failed == 1


def test_sample_eigenvalue_gate_fails_only_its_draws_unpatched():
    # at (28,1) the root gate itself refuses draws 2 and 3 of one block of 6
    # (44 draws fit), whose zeros all track: the gate masks them out of the
    # block's stacked spectra, with no patched root finder.  The gate works at
    # the rounding level: before fields were evaluated through one power
    # table it refused draws 0, 2 and 5
    n, d, cfg = 28, 1, RunConfig(samples=6, max_order=2, seed=1)
    assert not solver._track_members(n, d, _alphas(n, cfg), cfg)[3]
    outcomes = list(genericity._draw_outcomes(n, d, cfg))
    assert [k for k, (error, _, _) in enumerate(outcomes) if error] == [2, 3]
    assert {outcomes[k] for k in (2, 3)} == {("ConvergenceError", False, False)}
    assert outcomes == _reference_sample(n, d, cfg)
