"""Characteristic coefficients, root finding, classification, small divisors."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from foliationlab import spectral
from foliationlab import (
    DEGENERATE,
    HYPERBOLIC,
    INCONCLUSIVE,
    NONDEGENERATE_ONLY,
    FoliationParams,
    InputError,
    RunConfig,
    SingularPoint,
    char_poly_closed,
    char_poly_direct,
    classify,
    closed_form_sing,
    Counts,
    counts,
    eigenvalues,
    family_field,
    jacobian,
    jouanolou_field,
    linear_diagonal_field,
    linearizable_numerically,
    min_separation,
    sigma_at_ones,
    small_divisor_scan,
    spectrum_report,
    spectrum_reports,
    track_one,
    track_singularities,
    unit_root,
)

CFG = RunConfig()


def test_char_coeffs_at_all_ones_2_2():
    f = jouanolou_field(2, 2)
    sigma = char_poly_direct(f, (1.0, 1.0))
    assert np.allclose(sigma, [4.0, 7.0], rtol=0, atol=1e-13)


def test_char_coeffs_match_numpy_poly():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = linear_diagonal_field(lams)
        sigma = char_poly_direct(f, np.zeros(n))
        want = np.poly(np.diag(lams))[1:]
        assert np.allclose(sigma, want, rtol=1e-10, atol=1e-10)


def test_closed_vs_direct_at_tracked_points():
    rng = np.random.default_rng(112)
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        for _ in range(5):
            re, im = rng.uniform(-0.03, 0.03, size=(2, n))
            params = FoliationParams(n, d, tuple(re + 1j * im))
            f = jouanolou_field(n, d)
            for t in track_singularities(params, CFG):
                # both routes see the unperturbed field since the constant
                # terms drop out of every Jacobian entry
                direct = char_poly_direct(f, t.coords)
                closed = char_poly_closed(n, d, t.coords)
                assert np.max(np.abs(direct - closed)) < 1e-10


def test_eigenvalues_quadratic_conjugate_pair():
    lams = eigenvalues(np.array([4.0, 7.0]))
    want = np.array([-2 - 1j * np.sqrt(3), -2 + 1j * np.sqrt(3)])
    order = np.argsort(lams.imag)
    assert np.allclose(lams[order], want, rtol=0, atol=1e-12)


def test_eigenvalues_double_root():
    # (lam - 1)^2: coefficients (-2, 1)
    lams = eigenvalues(np.array([-2.0, 1.0]))
    assert np.allclose(np.sort_complex(lams), [1.0, 1.0], rtol=0, atol=1e-6)


def test_eigenvalues_match_numpy_roots():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        sigma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = np.sort_complex(eigenvalues(sigma))
        want = np.sort_complex(np.roots(np.concatenate(([1.0], sigma))))
        assert np.max(np.abs(got - want)) < 1e-8


def test_eigenvalues_scale_invariance():
    # the start circle follows the root magnitudes, so extreme scales stay exact
    sigma = np.array([0.0, 0.0, -1e12])     # roots of lam^3 = 1e12
    lams = eigenvalues(sigma)
    assert np.allclose(np.sort(np.abs(lams)), 1e4, rtol=1e-10)
    sigma = np.array([0.0, 1e-12])          # lam^2 = -1e-12
    lams = eigenvalues(sigma)
    assert np.allclose(np.abs(lams), 1e-6, rtol=1e-10)


def test_eigenvalues_reject_non_finite_coefficients():
    for bad in ([np.nan, 1.0], [0.0, np.inf], []):
        with pytest.raises(InputError):
            eigenvalues(np.array(bad))


def test_min_separation():
    assert min_separation(np.array([1.0, 1.0 + 1e-8, 5.0])) == pytest.approx(1e-8)


def test_classify_cases():
    assert classify(np.array([-2 + 1j * np.sqrt(3), -2 - 1j * np.sqrt(3)]), CFG) == HYPERBOLIC
    assert classify(np.array([0.0, 1.0]), CFG) == DEGENERATE
    assert classify(np.array([1.0, 2.0]), CFG) == NONDEGENERATE_ONLY
    # ratio imaginary part below tol_hyp but nonzero stays undecided
    assert classify(np.array([1.0, 1.0 + 1e-10j]), CFG) == INCONCLUSIVE


def test_small_divisor_resonance_witness():
    rec = small_divisor_scan(np.array([1.0, 2.0]), delta=1.0, max_order=6)
    assert rec.resonant
    assert rec.c_min == pytest.approx(0.0, abs=1e-14)
    assert rec.worst_j == 2
    assert rec.worst_m == (2, 0)


def test_small_divisor_frozen_value():
    rec = small_divisor_scan(np.array([1.0, 1.0j]), delta=1.0, max_order=6)
    assert not rec.resonant
    assert rec.c_min == pytest.approx(2.0, abs=1e-12)


def test_small_divisor_monotone_in_order():
    rng = np.random.default_rng(134)
    for _ in range(10):
        lams = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prev = None
        for order in (2, 4, 6):
            rec = small_divisor_scan(lams, delta=1.0, max_order=order)
            if prev is not None:
                assert rec.c_min <= prev + 1e-15
            prev = rec.c_min


def test_small_divisor_determinism():
    lams = np.array([0.3 + 1j, -0.7, 2.1 - 0.4j])
    a = small_divisor_scan(lams, delta=1.0, max_order=5)
    b = small_divisor_scan(lams, delta=1.0, max_order=5)
    assert (a.worst_j, a.worst_m, a.c_min) == (b.worst_j, b.worst_m, b.c_min)


def test_small_divisor_candidate_guard():
    with pytest.raises(InputError):
        small_divisor_scan(np.ones(2), delta=1.0, max_order=20000)


def test_spectrum_report_at_all_ones():
    f = jouanolou_field(2, 2)
    p = closed_form_sing(2, 2)[-1]
    rep = spectrum_report(f, p, CFG)
    assert np.allclose(rep.sigma, [4.0, 7.0], atol=1e-12)
    order = np.argsort(rep.eigenvalues.imag)
    want = np.array([-2 - 1j * np.sqrt(3), -2 + 1j * np.sqrt(3)])
    assert np.allclose(rep.eigenvalues[order], want, atol=1e-10)
    assert rep.classification == HYPERBOLIC
    assert not rep.divisor.resonant
    assert linearizable_numerically(rep)


def test_spectra_rotate_with_the_group_2_2():
    # eigenvalues at p_m are the all-ones pair times xi^(2m)
    f = jouanolou_field(2, 2)
    pts = closed_form_sing(2, 2)
    base = np.sort_complex(spectrum_report(f, pts[-1], CFG).eigenvalues)
    for p in pts:
        lams = np.sort_complex(spectrum_report(f, p, CFG).eigenvalues)
        want = np.sort_complex(base * unit_root(2 * p.m, 7))
        assert np.max(np.abs(lams - want)) < 1e-10


def test_resonant_linear_field_not_linearizable():
    f = linear_diagonal_field((1.0, 2.0))
    origin = SingularPoint(m=0, coords=(0j, 0j), residual=0.0,
                           converged=True, newton_iters=0)
    rep = spectrum_report(f, origin, CFG)
    assert rep.divisor.resonant
    assert not linearizable_numerically(rep)


def test_all_seven_points_hyperbolic_2_2():
    f = jouanolou_field(2, 2)
    for p in closed_form_sing(2, 2):
        assert spectrum_report(f, p, CFG).classification == HYPERBOLIC


def _member(n, d, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    alpha = CFG.radius * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    return FoliationParams(n, d, tuple(alpha))


def _matched_gap(a, b):
    """Largest distance between two root lists under the best pairing."""
    return min(float(np.max(np.abs(a - b[list(perm)])))
               for perm in itertools.permutations(range(len(b))))


@pytest.mark.parametrize("n,d,seed", [(3, 3, 501), (4, 3, 502)])
def test_eigenvalues_match_jacobian_eigvals(n, d, seed):
    # second route: the companion roots of the trace-recursion coefficients
    # against a direct eigendecomposition of the Jacobian
    f = jouanolou_field(n, d)
    for p in track_singularities(_member(n, d, seed), CFG):
        lams = eigenvalues(char_poly_direct(f, p.coords))
        want = np.linalg.eigvals(jacobian(f, np.array(p.coords)))
        assert _matched_gap(lams, want) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_eigenvalues_real_coefficients_give_exact_conjugates(n):
    for d in (2, 3):
        lams = eigenvalues(sigma_at_ones(n, d))
        assert lams.dtype == complex and len(lams) == n
        values = set(lams.tolist())
        assert all(z.conjugate() in values for z in values)


def test_small_divisor_witness_is_tie_class_representative():
    # (j, m) with m_j >= 1 ties exactly with (n, m - e_j + e_n); the scan
    # reports only the representative, whatever the rounding
    n, d = 4, 3
    f = jouanolou_field(n, d)
    for p in track_singularities(_member(n, d, 503), CFG):
        rec = spectrum_report(f, p, CFG).divisor
        if rec.worst_j < n:
            assert rec.worst_m[rec.worst_j - 1] == 0


def test_readme_library_tour():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(ast.unparse(node), ns))
        else:
            exec(ast.unparse(node), ns)
    n_counts, cls, c_min, det, census, slope, frac = values
    assert n_counts == Counts(N=15, M=35, K=5)
    assert max(p.residual for p in ns["pts"]) < 1e-12
    assert cls == HYPERBOLIC and c_min > 0
    assert abs(abs(det) - 64 / 7) < 1e-3
    assert len(census) == 5
    assert abs(slope - 1.0) < 0.05
    assert frac == 1.0


# ---------------------------------------------------------------------------
# stacked spectra: row r of every stacked stage is bitwise the one-row call


def _same_record(a, b):
    # DivisorRecord equality compares c_min with ==, which cannot see -0.0 or NaN bits
    return a == b and np.float64(a.c_min).tobytes() == np.float64(b.c_min).tobytes()


def _sigma_stack(n, d, seed):
    params = _member(n, d, seed)
    coords = np.array([p.coords for p in track_singularities(params, CFG)])
    return family_field(params), coords


def _np_roots_sorted(sigma):
    coeffs = np.concatenate(([1.0 + 0j], sigma))
    z = np.roots(coeffs if coeffs.imag.any() else coeffs.real).astype(complex)
    return z[np.lexsort((z.imag, z.real))]


def _reference_scan(lams, delta, max_order):
    # the one-row scan as a full (candidate, eigenvalue) table with the tied entries masked
    n = len(lams)
    m = np.array([e for e in itertools.product(range(max_order + 1), repeat=n)
                  if 2 <= sum(e) <= max_order])
    table = np.abs(lams[None, :] - (m @ lams)[:, None]) * (m.sum(axis=1).astype(float) ** delta)[:, None]
    table[:, :-1][m[:, :-1] > 0] = np.inf
    row, col = divmod(int(np.argmin(table)), n)
    return float(table[row, col]), col + 1, tuple(int(e) for e in m[row])


@pytest.mark.parametrize("n,d,seed", [(2, 2, 601), (3, 3, 602), (4, 3, 603)])
def test_stacked_stages_equal_one_row_calls(n, d, seed):
    f, coords = _sigma_stack(n, d, seed)
    sigma = char_poly_direct(f, coords)
    assert sigma.shape == coords.shape
    for r, x in enumerate(coords):
        assert sigma[r].tobytes() == char_poly_direct(f, x).tobytes()
    # real-coefficient rows (real solver) interleaved with complex ones
    mixed = np.insert(sigma, [1, len(sigma) // 2], sigma_at_ones(n, d), axis=0)
    lams = eigenvalues(mixed)
    assert lams.shape == mixed.shape
    records = spectral._divisor_records(lams, CFG.delta, 6)
    for row, z, rec in zip(mixed, lams, records):
        assert z.tobytes() == eigenvalues(row).tobytes() == _np_roots_sorted(row).tobytes()
        assert _same_record(rec, small_divisor_scan(z, CFG.delta, 6))
        c_min, worst_j, worst_m = _reference_scan(z, CFG.delta, 6)
        assert np.float64(rec.c_min).tobytes() == np.float64(c_min).tobytes()
        assert (rec.worst_j, rec.worst_m) == (worst_j, worst_m)


def test_eigenvalues_zero_trailing_coefficients_match_np_roots():
    rows = np.array([
        [4.0, 7.0, 0.0],                 # sigma_n = 0, real
        [1.0 + 2j, -0.5j, 0.0],          # sigma_n = 0, complex
        [3.0, 0.0, 0.0],                 # two trailing zeros
        [0.0, 0.0, 0.0],                 # every root at zero
        [0.0, 2.0 - 1j, 0.0],            # inner zero kept
        [4.0, 7.0, 3.0],
        [1.0 + 2j, -0.5j, 0.25 + 0.1j],
    ], dtype=complex)
    lams = eigenvalues(rows)
    for row, z in zip(rows, lams):
        want = _np_roots_sorted(row)
        assert z.tobytes() == want.tobytes()
        assert eigenvalues(row).tobytes() == want.tobytes()
    assert np.count_nonzero(lams[0]) == 2 and np.count_nonzero(lams[3]) == 0


def test_eigenvalues_reject_three_dimensional_sigma():
    with pytest.raises(InputError):
        eigenvalues(np.ones((2, 2, 3)))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_scan_blocks_do_not_change_records(monkeypatch, block):
    f, coords = _sigma_stack(2, 2, 604)
    lams = eigenvalues(char_poly_direct(f, np.concatenate([coords, coords[::-1] * 0.99])))
    want = {order: spectral._divisor_records(lams, 1.0, order) for order in (2, 3, 6)}
    monkeypatch.setattr(spectral, "SCAN_BLOCK", block)
    for order, records in want.items():
        got = spectral._divisor_records(lams, 1.0, order)
        assert len(got) == len(lams)
        assert all(_same_record(a, b) for a, b in zip(got, records))


def test_scan_tables_are_read_only():
    before = small_divisor_scan([1, 1j], 1.0, 6)
    for table in spectral._multi_indices(2, 6):
        with pytest.raises(ValueError):
            table[0] = 0
    after = small_divisor_scan([1, 1j], 1.0, 6)
    assert _same_record(after, before)
    assert after.c_min == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n,d,seed", [(3, 2, None), (3, 2, 605), (4, 3, 606)])
def test_spectrum_reports_equal_one_report_each(n, d, seed):
    params = FoliationParams(n, d, (0j,) * n) if seed is None else _member(n, d, seed)
    f = family_field(params)
    points = track_singularities(params, CFG)
    stacked = spectrum_reports(f, points, CFG)
    assert len(stacked) == len(points)
    for p, got in zip(points, stacked):
        want = spectrum_report(f, p, CFG)
        assert got.m == want.m == p.m
        assert got.sigma.tobytes() == want.sigma.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.classification == want.classification
        assert _same_record(got.divisor, want.divisor)
