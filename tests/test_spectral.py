"""Characteristic coefficients, root finding, classification, small divisors."""

import ast
import hashlib
import itertools
import math
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from foliationlab import jouanolou, solver, spectral
from foliationlab import (
    DEGENERATE,
    HYPERBOLIC,
    INCONCLUSIVE,
    NONDEGENERATE_ONLY,
    ConvergenceError,
    FoliationParams,
    InputError,
    PolyVectorField,
    RunConfig,
    SingularPoint,
    char_poly_closed,
    char_poly_direct,
    classify,
    closed_form_coords,
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


@pytest.mark.parametrize("n", range(2, 8))
def test_faddeev_adjugate_coefficients_invert_lam_minus_a(n):
    # (lam I - A) sum_k lam^(n-1-k) B_k = det(lam I - A) I with B_0 = I: an
    # independent check on the B_k that the submersion reports read by Jacobi's formula
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    sigma, bs = spectral._faddeev(a)
    coeffs = [np.eye(n), *bs]
    eye = np.eye(n)
    for lam in (0.7, -1.3 + 0.4j, 2.5j):
        adj = sum(lam ** (n - 1 - k) * b for k, b in enumerate(coeffs))
        det = lam**n + sum(sigma[:, k] * lam ** (n - 1 - k) for k in range(n))
        left = (lam * eye - a) @ adj
        scale = np.abs(left).max(axis=(1, 2))
        assert (np.abs(left - det[:, None, None] * eye).max(axis=(1, 2)) <= 1e-12 * scale).all()


def test_char_poly_direct_is_frozen():
    # the closed-form zeros of the ladder and one perturbed (4, 3) stack;
    # digest taken before the recursion moved into spectral._faddeev, re-taken
    # when fields were evaluated through one power table
    h = hashlib.sha256()
    for n, d in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (5, 2), (7, 2), (2, 30)]:
        h.update(char_poly_direct(jouanolou_field(n, d), closed_form_coords(n, d)).tobytes())
    x = closed_form_coords(4, 3)
    rng = np.random.default_rng(7)
    x = x + 1e-2 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    h.update(char_poly_direct(jouanolou_field(4, 3), x).tobytes())
    assert h.hexdigest() == "f33cedecfb60a40dc7583ce494a40e344b28bc9d12360518193d3ff3045cf5e8"


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


def _direct_sums(n, d, p):
    """The paper's second display of the closed coefficients: sigma_i =
    C(n, n-i) x1^(d i) + sum_{j <= i} C(n-j, n-i) x1^((i-j) d) t_j, with
    t_j = d^j (x_1 ... x_{j-1})^(d-1) x_j^d."""
    t = [d**j * np.prod(p[: j - 1]) ** (d - 1) * p[j - 1] ** d for j in range(1, n + 1)]
    return np.array([math.comb(n, n - i) * p[0] ** (d * i)
                     + sum(math.comb(n - j, n - i) * p[0] ** ((i - j) * d) * t[j - 1]
                           for j in range(1, i + 1)) for i in range(1, n + 1)])


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (21, 1), (22, 1),
                                 (23, 1), (24, 1), (25, 1), (26, 1)])
def test_char_poly_closed_agrees_with_both_routes_at_every_closed_form_zero(n, d):
    # measured at most 4.4e-14 (direct, at (26, 1)) and 6.9e-16 (sums) relative;
    # the two displays drift apart absolutely as |sigma| grows with n at d = 1
    coords = closed_form_coords(n, d)
    direct = char_poly_direct(jouanolou_field(n, d), coords)
    for p, want in zip(coords, direct):
        closed = char_poly_closed(n, d, p)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - want)) <= 1e-13 * scale
        assert np.max(np.abs(closed - _direct_sums(n, d, p))) <= 1e-13 * scale


def test_char_poly_closed_rejects_a_point_of_the_wrong_shape():
    for p in ([1.0, 1.0], np.ones((2, 3))):
        with pytest.raises(InputError, match=r"^point has shape .*, expected \(3,\)$"):
            char_poly_closed(3, 2, p)


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


def test_one_zero_helpers_refuse_a_stack_instead_of_flattening_it():
    # flattened, [[1, 2j], [3, 4j]] read as one four-eigenvalue spectrum:
    # nondegenerate_only with separation 2.0, though each row alone is hyperbolic
    # (small_divisor_scan's case is in test_small_divisor_scan_refuses_bad_input)
    stack = np.array([[1, 2j], [3, 4j]])
    assert [classify(row, CFG) for row in stack] == [HYPERBOLIC, HYPERBOLIC]
    for call in (lambda: classify(stack, CFG), lambda: min_separation(stack)):
        with pytest.raises(InputError, match=r"^eigenvalues have shape \(2, 2\)"):
            call()


def test_one_zero_helpers_refuse_an_empty_spectrum():
    # (small_divisor_scan's case is in test_small_divisor_scan_refuses_bad_input)
    for call in (lambda: classify([], CFG), lambda: min_separation([])):
        with pytest.raises(InputError, match="^need at least one eigenvalue$"):
            call()
    assert min_separation([1j]) == np.inf


def test_classify_cases():
    assert classify(np.array([-2 + 1j * np.sqrt(3), -2 - 1j * np.sqrt(3)]), CFG) == HYPERBOLIC
    assert classify(np.array([0.0, 1.0]), CFG) == DEGENERATE
    assert classify(np.array([1.0, 2.0]), CFG) == NONDEGENERATE_ONLY
    # ratio imaginary part below tol_hyp but nonzero stays undecided
    assert classify(np.array([1.0, 1.0 + 1e-10j]), CFG) == INCONCLUSIVE
    # an exactly real pair does not hide a borderline one
    assert classify(np.array([1.0, 2.0, 2.0 + 1e-10j]), CFG) == INCONCLUSIVE
    assert classify(np.array([1.0, 2.0, 3j]), CFG) == NONDEGENERATE_ONLY
    assert classify(np.array([2.0]), CFG) == HYPERBOLIC
    # |Im(small/big)| = 5e-10 but |Im(big/small)| = 5e-6: the larger modulus divides
    big = 100 * np.exp(5e-8j)
    for lams in ([big, 1.0], [1.0, big]):
        assert classify(np.array(lams), CFG) == INCONCLUSIVE
        assert classify(np.array(lams), RunConfig(tol_hyp=4e-10)) == HYPERBOLIC


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


@pytest.mark.parametrize("lams,delta,max_order,message", [
    ([], 1.0, 6, "^need at least one eigenvalue$"),
    ([1, 1j], 1.0, 1, "^max_order must be at least 2$"),
    ([1, 1j], 0.0, 6, "^delta must be positive$"),
    ([[1, 2j], [3, 4j]], 1.0, 3, r"^eigenvalues have shape \(2, 2\), expected \(n,\) for one zero$"),
    (1j, 1.0, 3, r"^eigenvalues have shape \(\), expected \(n,\)"),
    ([1, 1j], float("nan"), 6, "^delta must be finite$"),
    ([1, 1j], float("inf"), 6, "^delta must be finite$"),
    ([1, 1j], 1.0, 3.5, "^max_order must be an integer, got 3.5$"),
    ([1, 1j], True, 3, "^delta must be a real number, got True$"),
    ([1, 1j], 1j, 3, r"^delta must be a real number, got 1j$"),
    ([1, 1j], "1", 3, "^delta must be a real number, got '1'$"),
    ([1, 1j], 1.0, True, "^max_order must be an integer, got True$"),
], ids=["no-eigenvalue", "order-1", "delta-0", "stack", "scalar", "delta-nan", "delta-inf",
        "order-3.5", "delta-bool", "delta-complex", "delta-str", "order-bool"])
def test_small_divisor_scan_refuses_bad_input(lams, delta, max_order, message):
    with pytest.raises(InputError, match=message):
        small_divisor_scan(lams, delta=delta, max_order=max_order)


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


def _stacked_records(lams, delta, max_order):
    # the stacked scan's (c_min, k) arrays as records, as spectrum_reports builds them
    scan = spectral._divisor_scan(lams, delta, max_order)
    return spectral._divisor_records(lams.shape[1], delta, max_order, *scan)


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
    records = _stacked_records(lams, CFG.delta, 6)
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
    want = {order: _stacked_records(lams, 1.0, order) for order in (2, 3, 6)}
    monkeypatch.setattr(spectral, "SCAN_BLOCK", block)
    for order, records in want.items():
        got = _stacked_records(lams, 1.0, order)
        assert len(got) == len(lams)
        assert all(_same_record(a, b) for a, b in zip(got, records))


def test_scan_tables_are_read_only():
    before = small_divisor_scan([1, 1j], 1.0, 6)
    tables = spectral._multi_indices(2, 6)
    # the exponent table, and its complex copy that the scan multiplies by
    assert tables[-1].dtype == complex and np.array_equal(tables[-1], tables[0])
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0
    after = small_divisor_scan([1, 1j], 1.0, 6)
    assert _same_record(after, before)
    assert after.c_min == pytest.approx(2.0, abs=1e-12)


def test_scan_table_cache_drops_the_oldest_pair():
    spectral._multi_indices.cache_clear()
    kept = spectral._multi_indices.cache_info().maxsize
    assert kept is not None and 5 < kept <= 16  # more than the 5 pairs a benchmark run scans
    pairs = [(n, 3) for n in range(2, kept + 3)]  # one more than it keeps
    for pair in pairs:
        spectral._multi_indices(*pair)
    assert spectral._multi_indices.cache_info().currsize == kept
    spectral._multi_indices(*pairs[-1])
    assert spectral._multi_indices.cache_info().hits == 1
    spectral._multi_indices(*pairs[0])  # built again: it was dropped
    assert spectral._multi_indices.cache_info().misses == len(pairs) + 1


def _sampler_spectra(n, d, draws, seed, radius=0.05):
    """The sorted spectra of the zeros of seeded members drawn as the sampler
    draws them, in its (member, zero) row order; members that fail are dropped."""
    cfg = RunConfig(radius=radius)
    u = np.random.default_rng(seed).random((draws, n, 2))
    alphas = cfg.radius * np.sqrt(u[:, :, 0]) * np.exp(2j * np.pi * u[:, :, 1])
    x, _, _, errors = solver._track_members(n, d, alphas, cfg)
    tracked = [s for s in range(draws) if s not in errors]
    return eigenvalues(char_poly_direct(jouanolou_field(n, d), x[tracked].reshape(-1, n)))


def _same_scan(lams, delta, order, d):
    want = spectral._divisor_scan(lams, delta, order)
    got = spectral._divisor_scan(lams, delta, order, d)
    return got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


# (3,3), (5,3) and (5,2) are exactly resonant at alpha = 0
ANCHOR_RUNGS = [(2, 2, 40), (3, 2, 12), (3, 3, 8), (4, 3, 3), (5, 3, 1), (5, 2, 4), (7, 2, 1)]


@pytest.mark.parametrize("n,d,draws", ANCHOR_RUNGS)
def test_anchored_scan_is_bitwise_the_dense_scan(n, d, draws):
    lams = _sampler_spectra(n, d, draws, 700 + 10 * n + d)
    assert len(lams) == draws * counts(n, d).N
    for delta in (0.5, 1.0, 2.0):
        for order in (2, 6, 8):
            assert _same_scan(lams, delta, order, d), (delta, order)


@pytest.mark.parametrize("n,d,radius", [(3, 2, 0.3), (3, 3, 0.2), (5, 2, 0.2), (4, 3, 0.1)])
def test_anchored_scan_is_bitwise_the_dense_scan_far_from_alpha_zero(n, d, radius):
    # members drawn from a wider polydisk: their spectra lie far from s_m kappa,
    # and the bound rules out fewer candidates
    lams = _sampler_spectra(n, d, 6, 800 + 10 * n + d, radius)
    turned, perms = spectral._anchor(n, d, 8)[:2]
    refs = turned[np.arange(len(lams)) % len(turned)][:, perms]
    dev = np.abs(lams[:, None, :] - refs).max(axis=2).min(axis=1)
    size = np.abs(turned[-1]).max()
    assert dev.max() > 0.05 * size
    for delta in (0.5, 1.0, 2.0):
        assert _same_scan(lams, delta, 8, d), delta


def test_a_block_with_a_non_finite_bound_is_scanned_densely():
    lams = _sampler_spectra(3, 2, 2, 901)
    lams[3, 1] = np.nan
    assert _same_scan(lams, 1.0, 6, 2)
    assert spectral._divisor_scan(lams, 1.0, 6, 2)[1][3] == 0  # np.argmin's first nan


def test_a_block_far_from_alpha_zero_is_scanned_densely(monkeypatch):
    # at radius 1 the bound leaves more than a quarter of the block's candidates,
    # and the block goes to the dense scan
    lams = _sampler_spectra(3, 2, 6, 911, radius=1.0)
    found = []
    anchored = spectral._anchored_block
    monkeypatch.setattr(spectral, "_anchored_block", lambda *a: found.append(anchored(*a)) or found[-1])
    assert _same_scan(lams, 1.0, 8, 2)
    assert found == [None]


def test_the_anchor_fits_in_the_scan_budget_or_is_not_built():
    # (15,1), max_order 8: the dense scan counts 623 MiB and the anchor would take
    # 8 (P + 9) K bytes more, above SCAN_MAX_BYTES; at (11,1) more than the dense
    # scan's count: both are refused before any table is built
    spectral._anchor.cache_clear()
    tracemalloc.start()
    try:
        assert spectral._anchor(15, 1, 8) is None and spectral._anchor(11, 1, 8) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    # (10,1): built, within what it counts, and it holds 8 (P + 1) K bytes
    kept_count = spectral._scan_bytes(10, 8)[1]
    spectral._multi_indices(10, 8)
    tracemalloc.start()
    try:
        anchor = spectral._anchor(10, 1, 8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = len(anchor[1])
    assert anchor[2].shape == (count, kept_count)
    assert 8 * (count + 1) * kept_count <= held <= peak <= 8 * (count + 9) * kept_count
    assert peak <= spectral._scan_bytes(10, 8)[0]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (5, 2), (7, 2)])
def test_each_zero_table_is_the_kappa_table_permuted_at_alpha_zero(n, d):
    order = 8
    anchor = spectral._anchor(n, d, order)
    turned, perms, kept, values, bounds, size = anchor
    assert not any(a.flags.writeable for a in anchor[:5])
    _, row, col, abs_m, m = spectral._multi_indices(n, order)
    level = np.repeat(np.arange(2, order + 1), np.diff(bounds, prepend=0)[1:])
    assert turned.shape == (counts(n, d).N, n) and len(perms) == len(kept)
    assert (np.sort(perms, axis=1) == np.arange(n)).all()
    for k in kept:  # each map is a bijection of the kept candidates that keeps every level
        assert np.array_equal(np.sort(k), np.arange(len(row))) and (abs_m[k] == level).all()
    assert all((np.diff(values[lo:hi]) >= 0).all() for lo, hi in zip(bounds[:-1], bounds[1:]))
    # each zero's computed alpha = 0 spectrum, sorted, lies next to one of its
    # references s_m kappa[pi], and its table is the kappa table permuted by pi
    lams = eigenvalues(char_poly_direct(jouanolou_field(n, d), closed_form_coords(n, d)))
    devs = np.abs(lams[:, None, :] - turned[:, perms]).max(axis=2)
    perm, dev = devs.argmin(axis=1), devs.min(axis=1)
    assert dev.max() <= 1e-12 * size
    table = np.abs(lams[:, col] - np.matmul(m, lams[..., None])[..., 0][:, row])
    got = np.take_along_axis(table, kept[perm], axis=1)
    eps = np.finfo(float).eps
    margin = (1 + level) * (dev[:, None] + 2 * (n + 6) * eps * (2 * size + dev[:, None]))
    assert (np.abs(got - values) <= margin).all()
    # the zero's alpha = 0 witness (delta = 1) is its own minimum, up to the margin times the weight
    weighted = table * abs_m
    witness = np.argmin(values * level)
    top = kept[perm, witness]
    bound = weighted.min(axis=1) + 2 * order * margin.max()
    assert (weighted[np.arange(len(top)), top] <= bound).all()


def test_closed_form_caches_hold_eight_members():
    # unit_roots and closed_form_coords keep 8 (n, d) tables each, as
    # _multi_indices keeps 8 pairs: after 40 members of about one size, what
    # is held is about the last 8 members' tables, 16 N (n + 1) bytes each
    for cached in (jouanolou.unit_roots, jouanolou.closed_form_coords):
        cached.cache_clear()
        assert cached.cache_info().maxsize == 8
    members = [(2, d) for d in range(100, 140)]
    tracemalloc.start()
    try:
        for n, d in members:
            jouanolou.closed_form_coords(n, d)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    last = sum(16 * counts(n, d).N * (n + 1) for n, d in members[-8:])
    assert last < held < 1.5 * last  # all 40 would hold about 4 times as much


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


def _kernel_classes(lams, cfg=CFG):
    # the stacked kernel's class codes of an (R, n) stack, as class names
    codes = spectral._class_codes(np.asarray(lams, dtype=complex), cfg)
    return [spectral._CLASSES[c] for c in codes.tolist()]


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
                                 (6, 2), (7, 2)])
def test_kernel_class_codes_equal_classify_at_alpha_zero(n, d):
    cfg = RunConfig(max_order=3)
    coords = np.array([p.coords for p in closed_form_sing(n, d)])
    lams, codes = spectral._spectra(jouanolou_field(n, d), coords, cfg)[1:3]
    want = [classify(z, cfg) for z in lams]
    assert [spectral._CLASSES[c] for c in codes.tolist()] == want
    assert set(want) == {NONDEGENERATE_ONLY if (n, d) == (5, 2) else HYPERBOLIC}


def _exact_label_and_margin(n, d, cfg):
    """The alpha = 0 label of (n, d) and the smallest |Im| of its ratios, from
    60-digit roots of P_{n,d} (coefficients sigma_at_ones): the spectrum at
    every zero is x_1(m)^d, of modulus 1, times these roots, so the ratios
    and their order by modulus are the same at every zero."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots([1, *(int(c) for c in sigma_at_ones(n, d))], maxsteps=200,
                                 extraprec=200)
        if min(abs(r) for r in roots) <= cfg.tol_nd:
            return DEGENERATE, None
        ims = []
        for a, b in itertools.combinations(roots, 2):
            a, b = (b, a) if abs(a) > abs(b) else (a, b)
            ims.append(abs(mpmath.im(a / b)))
        near = [im for im in ims if im <= cfg.tol_hyp]
        if not near:
            return HYPERBOLIC, float(min(ims))
        exact = all(im < mpmath.mpf(10) ** -40 for im in near)
        return (NONDEGENERATE_ONLY if exact else INCONCLUSIVE), float(min(ims))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (4, 2), (5, 2), (6, 2),
                                 (7, 2), (2, 3), (2, 5)])
def test_alpha_zero_labels_equal_the_exact_labels_of_p_nd(n, d):
    # only (5,2) has a real ratio, P_{5,2} = (l+3)(l^2+4l+7)(l^2+3) with roots +-i sqrt 3,
    # whose computed ratios carry |Im| up to 2.3e-15; every other rung stays far off the axis
    cfg = RunConfig(max_order=3)
    want, margin = _exact_label_and_margin(n, d, cfg)
    if (n, d) == (5, 2):
        assert want == NONDEGENERATE_ONLY and margin < 1e-40
    else:
        assert want == HYPERBOLIC and margin >= 5.1e-2
    coords = np.array([p.coords for p in closed_form_sing(n, d)])
    lams, codes = spectral._spectra(jouanolou_field(n, d), coords, cfg)[1:3]
    assert [classify(z, cfg) for z in lams] == [want] * len(coords)
    assert _kernel_classes(lams, cfg) == [want] * len(coords)


FLOOR = 64 * np.finfo(float).eps


@pytest.mark.parametrize("im,want", [
    (0.0, NONDEGENERATE_ONLY),
    (2.26e-15, NONDEGENERATE_ONLY),          # the largest rounding seen at (5,2)
    (FLOOR, NONDEGENERATE_ONLY),
    (np.nextafter(FLOOR, 1), INCONCLUSIVE),
    (1e-10, INCONCLUSIVE),
    (np.nan, INCONCLUSIVE),                  # a nan still counts as nonzero
])
def test_a_ratio_at_or_below_the_real_floor_is_real(im, want):
    assert spectral.REAL_FLOOR == FLOOR
    # dividing by 1 + 0j is exact, so the ratio's |Im| is im itself
    lams = np.array([complex(0.5, im), 1.0])
    with np.errstate(invalid="ignore"):  # the scalar rule warns on a nan ratio
        assert classify(lams, CFG) == want
    with np.errstate(all="raise"):
        assert _kernel_classes([lams]) == [want]


@pytest.mark.parametrize("n,d,seed", [(2, 2, 611), (3, 2, 612), (3, 3, 613), (4, 3, 614),
                                      (5, 2, 615)])
def test_kernel_class_codes_equal_classify_on_seeded_draws(n, d, seed):
    f, coords = _sigma_stack(n, d, seed)
    lams = spectral._spectra(f, coords, RunConfig(max_order=3))[1]
    # wide thresholds move some zeros into the other classes
    for cfg in (CFG, RunConfig(tol_hyp=0.3), RunConfig(tol_nd=2.0)):
        assert _kernel_classes(lams, cfg) == [classify(z, cfg) for z in lams]


def test_kernel_class_codes_equal_classify_on_random_stacks():
    # moduli from e^-30 to e^30; a share of rows puts a pair on one ray, or next to it
    rng = np.random.default_rng(616)
    for n in (2, 3, 4):
        lams = np.exp(rng.uniform(-30, 30, (3000, n)) + 1j * rng.uniform(-np.pi, np.pi, (3000, n)))
        turn = rng.choice([1.0, -1.0, 2.5, 1 + 1e-10j, np.exp(3e-9j), np.exp(1e-9j)], 3000)
        pick = rng.random(3000) < 0.5
        lams[pick, -1] = lams[pick, 0] * turn[pick]
        for cfg in (CFG, RunConfig(tol_hyp=1e-2)):
            assert _kernel_classes(lams, cfg) == [classify(z, cfg) for z in lams]


def test_kernel_class_codes_on_hand_made_rows():
    a, b = 2.739233746429086 - 4.604265724722594j, 2.7392295194681906 - 4.6042682394822805j
    assert np.hypot(a.real, a.imag) == np.hypot(b.real, b.imag)
    # equal moduli: no swap, so [a, b] divides a / b and [b, a] divides b / a, which
    # differ in their last bits; tol_hyp sits on |Im(a / b)|
    tied = RunConfig(tol_hyp=float(abs((np.complex128(a) / np.complex128(b)).imag)))
    cases = [
        ([a, b], tied, INCONCLUSIVE),
        ([b, a], tied, HYPERBOLIC),
        ([0.0, 1.0], CFG, DEGENERATE),               # a zero eigenvalue
        ([0.0, 0.0], CFG, DEGENERATE),               # 0 / 0, under the kernel's errstate
        ([np.nan, 1.0], CFG, INCONCLUSIVE),          # a nan |Im| is near and nonzero
        ([1.0, complex(np.nan, 1.0)], CFG, INCONCLUSIVE),
        ([1.0, -2.0], CFG, NONDEGENERATE_ONLY),      # an exactly real ratio
        ([3j, -1.5j], CFG, NONDEGENERATE_ONLY),
        ([1.0, 1 + 1e-10j], CFG, INCONCLUSIVE),      # |Im| about 1e-10 < tol_hyp
        ([1.0, 1 + 1e-10j], RunConfig(tol_hyp=1e-11), HYPERBOLIC),
        ([1.0, 2.0, 2 + 1e-10j], CFG, INCONCLUSIVE),  # a real pair does not hide a near one
        ([-2 + 3j, -2 - 3j], CFG, HYPERBOLIC),
    ]
    for lams, cfg, want in cases:
        with np.errstate(invalid="ignore"):  # the scalar rule warns on a nan ratio
            assert classify(np.array(lams), cfg) == want
        with np.errstate(all="raise"):
            assert _kernel_classes([lams], cfg) == [want], lams
    im = float(abs((1 / np.complex128(1 + 1e-10j)).imag))
    for tol in (im, np.nextafter(im, 0)):  # |Im| on tol_hyp is near; just above it is not
        cfg = RunConfig(tol_hyp=tol)
        assert _kernel_classes([[1.0, 1 + 1e-10j]], cfg) == [classify(np.array([1.0, 1 + 1e-10j]), cfg)]
    assert _kernel_classes([[2.0], [0.0], [1j]]) == [HYPERBOLIC, DEGENERATE, HYPERBOLIC]  # n = 1
    # one stack holding all four classes, in the stack order
    mixed = [[-2 + 3j, -2 - 3j], [1.0, -2.0], [1.0, 1 + 1e-10j], [0.0, 1.0]]
    assert _kernel_classes(mixed) == [HYPERBOLIC, NONDEGENERATE_ONLY, INCONCLUSIVE, DEGENERATE]
    assert set(_kernel_classes(mixed)) == set(spectral._CLASSES)


def _recursive_multi_indices(n, max_order):
    # the recursive builder that the numpy table replaced, kept as its reference
    rows = []

    def extend(prefix, budget):
        if len(prefix) == n - 1:
            for last in range(budget + 1):
                row = (*prefix, last)
                if sum(row) >= 2:
                    rows.append(row)
            return
        for value in range(budget + 1):
            prefix.append(value)
            extend(prefix, budget - value)
            prefix.pop()

    extend([], max_order)
    return np.array(rows, dtype=np.int64)


def test_exponent_tables_equal_the_recursive_builder():
    for n, k in [(n, k) for n in range(1, 8) for k in (2, 3, 6, 8)] + [(2, 20)]:
        m, row = spectral._multi_indices(n, k)[:2]
        want = _recursive_multi_indices(n, k)
        assert m.dtype == want.dtype == np.int64 and np.array_equal(m, want), (n, k)
        assert not m.flags.writeable
        # kept candidates, as the size rule counts them: j = n, or m_j = 0 for j < n
        size = math.comb(k + n, n) - 1 - n
        assert len(m) == size
        assert len(row) == size + (n - 1) * (math.comb(k + n - 1, n - 1) - n)


def test_scan_is_refused_by_its_bytes_before_any_table_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exponent table was built")

    # n = 20 at max_order 8 would build about 5 GB
    monkeypatch.setattr(spectral, "_multi_indices", refuse)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(InputError, match="SCAN_MAX_BYTES"):
            small_divisor_scan(np.ones(20), 1.0, 8)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20
    with pytest.raises(InputError, match="SCAN_MAX_BYTES"):
        spectral._divisor_scan(np.ones((1, 17)), 1.0, 8)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _residue_gap(sigma, n, d):
    """Worst relative gap, over the partitions lam of n, between the Bott sum
    over zeros of e_lam(J) / e_n(J) and the Chern number c_lam of
    c(E) = (1 + h)^(n+1) / (1 - (d - 1) h)."""
    e = sigma * (-1.0) ** np.arange(1, n + 1)  # e_i = (-1)^i sigma_i
    c = [sum(math.comb(n + 1, j) * (d - 1) ** (i - j) for j in range(i + 1)) for i in range(n + 1)]
    gaps = []
    for lam in _partitions(n):
        total = np.sum(np.prod([e[:, k - 1] for k in lam], axis=0) / e[:, n - 1])
        want = math.prod(c[k] for k in lam)
        gaps.append(abs(total - want) / want)
    return max(gaps)


def _member_sigma(n, d, seed):
    params = FoliationParams(n, d) if seed is None else _member(n, d, seed)
    f = family_field(params)
    coords = np.array([p.coords for p in track_singularities(params, CFG)])
    return f, coords, char_poly_direct(f, coords)


@pytest.mark.parametrize("seed", [None, 607])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (2, 1), (3, 1), (5, 1)])
def test_bott_residues_sum_to_chern_numbers(n, d, seed):
    # independent of the closed forms and of the roots: one identity over all N zeros
    _, _, sigma = _member_sigma(n, d, seed)
    assert len(sigma) == counts(n, d).N
    assert _residue_gap(sigma, n, d) <= 1e-12


def test_bott_residues_see_a_lost_doubled_or_wrong_zero():
    n, d = 3, 2
    f, coords, sigma = _member_sigma(n, d, 608)
    assert _residue_gap(sigma, n, d) <= 1e-12
    assert _residue_gap(sigma[1:], n, d) > 1e-3  # about 1/N
    assert _residue_gap(np.vstack([sigma, sigma[:1]]), n, d) > 1e-3
    one_row = PolyVectorField(n, ({e: 1.001 * v for e, v in f.components[0].items()},
                                  *f.components[1:]))
    wrong = sigma.copy()
    wrong[0] = char_poly_direct(one_row, coords[0])
    assert _residue_gap(wrong, n, d) > 1e-6
    # e_lam / e_n has degree 0, so a scalar multiple of one Jacobian goes unseen
    scaled = sigma.copy()
    scaled[0] *= 2.0 ** np.arange(1, n + 1)
    assert _residue_gap(scaled, n, d) <= 1e-12


def test_root_gate_stops_the_spectra_of_large_linear_members():
    # a known failure kept visible: at alpha = (0.01, 0, ...) the companion-matrix
    # roots pass the gate up to n = 28 and fail it at n = 29, 30 and 40
    params = FoliationParams(40, 1, (0.01,) + (0,) * 39)
    coords = np.array([p.coords for p in track_singularities(params, CFG)])
    sigma = char_poly_direct(family_field(params), coords)
    with pytest.raises(ConvergenceError, match="relative residual"):
        eigenvalues(sigma)
