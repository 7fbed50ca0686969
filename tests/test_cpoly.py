"""Sparse polynomial vector fields: evaluation, Jacobians, diagonal maps."""

import mpmath as mp
import numpy as np
import pytest

from foliationlab import (
    FoliationParams,
    InputError,
    PolyVectorField,
    closed_form_coords,
    diagonal_pushforward,
    eval_field,
    family_field,
    field_distance,
    jacobian,
    jouanolou_field,
    linear_diagonal_field,
    scale_field,
)
from foliationlab import cpoly
from foliationlab.cpoly import EVAL_BLOCK, _evaluate


def _random_field(rng, n, terms=5, max_exp=3):
    comps = []
    for _ in range(n):
        c = {}
        for _ in range(terms):
            e = tuple(int(v) for v in rng.integers(0, max_exp + 1, size=n))
            c[e] = complex(rng.standard_normal(), rng.standard_normal())
        comps.append(c)
    return PolyVectorField(n, tuple(comps))


def test_eval_matches_hand_expansion():
    # F = (3x^2y - 1, x + 2i y^3)
    f = PolyVectorField(2, ({(2, 1): 3.0, (0, 0): -1.0},
                            {(1, 0): 1.0, (0, 3): 2j}))
    x, y = 0.7 - 0.2j, -1.1 + 0.5j
    got = eval_field(f, np.array([x, y]))
    want = np.array([3 * x**2 * y - 1, x + 2j * y**3])
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_eval_empty_component_is_zero():
    f = PolyVectorField(2, ({}, {(0, 0): 1.0}))
    got = eval_field(f, np.array([2.0, 3.0]))
    assert got[0] == 0 and got[1] == 1


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(20240517)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 5))
        f = _random_field(rng, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        jac = jacobian(f, x)
        fd = np.empty((n, n), dtype=complex)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (eval_field(f, x + e) - eval_field(f, x - e)) / (2 * h)
        assert np.allclose(jac, fd, rtol=0, atol=1e-6)


def test_jacobian_drops_constant_terms():
    f = PolyVectorField(2, ({(0, 0): 4.0}, {(1, 0): 1.0}))
    jac = jacobian(f, np.array([1.0, 1.0]))
    assert np.allclose(jac, [[0, 0], [1, 0]])


def test_diagonal_pushforward_intertwines_evaluation():
    # G = push(F, s) must satisfy G(s*x) = s * F(x) componentwise.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = _random_field(rng, n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = diagonal_pushforward(f, s)
        assert np.allclose(eval_field(g, s * x), s * eval_field(f, x),
                           rtol=1e-12, atol=1e-12)


def test_diagonal_pushforward_rejects_zero_scale():
    f = PolyVectorField(2, ({(1, 0): 1.0}, {(0, 1): 1.0}))
    with pytest.raises(InputError):
        diagonal_pushforward(f, np.array([1.0, 0.0]))


def test_diagonal_pushforward_rejects_a_scale_of_the_wrong_shape():
    f = PolyVectorField(2, ({(1, 0): 1.0}, {(0, 1): 1.0}))
    for scale in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(InputError, match=r"^scale has shape .*, expected \(2,\)$"):
            diagonal_pushforward(f, scale)


def test_field_distance_rejects_mismatched_dimensions():
    with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
        field_distance(jouanolou_field(2, 2), jouanolou_field(3, 2))


def test_scale_and_distance():
    rng = np.random.default_rng(11)
    f = _random_field(rng, 3)
    assert field_distance(f, f) == 0.0
    g = scale_field(f, 2.0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(eval_field(g, x), 2 * eval_field(f, x))
    # distance sees the worst coefficient gap
    assert field_distance(f, g) == pytest.approx(
        max(abs(c) for comp in f.components for c in comp.values()))


def test_linear_diagonal_field_jacobian():
    lams = np.array([2.0 + 1j, -0.5, 3.0])
    f = linear_diagonal_field(lams)
    assert np.allclose(eval_field(f, np.ones(3)), lams)
    assert np.allclose(jacobian(f, np.zeros(3)), np.diag(lams))


def test_validation_rejects_bad_shapes():
    with pytest.raises(InputError):
        PolyVectorField(1, ({(0,): 1.0},))
    with pytest.raises(InputError):
        PolyVectorField(2, ({(0, 0): 1.0},))  # wrong component count
    with pytest.raises(InputError):
        PolyVectorField(2, ({(0, 0, 0): 1.0}, {}))  # wrong exponent arity
    with pytest.raises(InputError):
        PolyVectorField(2, ({(-1, 0): 1.0}, {}))  # negative exponent


@pytest.mark.parametrize("exponent", [2.5, 2.0, "2", True, np.True_, np.float64(2), None],
                         ids=repr)
def test_non_integer_exponents_are_refused_not_truncated(exponent):
    with pytest.raises(InputError, match="^exponents must be integers, got "):
        PolyVectorField(2, ({(exponent, 0): 1}, {(0, 0): 1}))


def test_numpy_integer_exponents_are_python_ints():
    f = PolyVectorField(2, ({(np.int64(2), np.uint8(0)): 1}, {(0, 0): 1}))
    assert f == PolyVectorField(2, ({(2, 0): 1}, {(0, 0): 1}))
    assert all(type(e) is int for e in next(iter(f.components[0])))


def test_zero_coefficients_are_pruned():
    f = PolyVectorField(2, ({(1, 0): 0.0, (0, 1): 2.0}, {}))
    assert (1, 0) not in f.components[0]
    assert f.components[0][(0, 1)] == 2.0


def test_stacked_points_match_one_point_calls_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = _random_field(rng, n)
        xs = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
        xs[0] = 0
        vals, jacs = eval_field(f, xs), jacobian(f, xs)
        assert vals.shape == (7, n) and jacs.shape == (7, n, n)
        assert vals.tobytes() == np.array([eval_field(f, x) for x in xs]).tobytes()
        assert jacs.tobytes() == np.array([jacobian(f, x) for x in xs]).tobytes()


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 2), ()])
def test_points_of_the_wrong_shape_are_rejected(shape):
    f = linear_diagonal_field([1.0, 2.0])
    for fn in (eval_field, jacobian):
        with pytest.raises(InputError):
            fn(f, np.zeros(shape))


def _power(v, e):
    """v^e by binary powering from the least significant bit: the running
    product times the square of each set bit, the first one taken as it is."""
    acc, square = None, v
    while True:
        if e & 1:
            acc = square if acc is None else acc * square
        e >>= 1
        if not e:
            return acc
        square = square * square


def _reference(f, x):
    """Value, Jacobian and second partials at x the long way: walk the
    coefficient dicts and list every term (by component, exponents sorted),
    every formal partial of it (by variable) and every partial of that.
    Each term is the product of its nonzero factors x_j^e_j by variable,
    padded with ones to the most factors a term of its list has, times its
    coefficient.  Each slot is its first term plus its later ones in list
    order, padded with zeros to the most terms a slot of its list has.

    Each product is taken over all the points as one array, as in the
    library: numpy's vectorized complex multiply may fuse multiply-adds, so
    a product taken one scalar at a time can differ from it in the last bit.
    """
    pts = np.asarray(x, dtype=complex).reshape(-1, f.n)
    terms, partials, seconds = [], [], []
    for i, comp in enumerate(f.components):
        for e, c in sorted(comp.items()):
            terms.append(((i,), e, c))
            for j in range(f.n):
                if e[j]:
                    de = list(e)
                    de[j] -= 1
                    partials.append(((i, j), tuple(de), c * e[j]))
    for (i, j), e, c in partials:
        for k in range(f.n):
            if e[k]:
                de = list(e)
                de[k] -= 1
                seconds.append(((i, j, k), tuple(de), c * e[k]))
    ones, zeros = np.ones(len(pts), dtype=complex), np.zeros(len(pts), dtype=complex)
    results = []
    for rank, rows in ((1, terms), (2, partials), (3, seconds)):
        most = max([1, *(np.count_nonzero(e) for _, e, _ in rows)])
        by_slot = {}
        for slot, e, c in rows:
            factors = [_power(pts[:, j], ej) for j, ej in enumerate(e) if ej]
            factors += [ones] * (most - len(factors))
            value = factors[0]
            for factor in factors[1:]:
                value = value * factor
            by_slot.setdefault(slot, []).append(value * c)
        rounds = max(map(len, by_slot.values()), default=0)
        out = np.zeros((len(pts),) + (f.n,) * rank, dtype=complex)
        for slot, values in by_slot.items():
            total = values[0]
            for value in values[1:] + [zeros] * (rounds - len(values)):
                total = total + value
            out[(slice(None), *slot)] = total
        results.append(out.reshape(np.shape(x)[:-1] + (f.n,) * rank))
    return results


def _sparse_field(rng, n):
    """Up to four random terms per component; some components stay empty."""
    comps = []
    for _ in range(n):
        terms = int(rng.integers(0, 5))
        exps = rng.integers(0, 4, size=(terms, n))
        comps.append({tuple(int(v) for v in e): complex(*rng.standard_normal(2)) for e in exps})
    return PolyVectorField(n, tuple(comps))


def _reference_cases():
    rng = np.random.default_rng(808)
    cases = {}
    for n, d in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]:
        alpha = tuple(0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        one_zero = (0j,) + alpha[1:]
        for name, a in [("alpha", alpha), ("alpha0", ()), ("one-zero", one_zero)]:
            cases[f"member-{n}-{d}-{name}"] = family_field(FoliationParams(n, d, a))
        scale = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases[f"pushforward-{n}-{d}"] = diagonal_pushforward(cases[f"member-{n}-{d}-alpha"], scale)
        cases[f"scaled-{n}-{d}"] = scale_field(jouanolou_field(n, d), 0.3 - 1.7j)
    cases["linear-diagonal"] = linear_diagonal_field([2.0 + 1j, -0.5, 3.0, 0.0])
    for k in range(8):
        cases[f"sparse-{k}"] = _sparse_field(rng, 2 + k % 4)
    cases["all-empty"] = PolyVectorField(3, ({}, {}, {}))
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_compiled_tables_equal_dict_walk_bitwise(name):
    f = PolyVectorField(REFERENCE_CASES[name].n, REFERENCE_CASES[name].components)
    rng = np.random.default_rng(len(name))
    xs = rng.standard_normal((6, f.n)) + 1j * rng.standard_normal((6, f.n))
    xs[0] = 0
    xs[1] = 1
    eval_field(f, xs), jacobian(f, xs)
    assert len(f._compiled()) == 2  # the second partials wait for a call that asks
    for x in [*xs, xs]:
        val, jac, hess = _reference(f, x)
        assert eval_field(f, x).tobytes() == val.tobytes()
        assert jacobian(f, x).tobytes() == jac.tobytes()
        assert _evaluate(f, x, 2, f.n**3).reshape(hess.shape).tobytes() == hess.tobytes()


def test_sparse_cases_include_empty_components():
    assert any(not comp for name, f in REFERENCE_CASES.items() if name.startswith("sparse")
               for comp in f.components)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_member_jacobian_is_the_base_jacobian_bitwise(n, d):
    # alpha is a constant term, which has no partials, so every member shares
    # the base field's Jacobian tables (the sampler takes spectra from the base)
    rng = np.random.default_rng(10 * n + d)
    zeros = closed_form_coords(n, d)
    points = zeros + 0.01 * rng.standard_normal(zeros.shape)
    base = jacobian(jouanolou_field(n, d), points)
    for alpha in [0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                  np.r_[0.0, 0.02j * np.ones(n - 1)],     # one zero alpha_i
                  np.r_[0.01 * np.ones(n - 1), -1.0]]:     # last constant cancels
        member = family_field(FoliationParams(n, d, tuple(alpha)))
        assert jacobian(member, points).tobytes() == base.tobytes()
        assert jacobian(member, points[3]).tobytes() == base[3].tobytes()


def _oracle(f, x):
    """Value, Jacobian and second partials of f at the point x in 50-digit
    mpmath, each entry with the sum of |c x^e| over its terms, from the
    coefficient dicts and exact integer multipliers."""
    with mp.workdps(50):
        xs = [mp.mpc(complex(v)) for v in x]
        rows = [((i,), e, mp.mpc(c)) for i, comp in enumerate(f.components) for e, c in comp.items()]
        tables = []
        for rank in (1, 2, 3):
            exact = np.zeros((f.n,) * rank, dtype=object)
            size = np.zeros((f.n,) * rank, dtype=object)
            for slot, e, c in rows:
                term = c * mp.fprod(v ** k for v, k in zip(xs, e))
                exact[slot] += term
                size[slot] += abs(term)
            tables.append((exact, size))
            rows = [(slot + (j,), e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j])
                    for slot, e, c in rows for j in range(f.n) if e[j]]
        return tables


ACCURACY_CASES = [(2, d, None) for d in (2, 3, 99, 100, 200)] + [(5, 3, 1), (7, 2, 2)]


@pytest.mark.parametrize("n,d,seed", ACCURACY_CASES)
def test_evaluation_is_within_gamma_k_of_a_50_digit_oracle(n, d, seed):
    """Every entry of the value, the Jacobian and the second partials lies
    within gamma_k sum |c x^e| of the exact sum, gamma_k = k u / (1 - k u)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3), with
    k = 6 b + 9 and b the bit length of d + 1.  A term's path holds at most
    2 b + 2 complex multiplications: binary powering takes at most 2 (b - 1)
    for the power of x_1, one multiplies the two nonzero factors, one the
    coefficient and up to two form the partials' integer multipliers; each
    is within 3 u, and each slot adds at most 3 terms.  The points are
    closed-form zeros scaled by (1 + 1e-3), of the base field at n = 2 and
    of a seeded member otherwise."""
    alpha = () if seed is None else tuple(
        0.04 * np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n)))
    f = family_field(FoliationParams(n, d, alpha))
    k = 6 * (d + 1).bit_length() + 9
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    zeros = closed_form_coords(n, d)
    for x in zeros[[0, len(zeros) // 3, -1]] * (1 + 1e-3):
        got = [eval_field(f, x), jacobian(f, x), _evaluate(f, x, 2, n**3).reshape((n,) * 3)]
        for value, (exact, size) in zip(got, _oracle(f, x)):
            for idx in np.ndindex(value.shape):
                assert abs(mp.mpc(complex(value[idx])) - exact[idx]) <= gamma * size[idx], idx


def _stack_cases():
    cases = []
    for n, d in [(2, 2), (5, 3), (2, 200)]:
        zeros = closed_form_coords(n, d)
        big = 5 * EVAL_BLOCK + 7  # past 256 KiB of (R, n) points and across blocks
        for rows in (1, len(zeros), big):
            cases.append((n, d, rows))
    return cases


@pytest.mark.parametrize("n,d,rows", _stack_cases())
def test_rows_of_a_stack_are_the_one_point_calls_bitwise(n, d, rows):
    """Row r of a stack of R points is bitwise the one-point call at row r,
    for the value (with and without a constant per row), the Jacobian and the
    second partials: at R = 1, at R = N and at an R whose (R, n) stacks pass
    256 KiB, where numpy may compute a product into a temporary operand, and
    whose rows span several blocks of EVAL_BLOCK points."""
    rng = np.random.default_rng(rows + 10 * n + d)
    zeros = closed_form_coords(n, d)
    xs = zeros[rng.integers(0, len(zeros), size=rows)] * (1 + 0.01 * rng.standard_normal((rows, n)))
    const = 0.04 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    f = jouanolou_field(n, d)
    stacks = [eval_field(f, xs), _evaluate(f, xs, 0, n, const), jacobian(f, xs),
              _evaluate(f, xs, 2, n**3)]
    assert stacks[1].shape == (rows, n) and stacks[2].shape == (rows, n, n)
    picked = sorted({0, rows // 2, rows - 1, *rng.integers(0, rows, size=12).tolist()})
    for r in picked:
        x = xs[r]
        ones = [eval_field(f, x), _evaluate(f, x, 0, n, const[r]), jacobian(f, x),
                _evaluate(f, x, 2, n**3)]
        for stack, one in zip(stacks, ones):
            assert stack[r].tobytes() == one.tobytes(), r


def test_fields_with_the_same_exponents_share_their_schedules():
    # a member's exponents depend on alpha only through which alpha_i are 0,
    # so a fresh family_field of the same support compiles nothing new
    rng = np.random.default_rng(5)
    n, d = 3, 2
    full = [tuple(0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) for _ in range(2)]
    first, second = (family_field(FoliationParams(n, d, a))._compiled(2) for a in full)
    assert all(a[0] is b[0] for a, b in zip(first, second))
    assert first[0][1].tobytes() != second[0][1].tobytes()
    misses = cpoly._schedule.cache_info().misses
    family_field(FoliationParams(n, d, full[0][::-1]))._compiled(2)
    assert cpoly._schedule.cache_info().misses == misses
    one_zero = family_field(FoliationParams(n, d, (0,) + full[0][1:]))._compiled(2)
    assert all(a[0] is not b[0] for a, b in zip(first, one_zero))
