"""Family definition, closed-form singularities, and the diagonal symmetry group."""

import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest

from foliationlab import (
    FactorizationError,
    FoliationParams,
    GroupElement,
    InputError,
    PolyVectorField,
    counts,
    closed_form_coords,
    closed_form_sing,
    eval_field,
    family_field,
    generator_weights,
    group_action,
    group_element,
    group_elements,
    jouanolou_field,
    pushforward_factor,
    unit_root,
)
from foliationlab import jouanolou
from foliationlab.jouanolou import MEMBER_MAX_ENTRIES, unit_roots

DESK = [(n, d) for n in (2, 3, 4) for d in (1, 2, 3)]


def test_counts_frozen_values():
    assert counts(2, 2).N == 7
    assert counts(3, 2).N == 15
    assert counts(3, 3).N == 40
    assert counts(3, 2).M == 35
    assert counts(3, 2).K == 5
    assert counts(3, 3).K == 10
    assert counts(5, 2).K == 21
    # K vanishes for even n and for d = 1
    assert counts(2, 2).K == 0
    assert counts(4, 2).K == 0
    assert counts(3, 1).K == 0


def test_counts_against_binomials():
    # the closed forms against the defining sums
    for n, d in DESK + [(n, d) for n in range(5, 41) for d in range(1, 13)]:
        c = counts(n, d)
        assert c.N == sum(d**t for t in range(n + 1))
        assert c.M == n * math.comb(n + d, d) + math.comb(n + d - 1, d) - 1
        assert c.K == (sum(d**t for t in range(0, n, 2)) if n % 2 == 1 and d >= 2 else 0)
        if n % 2 == 1 and d >= 2:
            assert (d + 1) * c.K == c.N
    assert counts(10**9, 1) == jouanolou.Counts(N=10**9 + 1, M=10**18 + 2 * 10**9 - 1, K=0)


def test_counts_refuse_what_cannot_print():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-to-str digit limit in this interpreter")
    message = rf"^N or M would have more than {limit} digits \(sys\.get_int_max_str_digits\(\)\)$"
    # 2^(n + 1) - 1 < 10^limit up to n_max, and not beyond
    n_max = (10**limit).bit_length() - 2
    assert len(str(counts(n_max, 2).N)) == limit
    for n, d in [(n_max + 1, 2), (10**5, 2), (10**9, 3), (2, 10**limit)]:
        with pytest.raises(InputError, match=message):
            counts(n, d)
    # at d = 1, N = n + 1 prints but M, about n^2, does not
    with pytest.raises(InputError, match=message):
        counts(10 ** (limit // 2 + 1), 1)


@pytest.mark.parametrize("call,message", [
    (lambda: unit_root(1, 0), "^order must be at least 1, got 0$"),
    (lambda: unit_root(1, 2.5), "^order must be an integer, got 2.5$"),
    (lambda: unit_root(2.5, 3), "^k must be an integer, got 2.5$"),
    (lambda: unit_roots(0), "^order must be at least 1, got 0$"),
    (lambda: unit_roots(-3), "^order must be at least 1, got -3$"),
    (lambda: unit_root(1, 10**13),
     "^order must be at most MEMBER_MAX_ENTRIES // 4 = 1048576, got 10000000000000$"),
    (lambda: unit_roots(MEMBER_MAX_ENTRIES // 4 + 1),
     "^order must be at most MEMBER_MAX_ENTRIES // 4 = 1048576, got 1048577$"),
], ids=["order-0", "order-float", "k-float", "table-0", "table-negative", "order-huge",
        "table-above-members"])
def test_unit_roots_refuse_bad_orders_and_powers(call, message):
    with pytest.raises(InputError, match=message):
        call()
    assert unit_root(np.int64(-1), np.int64(3)) == unit_root(2, 3)
    # no member is refused by it: N n^2 <= MEMBER_MAX_ENTRIES with n >= 2, and
    # (2, 1023) is the largest member
    assert counts(2, 1023).N <= MEMBER_MAX_ENTRIES // 4 < counts(2, 1024).N


def test_field_components_2_2():
    f = jouanolou_field(2, 2)
    assert f.components[0] == {(0, 2): 1, (3, 0): -1}
    assert f.components[1] == {(0, 0): 1, (2, 1): -1}


def test_family_field_constant_slots():
    a, b = 0.03 - 0.01j, -0.02j
    f = family_field(FoliationParams(2, 2, (a, b)))
    assert f.components[0][(0, 0)] == a
    assert f.components[1][(0, 0)] == 1 + b
    # alpha = 0 gives back the unperturbed field
    assert family_field(FoliationParams(2, 2)).components == jouanolou_field(2, 2).components


def _two_step_family_field(params):
    # the family member as it was first built: the base field, then a copy
    # of its tables with alpha added to the constant slots
    n, d = params.n, params.d
    comps = []
    for i in range(n - 1):
        lead = [0] * n
        lead[i + 1] = d
        drag = [0] * n
        drag[i] += 1
        drag[0] += d
        comps.append({tuple(lead): 1.0 + 0j, tuple(drag): -1.0 + 0j})
    drag = [0] * n
    drag[n - 1] += 1
    drag[0] += d
    comps.append({(0,) * n: 1.0 + 0j, tuple(drag): -1.0 + 0j})
    base = PolyVectorField(n, tuple(comps))
    zero = (0,) * n
    comps = []
    for i, comp in enumerate(base.components):
        table = dict(comp)
        table[zero] = table.get(zero, 0) + params.alpha[i]
        comps.append(table)
    return PolyVectorField(n, tuple(comps))


def _exact(field_):
    # repr keeps the sign of a zero part, which == does not
    return [repr(sorted(comp.items())) for comp in field_.components]


def test_family_field_equals_the_two_step_build():
    rng = np.random.default_rng(55)
    for n, d in DESK + [(5, 2), (5, 3)]:
        alpha = 0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for a in [alpha, np.zeros(n), np.r_[0.0, alpha[1:]], np.r_[alpha[:-1], -1.0],
                  np.r_[-0.0, alpha[1:-1], complex(-1.0, -0.0)], np.full(n, complex(0.0, -0.0))]:
            params = FoliationParams(n, d, tuple(a))
            assert _exact(family_field(params)) == _exact(_two_step_family_field(params))
        assert _exact(jouanolou_field(n, d)) == _exact(_two_step_family_field(FoliationParams(n, d)))


@pytest.mark.parametrize("n", range(2, 8))
def test_no_member_has_a_singular_point_at_infinity(n):
    """Write a member of degree d as F = P_0 + ... + P_d + g R, with P_k
    homogeneous of degree k, R = (x_1, ..., x_n) the radial field and g
    homogeneous of degree d.  A singular point [v] of the foliation on the
    hyperplane at infinity needs g(v) = 0 and P_d(v) = lambda v (M. Brunella,
    *Birational Geometry of Foliations*, ch. 1).  On the coefficient tables:
    the degree-(d + 1) part of component i is -x_1^d x_i, so g = -x_1^d; the
    degree-d part is x_{i+1}^d, and 0 for i = n; neither depends on alpha.
    So g(v) = 0 gives v_1 = 0, and entry i of P_d(v) = lambda v gives
    v_{i+1}^d = lambda v_i = 0 in turn: v = 0 is no point, and every member
    has all its N zeros in C^n."""
    _check_no_singular_point_at_infinity(n, 2, seed=70 + n)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (5, 3), (2, 30), (4, 1)])
def test_no_member_of_any_degree_has_a_singular_point_at_infinity(n, d):
    # the same argument at other degrees, d = 1 and d = 30 among them
    _check_no_singular_point_at_infinity(n, d, seed=100 * n + d)


def _check_no_singular_point_at_infinity(n, d, seed):
    """For the base member, a seeded member and one with alpha_1 = 0: the
    degree-(d + 1) part of component i is -x_1^d x_i, the degree-d parts are
    (x_2^d, ..., x_n^d, 0), and these force v = 0 at a point [v] at infinity."""
    rng = np.random.default_rng(seed)
    alpha = tuple(0.04 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    parts = []
    for a in [(), alpha, (0,) + alpha[1:]]:
        comps = family_field(FoliationParams(n, d, a)).components
        parts.append([[{e: c for e, c in comp.items() if sum(e) == k} for comp in comps]
                      for k in (d + 1, d)])
    top, lead = parts[0]
    assert parts[1:] == [parts[0]] * 2
    unit = np.eye(n, dtype=int)
    for i in range(n):
        assert top[i] == {tuple(d * unit[0] + unit[i]): -1}
        assert lead[i] == ({tuple(d * unit[i + 1]): 1} if i < n - 1 else {})
    vanishing = {0}  # g = -x_1^d vanishes at v only if v_1 = 0
    for i in range(n - 1):  # entry i of P_d(v) = lambda v: v_{i+1}^d = lambda v_i
        if i in vanishing and list(lead[i]) == [tuple(d * unit[i + 1])]:
            vanishing.add(i + 1)
    assert vanishing == set(range(n))


def test_closed_forms_are_zeros_and_distinct():
    for n, d in DESK:
        pts = closed_form_sing(n, d)
        f = jouanolou_field(n, d)
        assert len(pts) == counts(n, d).N
        coords = np.array([p.coords for p in pts])
        for p in pts:
            assert np.max(np.abs(eval_field(f, np.array(p.coords)))) < 1e-12
        for i in range(len(pts)):
            d_ij = np.max(np.abs(coords[i + 1:] - coords[i]), axis=1) if i + 1 < len(pts) else []
            assert all(v > 1e-6 for v in d_ij)
        assert np.allclose(coords[-1], np.ones(n), rtol=0, atol=1e-14)


def test_closed_form_exponents():
    # coordinate i of p_m is xi^(-m (d + ... + d^(n+1-i))), coordinate 1 is xi^m
    n, d = 3, 2
    N = counts(n, d).N
    pts = closed_form_sing(n, d)
    for m in range(1, N + 1):
        p = pts[m - 1]
        assert p.m == m
        xi = cmath.exp(2j * cmath.pi * m / N)
        want = [xi, xi ** (-(d + d * d)), xi ** (-d)]
        assert np.allclose(np.array(p.coords), np.array(want), rtol=0, atol=1e-12)


def test_closed_form_array_is_cached_read_only_and_exact():
    for n, d in DESK:
        N = counts(n, d).N
        coords = closed_form_coords(n, d)
        assert coords is closed_form_coords(n, d)
        assert coords.shape == (N, n) and not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0] = 0
        exps = [1] + [-sum(d**t for t in range(1, n + 2 - i)) for i in range(2, n + 1)]
        want = [[unit_root(m * e, N) for e in exps] for m in range(1, N + 1)]
        assert coords.tobytes() == np.array(want).tobytes()
        assert [p.coords for p in closed_form_sing(n, d)] == [tuple(row) for row in want]


def test_generator_weights_frozen():
    assert generator_weights(2, 2) == (1, 5)
    assert generator_weights(3, 2) == (1, 9, 13)
    assert generator_weights(2, 3) == (1, 10)


def test_group_elements_structure():
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        N = counts(n, d).N
        els = group_elements(n, d)
        assert len(els) == N
        w = generator_weights(n, d)
        for k, g in enumerate(els):
            assert g.k == k
            assert g.order == N
            assert g.weights == tuple((k * wi) % N for wi in w)
            assert group_element(n, d, k) == group_element(n, d, k - 2 * N) == g
    with pytest.raises(InputError, match="MEMBER_MAX_ENTRIES"):
        group_element(12, 4, 1)


def test_group_action_permutes_singularities():
    for n, d in [(2, 2), (3, 2)]:
        N = counts(n, d).N
        pts = closed_form_sing(n, d)
        for g in group_elements(n, d):
            for m in (1, N // 2, N):
                moved = group_action(g, np.array(pts[m - 1].coords))
                target = pts[(m + g.k - 1) % N].coords
                assert np.allclose(moved, np.array(target), rtol=0, atol=1e-12)


def test_pushforward_factor_frozen_2_2():
    a, b = 0.03 - 0.01j, 0.02 + 0.04j
    g = group_elements(2, 2)[1]
    c, alpha_t, residual = pushforward_factor(g, FoliationParams(2, 2, (a, b)))
    assert residual < 1e-12
    assert abs(c - unit_root(5, 7)) < 1e-12           # xi^(-d) for k=1
    assert abs(alpha_t[0] - unit_root(3, 7) * a) < 1e-12
    assert abs(alpha_t[1] - b) < 1e-12


def test_pushforward_factor_identity_element():
    g = group_elements(2, 2)[0]
    c, alpha_t, residual = pushforward_factor(g, FoliationParams(2, 2, (0.01, 0.02)))
    assert c == 1 and residual < 1e-15
    assert np.allclose(alpha_t, (0.01, 0.02))


def test_pushforward_residual_all_powers():
    rng = np.random.default_rng(915)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        N = counts(n, d).N
        for g in group_elements(n, d):
            re, im = rng.uniform(-0.03, 0.03, size=(2, n))
            params = FoliationParams(n, d, tuple(re + 1j * im))
            c, alpha_t, residual = pushforward_factor(g, params)
            assert residual < 1e-12
            assert abs(abs(c) - 1) < 1e-12
            # diagonal scalings only rotate the perturbation parameters
            for ai, ti in zip(params.alpha, alpha_t):
                assert abs(abs(ti) - abs(ai)) < 1e-12


def test_pushforward_rejects_non_group_scaling():
    bogus = GroupElement(k=1, weights=(1, 4), order=7)
    with pytest.raises(FactorizationError):
        pushforward_factor(bogus, FoliationParams(2, 2, (0.01, 0.0)))


@pytest.mark.parametrize("k", [1.5, 2.0, True, "1", None], ids=repr)
def test_group_element_refuses_a_power_that_is_not_an_integer(k):
    with pytest.raises(InputError, match="^generator power k must be an integer, got "):
        group_element(2, 2, k)


def test_group_element_takes_numpy_integers():
    assert group_element(2, 2, np.int64(3)) == group_element(2, 2, 3)


def test_group_action_rejects_a_point_of_the_wrong_shape():
    g = group_element(3, 2, 1)
    for x in ([1.0, 1.0], np.ones((1, 3)), 1.0):
        with pytest.raises(InputError, match=r"^point has shape .*, expected \(3,\)$"):
            group_action(g, x)


def test_pushforward_rejects_an_element_of_another_dimension():
    with pytest.raises(InputError, match="^group element has 3 weights, expected 2$"):
        pushforward_factor(group_element(3, 2, 1), FoliationParams(2, 2, (0.01, 0.0)))


def test_unit_roots_table_is_read_only():
    before = unit_root(1, 13)
    table = unit_roots(13)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0
    assert unit_roots(13) is table
    assert unit_root(1, 13) == before
    assert abs(before - cmath.exp(2j * cmath.pi / 13)) < 1e-15


NON_FINITE = [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
              complex(0, -math.inf)]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_params_reject_non_finite_alpha(slot, value):
    alpha = [0.01, 0j, -0.02j]
    alpha[slot] = value
    with pytest.raises(InputError, match="^alpha entries must be finite$"):
        FoliationParams(3, 2, tuple(alpha))


@pytest.mark.parametrize("n,d,message", [
    (2, True, "^degree must be an integer >= 1, got True$"),
    (True, 2, "^ambient dimension must be an integer >= 2, got True$"),
    (2, 2.0, "^degree must be an integer >= 1, got 2.0$"),
    (np.int64(2), 2, "^ambient dimension must be an integer >= 2, got np.int64"),
    (2, np.int64(2), "^degree must be an integer >= 1, got np.int64"),
], ids=["bool-d", "bool-n", "float-d", "numpy-n", "numpy-d"])
def test_n_and_d_must_be_python_ints(n, d, message):
    for call in (counts, FoliationParams):
        with pytest.raises(InputError, match=message):
            call(n, d)


def test_params_keep_their_alpha_checks():
    assert FoliationParams(3, 2).alpha == (0j, 0j, 0j)
    assert FoliationParams(2, 2, (1, 2j)).alpha == (1 + 0j, 2j)
    with pytest.raises(InputError, match="alpha has 1 entries, expected 2"):
        FoliationParams(2, 2, (0.01,))


@pytest.mark.parametrize("alpha,bad", [
    (("0.01", True), "'0.01'"), ((0.01, True), "True"), (("a", 0), "'a'"),
    ((b"1", 0), "b'1'"), ((0, np.True_), r"np.True_"), ((10**400, 0), "1000"),
    ((None, 0), "None"),
], ids=["str", "bool", "bad-str", "bytes", "numpy-bool", "huge-int", "none"])
def test_params_refuse_alpha_entries_that_are_not_numbers(alpha, bad):
    # complex() would parse a string and read a bool as 1
    with pytest.raises(InputError, match=f"^alpha entry must be a number, got {bad}"):
        FoliationParams(2, 2, alpha)
    assert FoliationParams(2, 2, (np.float32(0.5), np.complex64(1j))).alpha == (0.5 + 0j, 1j)


# (n, d) pairs above MEMBER_MAX_ENTRIES: N = 22 369 621 zeros, n = 2000 with
# N = n + 1 whose evaluator tables would not fit, and an n whose N is never summed.
OVERSIZED = [(12, 4), (2000, 1), (10**6, 2)]


@pytest.mark.parametrize("n,d", OVERSIZED)
def test_oversized_member_is_refused_before_any_allocation(n, d):
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MEMBER_MAX_ENTRIES"):
            FoliationParams(n, d)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [FoliationParams, jouanolou_field, closed_form_coords,
                                   closed_form_sing, group_elements], ids=lambda f: f.__name__)
def test_every_n_sized_build_checks_the_limit(monkeypatch, build):
    # a small member over a lowered limit: a build that skipped the check
    # would only make small arrays
    monkeypatch.setattr(jouanolou, "MEMBER_MAX_ENTRIES", 6 * 6 * counts(6, 5).N - 1)
    jouanolou._member_order.cache_clear()
    try:
        with pytest.raises(InputError, match="MEMBER_MAX_ENTRIES"):
            build(6, 5)
    finally:
        jouanolou._member_order.cache_clear()


def test_member_limit_boundary_and_counts_at_any_size():
    # n = 2: N = 1 + d + d^2, and 4 N <= MEMBER_MAX_ENTRIES up to d = 1023
    assert 4 * counts(2, 1023).N <= MEMBER_MAX_ENTRIES < 4 * counts(2, 1024).N
    assert FoliationParams(2, 1023).d == 1023
    with pytest.raises(InputError, match="MEMBER_MAX_ENTRIES"):
        FoliationParams(2, 1024)
    assert counts(12, 4).N == 22369621
    assert counts(2000, 1).N == 2001
    # the ladder and every size the suite tracks stay accepted
    for n, d in DESK + [(5, 2), (5, 3), (7, 2), (9, 2)]:
        assert FoliationParams(n, d).n == n
