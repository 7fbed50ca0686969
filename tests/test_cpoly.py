"""Sparse polynomial vector fields: evaluation, Jacobians, diagonal maps."""

import numpy as np
import pytest

from foliationlab import (
    InputError,
    PolyVectorField,
    diagonal_pushforward,
    eval_field,
    field_distance,
    jacobian,
    linear_diagonal_field,
    scale_field,
)


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
