"""The degree-d family on affine n-space and its exact combinatorics.

The base field has components x_{i+1}^d - x_i x_1^d for i < n and
1 - x_n x_1^d for the last one; a family member adds a constant alpha_i
to component i.  Every zero of the base field has coordinates that are
powers of a primitive root of unity of order N = 1 + d + ... + d^n, so
the closed forms below do all exponent arithmetic in exact integers
reduced mod N and only then take a complex exponential.  Powers of a
given root are read from one cached table per order, which keeps equal
exponents bitwise equal across call sites.

A cyclic group of order N acts on coordinates by these same root-of-unity
scalings and permutes the zeros in a single N-cycle; pushing the family
forward along a group element lands back in the family up to a scalar,
and ``pushforward_factor`` recovers that scalar and the new parameter
directly from the coefficient table.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite

import numpy as np

from .cpoly import PolyVectorField, diagonal_pushforward, eval_field, field_distance, scale_field
from .errors import FactorizationError, InputError

# Residual bound for matching a pushed-forward field to the family shape.
FACTOR_TOL = 1e-12
# Largest N n^2 (the entries of a member's N Jacobians) of a member.  Tracking
# all N zeros of (2, 1023), at the limit, peaked at 743 MiB under tracemalloc,
# about 180 N n^2 bytes, nearly all of it the Newton batch.
MEMBER_MAX_ENTRIES = 1 << 22


@lru_cache(maxsize=8)
def unit_roots(order: int) -> np.ndarray:
    """Table of e^(2 pi i k / order) for k = 0..order-1, for an integer order >= 1.

    The table is cached per order and shared by every caller, so it is not
    writeable.
    """
    _check_int("order", order)
    if order < 1:
        raise InputError(f"order must be at least 1, got {order}")
    table = np.exp(2j * np.pi * np.arange(order) / order)
    table.setflags(write=False)
    return table


def unit_root(k: int, order: int) -> complex:
    """e^(2 pi i k / order) from the table of ``unit_roots``; k is any integer."""
    table = unit_roots(order)
    _check_int("k", k)
    return complex(table[k % order])


def _geom(d: int, s: int) -> int:
    """d + d^2 + ... + d^s as an exact integer (0 when s = 0)."""
    return sum(d**t for t in range(1, s + 1))


def _check_nd(n: int, d: int) -> None:
    """Refuse an (n, d) other than Python ints n >= 2, d >= 1: bool too, and numpy
    integers, since ``counts`` sums d**t as exact ints that an int64 would wrap."""
    if type(n) is not int or n < 2:
        raise InputError(f"ambient dimension must be an integer >= 2, got {n!r}")
    if type(d) is not int or d < 1:
        raise InputError(f"degree must be an integer >= 1, got {d!r}")


def _check_real(name: str, value):
    """value, after refusing one that is not a real number (numpy reals pass, bool
    does not) and an int beyond the float range, on which float() overflows."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise InputError(f"{name} must be finite")
    return value


def _check_complex(name: str, value) -> complex:
    """complex(value), after refusing a str or bytes, which complex() would parse,
    and a bool, which it would read as 1; what complex() refuses or overflows on
    raises InputError too."""
    if not isinstance(value, (str, bytes, bool, np.bool_)):
        try:
            return complex(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"{name} must be a number, got {value!r}")


def _check_sequence(name: str, values) -> tuple:
    """tuple(values), after refusing a value that cannot be iterated, such as a scalar."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {values!r}") from None


def _check_points(points: tuple) -> tuple[np.ndarray, list]:
    """The coords of a sequence of singular points as one complex (R, n) array
    and their labels m, after refusing an empty sequence, an entry without m
    and a coords sequence, coords of different lengths and coords that are
    not finite numbers."""
    if not points:
        raise InputError("no points given")
    try:
        rows = [p.coords for p in points]
        labels = [p.m for p in points]
        lengths = sorted({len(row) for row in rows})
    except (AttributeError, TypeError):
        raise InputError("points must be singular points, each with m and a coords sequence") from None
    if len(lengths) > 1:
        raise InputError(f"point coords must have one length, got {lengths[0]} and {lengths[-1]}")
    try:
        coords = np.array(rows)
        numeric = coords.ndim == 2 and coords.dtype.kind in "iufc" and np.isfinite(coords).all()
    except ValueError:  # ragged nested entries
        numeric = False
    if not numeric:
        raise InputError("point coords must be finite numbers")
    return coords.astype(complex, copy=False), labels


def _check_vector(name: str, values, n: int) -> tuple[complex, ...]:
    """values as a tuple of n finite complex numbers, each checked by ``_check_complex``."""
    vector = tuple(_check_complex(f"{name} entry", v) for v in _check_sequence(name, values))
    if len(vector) != n:
        raise InputError(f"{name} has {len(vector)} entries, expected {n}")
    if not all(map(cmath.isfinite, vector)):
        raise InputError(f"{name} entries must be finite")
    return vector


def _check_int(name: str, value) -> None:
    """Refuse a value that is not an integer (numpy integers pass, bool does not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Refuse a value that is not a finite positive real number."""
    if _check_real(name, value) <= 0:
        raise InputError(f"{name} must be positive")
    if not isfinite(value):  # nan and inf pass the sign test
        raise InputError(f"{name} must be finite")


@lru_cache(maxsize=None)
def _member_order(n: int, d: int) -> int:
    """N of the member at (n, d), for an (n, d) that passed ``_check_nd``.

    A member above MEMBER_MAX_ENTRIES raises InputError before anything
    N-sized is built; N >= n + 1 is tested first, so a large n is refused
    before its N is computed.
    """
    if (n + 1) * n * n <= MEMBER_MAX_ENTRIES:
        big_n = counts(n, d).N
        if big_n * n * n <= MEMBER_MAX_ENTRIES:
            return big_n
    raise InputError(f"member (n, d) = ({n}, {d}) is too large: N n^2 exceeds "
                     f"MEMBER_MAX_ENTRIES = {MEMBER_MAX_ENTRIES}")


@dataclass(frozen=True)
class Counts:
    """Exact counts attached to a parameter pair (n, d).

    N: zeros of a family member (all simple for small parameters).
    M: dimension of the space of degree-d foliations on projective n-space.
    K: aligned (d+1)-point subsets among the zeros of the base field;
       nonzero only for odd n and d >= 2, where (d+1) * K = N.
    """

    N: int
    M: int
    K: int


@dataclass(frozen=True)
class FoliationParams:
    """A family member: ambient dimension n, degree d, constant perturbation alpha.

    Construction checks (n, d), MEMBER_MAX_ENTRIES and alpha (n finite entries, or none for 0).
    """

    n: int
    d: int
    alpha: tuple[complex, ...] = ()

    def __post_init__(self):
        _check_nd(self.n, self.d)
        _member_order(self.n, self.d)
        alpha = _check_sequence("alpha", self.alpha) or (0j,) * self.n
        object.__setattr__(self, "alpha", _check_vector("alpha", alpha, self.n))


@dataclass
class SingularPoint:
    """A zero of a family member.

    m is the index of the unperturbed zero it continues (1..N, with m = N
    the all-ones point); residual is the sup-norm of the field there.
    """

    m: int
    coords: tuple[complex, ...]
    residual: float
    converged: bool
    newton_iters: int
    note: str = ""


def _points(ms, x, res, iters, notes) -> list[SingularPoint]:
    """The rows of x (R, n), res, iters and notes as SingularPoints labelled ms;
    a row whose note is "" converged."""
    return [SingularPoint(m, tuple(row), r, not note, k, note) for m, row, r, k, note
            in zip(ms, x.tolist(), res.tolist(), iters.tolist(), notes.tolist())]


@dataclass(frozen=True)
class GroupElement:
    """Power k of the symmetry generator, acting by x_i -> xi^weights_i x_i.

    weights are exponents of the order-N root xi, already reduced mod N;
    k = 0 is the identity (all weights zero).
    """

    k: int
    weights: tuple[int, ...]
    order: int


def counts(n: int, d: int) -> Counts:
    """Exact integer invariants N, M, K for the pair (n, d), in closed form.

    The counts must print as decimal integers: a pair whose N or M has more
    than ``sys.get_int_max_str_digits()`` digits raises InputError, before
    any power is taken when d^n alone has more.
    """
    _check_nd(n, d)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or before 3.10.7: none
    # d^n >= 2^(n (bits(d) - 1)) >= 16^limit > 10^limit
    if not limit or n * (d.bit_length() - 1) < 4 * limit:
        top = d ** (n + 1)
        big_n = n + 1 if d == 1 else (top - 1) // (d - 1)
        big_m = n * comb(n + d, d) + comb(n + d - 1, d) - 1
        big = max(big_n, big_m)
        # below 8^limit a count prints; else it prints iff it is below 10^limit
        if not limit or big.bit_length() <= 3 * limit or big < 10**limit:
            # K = d^0 + d^2 + ... + d^(n-1)
            big_k = (top - 1) // (d * d - 1) if n % 2 == 1 and d >= 2 else 0
            return Counts(N=big_n, M=big_m, K=big_k)
    raise InputError(f"N or M would have more than {limit} digits (sys.get_int_max_str_digits())")


def jouanolou_field(n: int, d: int) -> PolyVectorField:
    """The unperturbed degree-d field on affine n-space."""
    return family_field(FoliationParams(n, d))


def family_field(params: FoliationParams) -> PolyVectorField:
    """The field of the family member: base field plus the constant alpha,
    written in one pass (a constant that comes out zero is pruned)."""
    n, d = params.n, params.d
    zero = (0,) * n
    comps = []
    for i, a in enumerate(params.alpha):
        drag = tuple(d * (k == 0) + (k == i) for k in range(n))
        if i < n - 1:
            lead = tuple(d * (k == i + 1) for k in range(n))
            comps.append({lead: 1.0 + 0j, drag: -1.0 + 0j, zero: 0 + a})
        else:
            comps.append({zero: (1.0 + 0j) + a, drag: -1.0 + 0j})
    return PolyVectorField(n, tuple(comps))


@lru_cache(maxsize=8)
def closed_form_coords(n: int, d: int) -> np.ndarray:
    """The N zeros of the base field as one read-only (N, n) array; row m-1 is zero m.

    The m-th point has first coordinate xi^m and i-th coordinate
    xi^(-m (d + d^2 + ... + d^(n+1-i))) for i >= 2, xi = e^(2 pi i / N).
    Exponents are exact integers reduced mod N; m = N gives (1, ..., 1).
    The array is cached per (n, d) and shared by every caller, so it is
    not writeable.  Members above MEMBER_MAX_ENTRIES raise InputError.
    """
    _check_nd(n, d)
    big_n = _member_order(n, d)
    exps = np.array(generator_weights(n, d), dtype=np.int64)
    m = np.arange(1, big_n + 1, dtype=np.int64)
    coords = unit_roots(big_n)[np.outer(m, exps) % big_n]
    coords.setflags(write=False)
    return coords


def closed_form_sing(n: int, d: int) -> list[SingularPoint]:
    """All N zeros of the base field, from the exact root-of-unity formulas
    (see ``closed_form_coords``), with their residuals."""
    coords = closed_form_coords(n, d)
    residual = np.max(np.abs(eval_field(jouanolou_field(n, d), coords)), axis=1)
    big_n = len(coords)
    return _points(range(1, big_n + 1), coords, residual, np.zeros(big_n, int), np.full(big_n, ""))


def generator_weights(n: int, d: int) -> tuple[int, ...]:
    """Root-of-unity exponents of the symmetry generator, reduced mod N.

    They coincide with the exponent pattern of the m = 1 zero, which is
    why the generator shifts the zeros by one index.
    """
    big_n = counts(n, d).N
    weights = [1] + [(-_geom(d, n + 1 - i)) % big_n for i in range(2, n + 1)]
    return tuple(w % big_n for w in weights)


def _power(gen: tuple[int, ...], k: int, big_n: int) -> GroupElement:
    k %= big_n
    return GroupElement(k=k, weights=tuple((k * w) % big_n for w in gen), order=big_n)


def group_element(n: int, d: int, k: int) -> GroupElement:
    """Power k mod N of the generator (k = -1 is its inverse), built alone; a
    non-integer k (or bool) and members above MEMBER_MAX_ENTRIES raise InputError."""
    _check_nd(n, d)
    _check_int("generator power k", k)
    big_n = _member_order(n, d)  # before generator_weights sums N
    return _power(generator_weights(n, d), k, big_n)


def group_elements(n: int, d: int) -> list[GroupElement]:
    """All N powers of the generator, k = 0 (identity) through N - 1;
    members above MEMBER_MAX_ENTRIES raise InputError."""
    _check_nd(n, d)
    big_n = _member_order(n, d)
    gen = generator_weights(n, d)
    return [_power(gen, k, big_n) for k in range(big_n)]


def group_action(g: GroupElement, x) -> np.ndarray:
    """Apply the diagonal root-of-unity scaling of g to a point."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (len(g.weights),):
        raise InputError(f"point has shape {x.shape}, expected ({len(g.weights)},)")
    scale = np.array([unit_root(w, g.order) for w in g.weights])
    return scale * x


def pushforward_factor(
    g: GroupElement, params: FoliationParams
) -> tuple[complex, tuple[complex, ...], float]:
    """Factor the pushforward of a family member along g as c * (member at alpha~).

    The factorization is read off the coefficient table of the pushed
    field: c is minus the coefficient of the x_n x_1^d monomial in the
    last component, and alpha~ comes from the constant terms.  Returns
    (c, alpha~, residual) where residual is the coefficientwise distance
    between the pushed field and c times the alpha~ member; anything
    above FACTOR_TOL raises, since group pushforwards must stay in the
    family.
    """
    n, d = params.n, params.d
    if len(g.weights) != n:
        raise InputError(f"group element has {len(g.weights)} weights, expected {n}")
    scale = [unit_root(w, g.order) for w in g.weights]
    pushed = diagonal_pushforward(family_field(params), scale)

    marker = [0] * n
    marker[n - 1] += 1
    marker[0] += d
    c = -pushed.components[n - 1].get(tuple(marker), 0j)
    if c == 0:
        raise FactorizationError("pushed field lost its top-degree marker monomial")
    zero = (0,) * n
    alpha_t = [pushed.components[i].get(zero, 0j) / c for i in range(n - 1)]
    alpha_t.append(pushed.components[n - 1].get(zero, 0j) / c - 1)
    alpha_t = tuple(alpha_t)

    model = scale_field(family_field(FoliationParams(n, d, alpha_t)), c)
    residual = field_distance(pushed, model)
    if residual >= FACTOR_TOL:
        raise FactorizationError(
            f"pushforward does not match the family shape: residual {residual:.3e}"
        )
    return c, alpha_t, residual
