"""Complex polynomial vector fields on affine n-space.

A field is stored as one coefficient table per component: a dict mapping
an exponent tuple (one non-negative integer per variable) to a complex
coefficient.  Missing keys are zero coefficients, and exact zeros are
pruned on construction, so two fields are equal iff their tables are.

Example (n = 2): the field (x2^2 - x1^3) d/dx1 + (1 - x2 x1^2) d/dx2 is

    component 0: {(0, 2): 1, (3, 0): -1}
    component 1: {(0, 0): 1, (2, 1): -1}

Differentiation is formal (exact on the table).  Evaluation compiles the
terms, their partials and their second partials into one schedule each,
shared by every field with the same exponents, because the tracking loops
evaluate the same field, and fields differing only in their constants, at
many points.  Per point, each distinct power x_j^e is formed once by binary
powering from the least significant bit (Knuth, TAOCP vol. 2, 4.6.3), each
term is the product of its nonzero factors times its coefficient, and each
output slot sums its terms in table order.  Evaluation and the Jacobian take
one point of shape (n,) or a stack of points of shape (R, n); each row of a
stack goes through exactly the arithmetic of a one-point call, so row r of
the result is bitwise the one-point result at row r.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import InputError

Exponent = tuple[int, ...]

# Points evaluated at a time, so that a stack's power table and terms take
# a few MiB however many points it holds.
EVAL_BLOCK = 2048


@dataclass
class PolyVectorField:
    """n polynomial components, each a map from exponent tuple to coefficient.

    Treat instances as immutable values: evaluation tables are compiled
    lazily and would go stale if a component dict were mutated in place.
    """

    n: int
    components: tuple[dict[Exponent, complex], ...]
    _tables: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InputError(f"dimension must be an integer >= 2, got {self.n!r}")
        if len(self.components) != self.n:
            raise InputError(
                f"expected {self.n} components, got {len(self.components)}"
            )
        clean = []
        for comp in self.components:
            table: dict[Exponent, complex] = {}
            for key, coeff in comp.items():
                try:  # int() would truncate 2.5 and take '2'; operator.index refuses them
                    exps = tuple(map(operator.index, key))
                except TypeError:
                    exps = None
                if exps is None or bool in map(type, key):
                    raise InputError(f"exponents must be integers, got {key!r}")
                if len(exps) != self.n:
                    raise InputError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {self.n}"
                    )
                if any(e < 0 for e in exps):
                    raise InputError(f"negative exponent in {exps}")
                coeff = complex(coeff)
                if coeff != 0:
                    table[exps] = table.get(exps, 0) + coeff
            clean.append({e: c for e, c in table.items() if c != 0})
        self.components = tuple(clean)

    def _compiled(self, order: int = 1):
        """Per table (values, Jacobian and, once an order-2 call asks for it,
        the second partials): its shared ``_Schedule`` and the coefficient of
        each term on the schedule's grid, 0 where the grid is padded."""
        if self._tables is None or len(self._tables) <= order:
            keys = tuple(tuple(sorted(comp)) for comp in self.components)
            coeffs = [comp[e] for comp, ks in zip(self.components, keys) for e in ks]
            tables = []
            for level in range(max(order, 1) + 1):
                sched = _schedule(self.n, keys, level)
                if level:  # a row is a partial of a row before: its coefficient times an exponent
                    coeffs = [coeffs[r] * m for r, m in sched.derive]
                padded = coeffs + [0j]
                grid = np.array([padded[r] for r in sched.grid], dtype=complex)
                tables.append((sched, grid))
            self._tables = tuple(tables)
        return self._tables


class _Schedule(NamedTuple):
    """How one table is evaluated; every field with the same exponents shares it.

    The power table has one row per power and one column per point: ones,
    x_1..x_n, then each power x_j^e that binary powering forms on the way,
    once.  `steps` forms them level by level, rows lo:hi being the products
    of rows `left` and `right`.  `slots` lists the output slots that have
    terms (the others are 0).  The terms sit on a grid of `rounds` blocks of
    those slots, block k holding the k-th term of each slot in table order,
    or a zero term where a slot has fewer.  `factors` gives, per factor, the
    row of each grid term's nonzero factor, padded by the ones row, and
    `grid` each grid term's table row (-1 where padded).  `derive` gives
    each table row's parent row and multiplier in the table before: the term
    it is a partial of, and that term's exponent.
    """

    size: int
    steps: tuple[tuple[slice | np.ndarray, slice | np.ndarray, int, int], ...]
    factors: tuple[np.ndarray, ...]
    slots: np.ndarray
    rounds: int
    grid: tuple[int, ...]
    derive: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _schedule(n: int, keys: tuple[tuple[Exponent, ...], ...], level: int) -> _Schedule:
    """The schedule of table `level` of a field whose component i has the
    sorted exponents keys[i].  The rows of table 0 are the terms by component
    in sorted order; each later table lists the formal partials of the rows
    of the one before, by variable, slot s becoming slot s n + j."""
    rows = [(i, e, -1, 0) for i, ks in enumerate(keys) for e in ks]
    for _ in range(level):
        rows = [(s * n + j, e[:j] + (e[j] - 1,) + e[j + 1:], r, e[j])
                for r, (s, e, _, _) in enumerate(rows) for j in range(n) if e[j]]
    # binary powering from the least significant bit, each power formed once:
    # x^e is x^(e - t) x^t for t the highest power of 2 in e, and x^2t is x^t x^t
    parts: dict[tuple[int, int], tuple] = {}
    depth = {(j, 1): 0 for j in range(n)}

    def form(p: tuple[int, int]) -> int:
        if p not in depth:
            j, e = p
            t = 1 << (e.bit_length() - 1)
            parts[p] = ((j, t // 2), (j, t // 2)) if e == t else ((j, e - t), (j, t))
            depth[p] = 1 + max(map(form, parts[p]))
        return depth[p]

    factors = [[(j, ej) for j, ej in enumerate(e) if ej] for _, e, _, _ in rows]
    for f in factors:
        for p in f:
            form(p)
    where = {(j, 1): 1 + j for j in range(n)}  # row of each power in the power table
    steps = []
    for k in range(1, 1 + max(depth.values())):
        formed = sorted(p for p in parts if depth[p] == k)
        lo = 1 + len(where)
        where.update((p, lo + c) for c, p in enumerate(formed))
        steps.append((*(_row_index([where[parts[p][side]] for p in formed]) for side in (0, 1)),
                      lo, lo + len(formed)))
    slot_rows: dict[int, list[int]] = {}
    for r, (s, _, _, _) in enumerate(rows):
        slot_rows.setdefault(s, []).append(r)
    slots = sorted(slot_rows)
    rounds = max(map(len, slot_rows.values()), default=0)
    grid = tuple(slot_rows[s][k] if k < len(slot_rows[s]) else -1
                 for k in range(rounds) for s in slots)
    k_max = max([1, *map(len, factors)])
    padded = np.array([[where[p] for p in factors[r]] + [0] * (k_max - len(factors[r]))
                       if r >= 0 else [0] * k_max for r in grid], dtype=np.intp)
    return _Schedule(
        size=1 + len(where),
        steps=tuple(steps),
        factors=tuple(padded.reshape(len(grid), k_max).T),
        slots=np.array(slots, dtype=np.intp),
        rounds=rounds,
        grid=grid,
        derive=tuple((r, m) for _, _, r, m in rows),
    )


def _row_index(index: list[int]):
    """Rows of the power table as a slice when they run consecutively (a
    view, not a copy), else as an index array."""
    if index == list(range(index[0], index[0] + len(index))):
        return slice(index[0], index[0] + len(index))
    return np.array(index, dtype=np.intp)


def _evaluate(field_: PolyVectorField, x, which: int, width: int, const=None) -> np.ndarray:
    """Sum table `which` of the field at x into `width` output slots per point,
    EVAL_BLOCK points at a time.

    With `const` (an array of one row of `width` values per point), each
    point's row enters its sum before the terms: the field plus that
    constant.  That is where a member's zero-exponent term sits in its
    sorted table, so the base field plus alpha is bitwise the member's own
    field.  Every product keeps its operands' order (complex a * b is not
    bitwise b * a) by writing into its left operand or a slice of the power
    table.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != field_.n:
        raise InputError(
            f"point has shape {x.shape}, expected ({field_.n},) or (R, {field_.n})"
        )
    if x.ndim == 2 and len(x) > EVAL_BLOCK:
        out = np.empty((len(x), width), dtype=complex)
        for lo in range(0, len(x), EVAL_BLOCK):
            block = slice(lo, lo + EVAL_BLOCK)
            out[block] = _evaluate(field_, x[block], which, width, None if const is None else const[block])
        return out
    sched, coeffs = field_._compiled(which)[which]
    w = np.empty((sched.size,) + x.shape[:-1], dtype=complex)
    w[0] = 1
    w[1:field_.n + 1] = x.T
    for left, right, lo, hi in sched.steps:
        np.multiply(w[left], w[right], out=w[lo:hi])
    # a take along axis 0 costs a third of a 2-D fancy index, a 1-D one half a take
    take_rows = w.__getitem__ if x.ndim == 1 else partial(w.take, axis=0)
    terms = take_rows(sched.factors[0])
    for f in sched.factors[1:]:
        terms *= take_rows(f)
    terms *= coeffs if x.ndim == 1 else coeffs[:, None]
    a = len(sched.slots)
    acc = terms[:a]
    if const is not None:  # the constant enters each sum first
        acc = const.T.take(sched.slots, axis=0) + acc
    for k in range(1, sched.rounds):
        acc += terms[k * a:(k + 1) * a]
    if a == width:
        return acc.T.copy()
    out = np.zeros(x.shape[:-1] + (width,), dtype=complex) if const is None else const.copy()
    out.T[sched.slots] = acc
    return out


def eval_field(field_: PolyVectorField, x) -> np.ndarray:
    """Value of the field at x: shape (n,) for one point, (R, n) for a stack."""
    return _evaluate(field_, x, 0, field_.n)


def jacobian(field_: PolyVectorField, x) -> np.ndarray:
    """Matrix of formal partial derivatives dF_i/dx_j evaluated at x.

    The entries are complex derivatives of the polynomial components,
    obtained by differentiating the coefficient table, not by finite
    differences.  Shape (n, n) for one point, (R, n, n) for a stack.
    """
    out = _evaluate(field_, x, 1, field_.n * field_.n)
    return out.reshape(out.shape[:-1] + (field_.n, field_.n))


def diagonal_pushforward(field_: PolyVectorField, scale) -> PolyVectorField:
    """Pushforward of the field under x -> (scale_1 x_1, ..., scale_n x_n).

    Monomial c x^e in component i maps to c * scale_i * prod(scale_k^-e_k)
    at the same exponent, so only the coefficient table changes.
    """
    scale = np.asarray(scale, dtype=complex)
    if scale.shape != (field_.n,):
        raise InputError(f"scale has shape {scale.shape}, expected ({field_.n},)")
    if np.any(scale == 0):
        raise InputError("scale entries must be nonzero")
    comps = []
    for i, comp in enumerate(field_.components):
        table = {}
        for e, c in comp.items():
            factor = scale[i]
            for k, ek in enumerate(e):
                if ek:
                    factor = factor * scale[k] ** (-ek)
            table[e] = c * factor
        comps.append(table)
    return PolyVectorField(field_.n, tuple(comps))


def scale_field(field_: PolyVectorField, c) -> PolyVectorField:
    """The field with every coefficient multiplied by the scalar c."""
    c = complex(c)
    return PolyVectorField(
        field_.n,
        tuple({e: c * v for e, v in comp.items()} for comp in field_.components),
    )


def field_distance(f: PolyVectorField, g: PolyVectorField) -> float:
    """Largest coefficientwise absolute difference across all components."""
    if f.n != g.n:
        raise InputError(f"dimension mismatch: {f.n} vs {g.n}")
    worst = 0.0
    for cf, cg in zip(f.components, g.components):
        for e in cf.keys() | cg.keys():
            worst = max(worst, abs(cf.get(e, 0) - cg.get(e, 0)))
    return worst


def linear_diagonal_field(lams) -> PolyVectorField:
    """The linear field sum_j lam_j x_j d/dx_j (handy in spectral tests)."""
    lams = [complex(v) for v in lams]
    n = len(lams)
    comps = []
    for i, lam in enumerate(lams):
        e = [0] * n
        e[i] = 1
        comps.append({tuple(e): lam})
    return PolyVectorField(n, tuple(comps))
