"""Complex polynomial vector fields on affine n-space.

A field is stored as one coefficient table per component: a dict mapping
an exponent tuple (one non-negative integer per variable) to a complex
coefficient.  Missing keys are zero coefficients, and exact zeros are
pruned on construction, so two fields are equal iff their tables are.

Example (n = 2): the field (x2^2 - x1^3) d/dx1 + (1 - x2 x1^2) d/dx2 is

    component 0: {(0, 2): 1, (3, 0): -1}
    component 1: {(0, 0): 1, (2, 1): -1}

Differentiation is formal (exact on the table); evaluation compiles the
table once into stacked numpy exponent/coefficient arrays because the
tracking loops evaluate the same field at many points.  Evaluation and the
Jacobian take one point of shape (n,) or a stack of points of shape (R, n);
each row of a stack goes through exactly the arithmetic of a one-point
call, so row r of the result is bitwise the one-point result at row r.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

Exponent = tuple[int, ...]


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

    # Stacked monomial tables: one power/prod pass per evaluation instead of
    # a dict walk, with output slots to scatter the values back.  The terms
    # are listed by component in sorted order and each term's partials by
    # variable; this fixed order keeps the scatter bitwise.
    def _compiled(self, order: int = 1):
        """Tables of the values, the Jacobian and, once an order-2 call asks
        for it, the second partials, each (exponents, coefficients, slots)."""
        if self._tables is None or len(self._tables) <= order:
            n = self.n
            levels = [[(i, e, c) for i, comp in enumerate(self.components)
                       for e, c in sorted(comp.items())]]
            # each level holds the formal partials of the one before: row (s, e, c)
            # gives (s n + j, e - e_j, c e_j) for each variable j with e_j > 0
            while len(levels) <= max(order, 1):
                levels.append([(s * n + j, e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j])
                               for s, e, c in levels[-1] for j in range(n) if e[j] > 0])
            self._tables = tuple(
                (np.array([e for _, e, _ in rows], dtype=np.int64).reshape(len(rows), n),
                 np.array([c for _, _, c in rows], dtype=complex),
                 np.array([s for s, _, _ in rows], dtype=np.intp))
                for rows in levels
            )
        return self._tables


def _evaluate(field_: PolyVectorField, x, which: int, width: int, const=None) -> np.ndarray:
    """Sum table `which` of the field at x into `width` output slots per point.

    With `const` (one row of `width` values per point), each point's row
    enters its sum before the terms: the field plus that constant.  That is
    where a member's zero-exponent term sits in its sorted table, so the
    base field plus alpha is bitwise the member's own field.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != field_.n:
        raise InputError(
            f"point has shape {x.shape}, expected ({field_.n},) or (R, {field_.n})"
        )
    exps, coeffs, slots = field_._compiled(which)[which]
    out = np.zeros(x.shape[:-1] + (width,), dtype=complex)
    if const is not None:
        out += const
    if len(coeffs):
        vals = coeffs * np.prod(x[..., None, :] ** exps, axis=-1)
        np.add.at(out, (..., slots), vals)
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
