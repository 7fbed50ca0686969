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
    _eval_tab: tuple | None = field(default=None, repr=False, compare=False)
    _jac_tab: tuple | None = field(default=None, repr=False, compare=False)

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
            for exps, coeff in comp.items():
                exps = tuple(int(e) for e in exps)
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

    # Stacked monomial tables.  One power/prod pass per evaluation instead
    # of a dict walk; the index arrays scatter values back per component.
    def _eval_tables(self):
        if self._eval_tab is None:
            exps, coeffs, comp_idx = [], [], []
            for i, comp in enumerate(self.components):
                for e, c in sorted(comp.items()):
                    exps.append(e)
                    coeffs.append(c)
                    comp_idx.append(i)
            self._eval_tab = (
                np.array(exps, dtype=np.int64).reshape(len(exps), self.n),
                np.array(coeffs, dtype=complex),
                np.array(comp_idx, dtype=np.intp),
            )
        return self._eval_tab

    def _jac_tables(self):
        if self._jac_tab is None:
            exps, coeffs, flat_idx = [], [], []
            for i, comp in enumerate(self.components):
                for e, c in sorted(comp.items()):
                    for j, ej in enumerate(e):
                        if ej == 0:
                            continue
                        de = list(e)
                        de[j] -= 1
                        exps.append(tuple(de))
                        coeffs.append(c * ej)
                        flat_idx.append(i * self.n + j)
            self._jac_tab = (
                np.array(exps, dtype=np.int64).reshape(len(exps), self.n),
                np.array(coeffs, dtype=complex),
                np.array(flat_idx, dtype=np.intp),
            )
        return self._jac_tab


def _check_points(field_: PolyVectorField, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != field_.n:
        raise InputError(
            f"point has shape {x.shape}, expected ({field_.n},) or (R, {field_.n})"
        )
    return x


def eval_field(field_: PolyVectorField, x) -> np.ndarray:
    """Value of the field at x: shape (n,) for one point, (R, n) for a stack."""
    x = _check_points(field_, x)
    exps, coeffs, comp_idx = field_._eval_tables()
    out = np.zeros(x.shape, dtype=complex)
    if len(coeffs):
        vals = coeffs * np.prod(x[..., None, :] ** exps, axis=-1)
        np.add.at(out, (..., comp_idx), vals)
    return out


def jacobian(field_: PolyVectorField, x) -> np.ndarray:
    """Matrix of formal partial derivatives dF_i/dx_j evaluated at x.

    The entries are complex derivatives of the polynomial components,
    obtained by differentiating the coefficient table, not by finite
    differences.  Shape (n, n) for one point, (R, n, n) for a stack.
    """
    x = _check_points(field_, x)
    exps, coeffs, flat_idx = field_._jac_tables()
    out = np.zeros(x.shape[:-1] + (field_.n * field_.n,), dtype=complex)
    if len(coeffs):
        vals = coeffs * np.prod(x[..., None, :] ** exps, axis=-1)
        np.add.at(out, (..., flat_idx), vals)
    return out.reshape(x.shape[:-1] + (field_.n, field_.n))


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
