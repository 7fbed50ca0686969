"""Characteristic polynomials, eigenvalues, and resonance scans at a zero.

The characteristic polynomial of the linearization is computed two ways:
``char_poly_direct`` runs the trace recursion of Faddeev and LeVerrier on
the exact Jacobian (no eigendecomposition), and ``char_poly_closed``
evaluates the closed coefficient formulas that hold at zeros of a family
member, cross-checking its two displayed forms against each other.

Eigenvalues are the companion-matrix roots of the monic coefficient
vector (``np.roots``), behind a relative-residual gate.  Classification and
the truncated small-divisor scan below are the numerical stand-ins for
hyperbolicity and non-resonance; the scan certifies nothing beyond its
truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cpoly import PolyVectorField, jacobian
from .errors import ConvergenceError, InputError, VerificationError
from .jouanolou import SingularPoint
from .solver import RunConfig

DEGENERATE = "degenerate"
NONDEGENERATE_ONLY = "nondegenerate_only"
HYPERBOLIC = "hyperbolic"
INCONCLUSIVE = "inconclusive"

# A divisor below this is treated as an exact resonance at the scanned order.
RESONANCE_TOL = 1e-10
# Agreement required between the two closed coefficient routes.
CLOSED_FORM_TOL = 1e-10


@dataclass(frozen=True)
class DivisorRecord:
    """Worst truncated small divisor over 2 <= |m| <= max_order.

    c_min is min over eigenvalue index j and integer vectors m of
    |lam_j - <m, lam>| * |m|^delta; worst_j is 1-based.  The record is a
    certificate only up to the stated truncation order.
    """

    delta: float
    max_order: int
    c_min: float
    worst_j: int
    worst_m: tuple[int, ...]
    resonant: bool


@dataclass
class SpectrumReport:
    """Spectral data of the linearization at one tracked zero."""

    m: int
    sigma: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    divisor: DivisorRecord


def char_poly_direct(field: PolyVectorField, p) -> np.ndarray:
    """Coefficients (sigma_1, ..., sigma_n) of det(lam I - J) at the point p.

    Faddeev-LeVerrier trace recursion: M_1 = J, c_k = -tr(M_k)/k,
    M_{k+1} = J (M_k + c_k I).  Exact in n matrix products, no root finding.
    """
    a = jacobian(field, p)
    n = a.shape[0]
    sigma = np.zeros(n, dtype=complex)
    m = a.copy()
    sigma[0] = -np.trace(m)
    eye = np.eye(n)
    for k in range(2, n + 1):
        m = a @ (m + sigma[k - 2] * eye)
        sigma[k - 1] = -np.trace(m) / k
    return sigma


def char_poly_closed(n: int, d: int, p) -> np.ndarray:
    """Closed coefficient formulas valid at a zero of a family member.

    Evaluates both displayed forms, the expanded product
    (lam + x1^d)^n + sum_j d^j (x1 ... x_{j-1})^(d-1) x_j^d (lam + x1^d)^(n-j)
    and the direct coefficient sums, and insists they agree to
    CLOSED_FORM_TOL before returning.  The formulas only use the point's
    coordinates, so feeding a non-zero of the member gives garbage.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (n,):
        raise InputError(f"point has shape {p.shape}, expected ({n},)")
    x1d = p[0] ** d
    # t_j = d^j (x_1 ... x_{j-1})^(d-1) x_j^d, empty product for j = 1
    t = []
    for j in range(1, n + 1):
        prod = np.prod(p[: j - 1]) if j > 1 else 1.0 + 0j
        t.append(d**j * prod ** (d - 1) * p[j - 1] ** d)

    coeffs = np.zeros(n + 1, dtype=complex)  # descending powers of lam

    def add_shifted_power(k: int, mult: complex) -> None:
        for l in range(k + 1):
            coeffs[n - l] += mult * comb(k, l) * x1d ** (k - l)

    add_shifted_power(n, 1.0 + 0j)
    for j in range(1, n + 1):
        add_shifted_power(n - j, t[j - 1])
    sigma_expanded = coeffs[1:]

    sigma_sums = np.zeros(n, dtype=complex)
    for i in range(1, n + 1):
        value = comb(n, n - i) * x1d**i
        for j in range(1, i + 1):
            value += comb(n - j, n - i) * p[0] ** ((i - j) * d) * t[j - 1]
        sigma_sums[i - 1] = value

    gap = float(np.max(np.abs(sigma_expanded - sigma_sums)))
    if gap > CLOSED_FORM_TOL:
        raise VerificationError(
            f"closed coefficient routes disagree by {gap:.3e}",
            payload={"expanded": sigma_expanded, "sums": sigma_sums},
        )
    return sigma_expanded


def eigenvalues(sigma) -> np.ndarray:
    """All roots of lam^n + sigma_1 lam^(n-1) + ... + sigma_n.

    Companion-matrix eigenvalues (``np.roots``, backward stable); real
    coefficients go to the real solver, which returns exact conjugate pairs.
    Sorted by (real, imag).  Raises InputError on non-finite coefficients
    and ConvergenceError if the relative residual max |p(lam)| / (1 + max
    |sigma_i|) is above 1e-10.
    """
    sigma = np.asarray(sigma, dtype=complex).ravel()
    if sigma.size == 0:
        raise InputError("need at least one coefficient")
    if not np.isfinite(sigma).all():
        raise InputError(f"coefficients must be finite, got {sigma}")
    coeffs = np.concatenate(([1.0 + 0j], sigma))
    z = np.roots(coeffs if coeffs.imag.any() else coeffs.real).astype(complex)
    scale = 1.0 + float(np.max(np.abs(sigma)))
    worst = float(np.max(np.abs(np.polyval(coeffs, z)))) / scale
    if worst > 1e-10:
        raise ConvergenceError(f"root finding failed: relative residual {worst:.3e}")
    order = np.lexsort((z.imag, z.real))
    return z[order]


def min_separation(lams) -> float:
    """Smallest pairwise distance among the eigenvalues (proximity to a
    repeated root; callers may flag near-zero values)."""
    lams = np.asarray(lams, dtype=complex)
    if lams.shape[0] < 2:
        return float("inf")
    diff = np.abs(lams[:, None] - lams[None, :])
    diff[np.diag_indices(lams.shape[0])] = np.inf
    return float(diff.min())


def classify(lams, cfg: RunConfig) -> str:
    """Spectral type of an eigenvalue tuple.

    degenerate          some |lam_j| <= tol_nd
    hyperbolic          every pairwise ratio is non-real by more than tol_hyp
    inconclusive        some ratio sits inside (0, tol_hyp] of the real axis
    nondegenerate_only  some ratio is exactly real, none merely borderline

    Each ratio is evaluated with the larger-modulus eigenvalue in the
    denominator so its modulus stays at most one.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(np.abs(lams) <= cfg.tol_nd):
        return DEGENERATE
    exactly_real = False
    borderline = False
    n = lams.shape[0]
    for j in range(n):
        for l in range(j + 1, n):
            a, b = lams[j], lams[l]
            if abs(a) > abs(b):
                a, b = b, a
            im = abs((a / b).imag)
            if im > cfg.tol_hyp:
                continue
            if im == 0.0:
                exactly_real = True
            else:
                borderline = True
    if not exactly_real and not borderline:
        return HYPERBOLIC
    if borderline:
        return INCONCLUSIVE
    return NONDEGENERATE_ONLY


@lru_cache(maxsize=None)
def _multi_indices(n: int, max_order: int) -> np.ndarray:
    """All exponent vectors with 2 <= |m| <= max_order, lexicographic."""
    rows: list[tuple[int, ...]] = []

    def extend(prefix: list[int], budget: int) -> None:
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


def small_divisor_scan(lams, delta: float, max_order: int) -> DivisorRecord:
    """Truncated worst small divisor min |lam_j - <m, lam>| |m|^delta.

    Scans every integer vector with 2 <= |m| <= max_order against every
    eigenvalue.  For j < n and m_j >= 1, (j, m) ties exactly with
    (n, m - e_j + e_n), so only the first candidate of each tie class in
    (lexicographic m, ascending j) order is kept (j = n or m_j = 0), and
    the first minimum among those is the witness: rounding does not choose
    it, and it reproduces c_min.  Scan sizes above 1e8 are refused.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    n = lams.shape[0]
    if n < 1:
        raise InputError("need at least one eigenvalue")
    if max_order < 2:
        raise InputError("max_order must be at least 2")
    if delta <= 0:
        raise InputError("delta must be positive")
    total = n * (comb(max_order + n, n) - 1 - n)
    if total > 1e8:
        raise InputError(
            f"scan would visit {total} candidates (> 1e8); lower max_order"
        )
    m = _multi_indices(n, max_order)
    sums = m @ lams
    weights = m.sum(axis=1).astype(float) ** float(delta)
    table = np.abs(lams[None, :] - sums[:, None]) * weights[:, None]
    table[:, :-1][m[:, :-1] > 0] = np.inf
    flat = int(np.argmin(table))
    row, col = divmod(flat, n)
    c_min = float(table[row, col])
    return DivisorRecord(
        delta=float(delta),
        max_order=int(max_order),
        c_min=c_min,
        worst_j=col + 1,
        worst_m=tuple(int(e) for e in m[row]),
        resonant=c_min < RESONANCE_TOL,
    )


def spectrum_report(field: PolyVectorField, point: SingularPoint, cfg: RunConfig) -> SpectrumReport:
    """Full spectral workup (coefficients, roots, type, divisor scan) at a zero."""
    sigma = char_poly_direct(field, point.coords)
    lams = eigenvalues(sigma)
    return SpectrumReport(
        m=point.m,
        sigma=sigma,
        eigenvalues=lams,
        classification=classify(lams, cfg),
        divisor=small_divisor_scan(lams, cfg.delta, cfg.max_order),
    )


def linearizable_numerically(report: SpectrumReport) -> bool:
    """Truncated linearizability gate: hyperbolic and no scanned resonance.

    This is a finite check at the report's truncation order, not a proof."""
    return report.classification == HYPERBOLIC and not report.divisor.resonant
