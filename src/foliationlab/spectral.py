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
from itertools import combinations
from math import comb

import numpy as np

from .cpoly import PolyVectorField, jacobian
from .errors import ConvergenceError, InputError, VerificationError
from .jouanolou import SingularPoint, _check_int, _check_points, _check_positive, _check_sequence
from .solver import RunConfig

DEGENERATE = "degenerate"
NONDEGENERATE_ONLY = "nondegenerate_only"
HYPERBOLIC = "hyperbolic"
INCONCLUSIVE = "inconclusive"
# The class names by code, as the stacked kernel returns them.
_CLASSES = (HYPERBOLIC, NONDEGENERATE_ONLY, INCONCLUSIVE, DEGENERATE)

# A divisor below this is treated as an exact resonance at the scanned order.
RESONANCE_TOL = 1e-10
# A ratio's |Im| at or below this is rounding noise: the ratio is real.
REAL_FLOOR = 64 * np.finfo(float).eps
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
    p is one point (n,) or a stack (R, n); row r is bitwise the one-point call.
    """
    a = jacobian(field, p)
    n = a.shape[-1]
    sigma = np.zeros(a.shape[:-1], dtype=complex)
    m = a.copy()
    sigma[..., 0] = -np.trace(m, axis1=-2, axis2=-1)
    eye = np.eye(n)
    for k in range(2, n + 1):
        m = a @ (m + sigma[..., k - 2, None, None] * eye)
        sigma[..., k - 1] = -np.trace(m, axis1=-2, axis2=-1) / k
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

    sigma is one coefficient vector (n,) or a stack (R, n), one polynomial
    per row (not one long polynomial); row r is bitwise the one-row call.
    The roots are those of ``np.roots`` (companion-matrix eigenvalues,
    backward stable; trailing zero coefficients give exact zero roots),
    real coefficients go to the real solver, which returns exact conjugate
    pairs, and each row is sorted by (real, imag).  Raises InputError on
    other shapes or non-finite coefficients and ConvergenceError if a
    relative residual max |p(lam)| / (1 + max |sigma_i|) is above 1e-10.
    The gate bounds n: at d = 1 and alpha = (0.01, 0, ...) the member's
    roots pass it for n <= 28 and fail at n = 29 (1.590e-10), 30
    (1.291e-10) and 40 (2.782e-06).
    """
    lams, worst, failing = _roots(sigma)
    if failing.any():
        raise ConvergenceError(f"root finding failed: relative residual {worst[failing][0]:.3e}")
    return lams


def _roots(sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigenvalues`` without its gate: the sorted roots, shaped as sigma,
    each row's relative residual and the mask of the rows above 1e-10, the
    ones the gate refuses.  Raises InputError as ``eigenvalues`` does."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim not in (1, 2) or sigma.shape[-1] == 0:
        raise InputError(f"coefficients have shape {sigma.shape}, expected (n,) or (R, n)")
    if not np.isfinite(sigma).all():
        raise InputError(f"coefficients must be finite, got {sigma}")
    rows = sigma.reshape(-1, sigma.shape[-1])
    coeffs = np.concatenate((np.ones((len(rows), 1)), rows), axis=1)
    # np.roots drops trailing zero coefficients and appends their roots as exact zeros
    trailing = np.argmax(coeffs[:, ::-1] != 0, axis=1)
    cplx = coeffs.imag.any(axis=1)
    z = np.zeros(rows.shape, dtype=complex)
    groups = set(zip(trailing.tolist(), cplx.tolist()))
    for zeros, is_cplx in groups - {(rows.shape[1], False)}:  # all-zero rows keep zero roots
        # a slice when every row is in one group: a mask would double a one-row call's overhead
        pick = (trailing == zeros) & (cplx == is_cplx) if len(groups) > 1 else slice(None)
        size = rows.shape[1] - zeros
        p = (coeffs if is_cplx else coeffs.real)[pick, : size + 1]
        comp = np.zeros((len(p), size, size), dtype=p.dtype)
        comp[:, 1:, :-1] = np.eye(size - 1)
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        z[pick, :size] = np.linalg.eigvals(comp)
    value = np.ones_like(z)  # Horner's rule; its first step gives exactly 1
    for c in coeffs.T[1:, :, None]:
        value = value * z + c
    worst = np.max(np.abs(value), axis=1) / (1.0 + np.max(np.abs(rows), axis=1))
    # a stable sort of complex values orders by (real, imag) and keeps ties in place
    return np.sort(z, kind="stable").reshape(sigma.shape), worst, worst > 1e-10


def _one_spectrum(lams) -> np.ndarray:
    """lams as a complex (n,) array, n >= 1; a stack (R, n) raises InputError, not
    flattened, and so does an empty one."""
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 1:
        raise InputError(f"eigenvalues have shape {lams.shape}, expected (n,) for one zero")
    if not len(lams):
        raise InputError("need at least one eigenvalue")
    return lams


def min_separation(lams) -> float:
    """Smallest pairwise distance among one zero's (n,) eigenvalues (proximity
    to a repeated root; callers may flag near-zero values)."""
    lams = _one_spectrum(lams)
    diff = np.abs(lams[:, None] - lams[None, :])
    diff[np.diag_indices(lams.shape[0])] = np.inf
    return float(diff.min())  # inf for one eigenvalue


def classify(lams, cfg: RunConfig) -> str:
    """Spectral type of one zero's (n,) eigenvalues.

    degenerate          some |lam_j| <= tol_nd
    hyperbolic          every pairwise ratio is non-real by more than tol_hyp
    inconclusive        some ratio sits inside (REAL_FLOOR, tol_hyp] of the real axis
    nondegenerate_only  some ratio is real (|Im| <= REAL_FLOOR), none merely borderline

    Each ratio is evaluated with the larger-modulus eigenvalue in the
    denominator so its modulus stays at most one.
    """
    lams = _one_spectrum(lams)
    if np.any(np.abs(lams) <= cfg.tol_nd):
        return DEGENERATE
    near = []  # |Im| of the ratios within tol_hyp of the real axis
    for j, l in combinations(range(lams.shape[0]), 2):
        a, b = lams[j], lams[l]
        if abs(a) > abs(b):
            a, b = b, a
        im = abs((a / b).imag)
        if not im > cfg.tol_hyp:  # a nan ratio counts as near
            near.append(im)
    if not near:
        return HYPERBOLIC
    return INCONCLUSIVE if any(not im <= REAL_FLOOR for im in near) else NONDEGENERATE_ONLY


def _class_codes(lams: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """classify of every row of an (R, n) eigenvalue stack, as indices into
    _CLASSES, bitwise the scalar rule: pairs in ``combinations`` order, a
    swap only when the modulus (np.hypot, bitwise Python's abs of a complex)
    is strictly larger, and a nan |Im| counted as near and above REAL_FLOOR."""
    j, l = np.triu_indices(lams.shape[1], 1)
    a, b = lams[:, j], lams[:, l]
    swap = np.hypot(a.real, a.imag) > np.hypot(b.real, b.imag)
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows divide by 0
        im = np.abs((a / b).imag)
    near = ~(im > cfg.tol_hyp)
    codes = near.any(axis=1).astype(np.intp) + (near & ~(im <= REAL_FLOOR)).any(axis=1)
    codes[(np.abs(lams) <= cfg.tol_nd).any(axis=1)] = _CLASSES.index(DEGENERATE)
    return codes


# at most 8 pairs: more than the distinct n one run scans, and the tables of
# n = 15, max_order 8 alone hold 296 MB
@lru_cache(maxsize=8)
def _multi_indices(n: int, max_order: int) -> tuple[np.ndarray, ...]:
    """Read-only exponent vectors m with 2 <= |m| <= max_order (lexicographic)
    and, per kept (m, j) candidate of small_divisor_scan in row-major
    order, its row in that table, its 0-based j and |m|; last, the
    exponent table cast to complex once, for the scan's products."""
    m = np.zeros((1, 0), dtype=np.int64)
    for i in range(n):  # each prefix row spawns its next coordinates in ascending order
        total = m.sum(axis=1)
        low = np.maximum(2 - total, 0) if i == n - 1 else 0  # the last one enforces |m| >= 2
        count = max_order + 1 - total - low
        last = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - low, count)
        parent = np.repeat(np.arange(len(m)), count)
        m = np.column_stack((m[parent], last))
    row, col = np.nonzero(np.column_stack((m[:, :-1] == 0, np.ones(len(m), dtype=bool))))
    tables = (m, row, col, m.sum(axis=1).astype(float)[row], m.astype(complex))
    for table in tables:
        table.setflags(write=False)
    return tables


# Most table entries (scanned candidates) that one block of a stacked
# small-divisor scan holds at a time, about 64 MB of temporaries; rows are
# scanned in blocks, and a row larger than this is one block of its own.
SCAN_BLOCK = 1 << 20
# Most bytes a small-divisor scan may take, counted before its tables are built:
# 24 n |M_n| for the exponent table and its complex copy, 32 per kept candidate,
# 64 per block entry.
# tracemalloc peaks: 582 of 653 MB counted at n = 15, max_order 8 (n <= 16 admitted).
SCAN_MAX_BYTES = 1 << 30


def _divisor_scan(lams: np.ndarray, delta: float, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """small_divisor_scan of every row of an (R, n) eigenvalue stack, in
    blocks, as arrays: c_min and the witness's index k among the kept
    candidates of ``_multi_indices``; only those are evaluated, in
    row-major order, and k is the first minimum."""
    n = lams.shape[1]
    rows = comb(max_order + n, n) - 1 - n  # |M_n|, vectors m in n variables
    kept = rows + (n - 1) * (comb(max_order + n - 1, n - 1) - n)  # j = n, or m_j = 0
    need = 24 * n * rows + 32 * kept + 64 * max(kept, SCAN_BLOCK)
    if need > SCAN_MAX_BYTES:
        raise InputError(f"scan at n = {n}, max_order = {max_order} would take about "
                         f"{need:.3g} bytes (> SCAN_MAX_BYTES = {SCAN_MAX_BYTES}); lower max_order")
    _, row, col, abs_m, m = _multi_indices(n, max_order)
    weights = abs_m ** float(delta)
    c_min = np.empty(len(lams))
    k = np.empty(len(lams), dtype=np.intp)
    step = max(1, SCAN_BLOCK // len(row))
    for start in range(0, len(lams), step):
        block = lams[start : start + step]
        sums = np.matmul(m, block[..., None])[..., 0]
        table = np.abs(block[:, col] - sums[:, row]) * weights
        k[start : start + step] = best = np.argmin(table, axis=1)
        c_min[start : start + step] = table[np.arange(len(block)), best]
    return c_min, k


def _divisor_records(n: int, delta: float, max_order: int, c_min: np.ndarray,
                     k: np.ndarray) -> list[DivisorRecord]:
    """The DivisorRecord of each row of a ``_divisor_scan`` result."""
    m, row, col = _multi_indices(n, max_order)[:3]
    return [DivisorRecord(float(delta), int(max_order), c, int(col[j]) + 1,
                          tuple(m[row[j]].tolist()), c < RESONANCE_TOL)
            for c, j in zip(c_min.tolist(), k.tolist())]


def small_divisor_scan(lams, delta: float, max_order: int) -> DivisorRecord:
    """Truncated worst small divisor min |lam_j - <m, lam>| |m|^delta.

    Scans every integer vector with 2 <= |m| <= max_order against every
    eigenvalue.  For j < n and m_j >= 1, (j, m) ties exactly with
    (n, m - e_j + e_n), so only the first candidate of each tie class in
    (lexicographic m, ascending j) order is kept (j = n or m_j = 0), and
    the first minimum among those is the witness: rounding does not choose
    it, and it reproduces c_min.  lams is one zero's (n,) eigenvalues
    (``spectrum_reports`` scans a stack).  Other shapes, a non-integer
    max_order, a delta that is not a finite positive real number and scans
    above SCAN_MAX_BYTES raise InputError.
    """
    lams = _one_spectrum(lams)
    _check_int("max_order", max_order)
    if max_order < 2:
        raise InputError("max_order must be at least 2")
    _check_positive("delta", delta)
    return _divisor_records(len(lams), delta, max_order,
                            *_divisor_scan(lams[None], delta, max_order))[0]


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


def _spectra(field: PolyVectorField, coords: np.ndarray, cfg: RunConfig) -> tuple[np.ndarray, ...]:
    """The spectral workup of every row of an (R, n) stack of points, as
    arrays: sigma and lams (R, n), the class code (an index into _CLASSES),
    c_min and the divisor witness's candidate index k, each (R,)."""
    sigma = char_poly_direct(field, coords)
    lams = eigenvalues(sigma)
    return (sigma, lams, _class_codes(lams, cfg), *_divisor_scan(lams, cfg.delta, cfg.max_order))


def spectrum_reports(field: PolyVectorField, points: list[SingularPoint],
                     cfg: RunConfig) -> list[SpectrumReport]:
    """spectrum_report(field, p, cfg) for every p in points, bitwise: the
    coefficients, roots, class codes and divisor scans are computed as
    (N, n) stacks by one array kernel, and the reports built from them."""
    coords, labels = _check_points(_check_sequence("points", points))
    sigma, lams, codes, c_min, k = _spectra(field, coords, cfg)
    divisors = _divisor_records(lams.shape[1], cfg.delta, cfg.max_order, c_min, k)
    return [SpectrumReport(m, s, z, _CLASSES[c], rec)
            for m, s, z, c, rec in zip(labels, sigma, lams, codes.tolist(), divisors)]


def linearizable_numerically(report: SpectrumReport) -> bool:
    """Truncated linearizability gate: hyperbolic and no scanned resonance.

    This is a finite check at the report's truncation order, not a proof."""
    return report.classification == HYPERBOLIC and not report.divisor.resonant
