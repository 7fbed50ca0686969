"""Characteristic polynomials, eigenvalues, and resonance scans at a zero.

The characteristic polynomial of the linearization is computed two ways:
``char_poly_direct`` runs the trace recursion of Faddeev and LeVerrier on
the exact Jacobian (no eigendecomposition), and ``char_poly_closed``
expands the closed product that holds at zeros of a family member; each
is the other's independent check.

Eigenvalues are the companion-matrix roots of the monic coefficient
vector (``np.roots``), behind a relative-residual gate.  Classification and
the truncated small-divisor scan below are the numerical stand-ins for
hyperbolicity and non-resonance; the scan certifies nothing beyond its
truncation order.  The sampler's scan is anchored on the alpha = 0 orbit,
where zero m's spectrum is s_m spec J(1): it evaluates only the candidates
that a bound from the table of spec J(1) cannot rule out, bitwise the
dense scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .cpoly import PolyVectorField, jacobian
from .errors import ConvergenceError, InputError
from .jouanolou import (_NOT_NUMBERS, _NOT_POINTS, SingularPoint, _check_int, _check_points,
                        _check_positive, _check_sequence, closed_form_coords, counts,
                        jouanolou_field, unit_roots)
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


def _faddeev(a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Faddeev-LeVerrier trace recursion on the (n, n) matrix or stack a.

    M_1 = a, c_k = -tr(M_k)/k, B_k = M_k + c_k I, M_{k+1} = a B_k.  Returns
    the coefficients (c_1, ..., c_n) of det(lam I - a) and [B_1, ..., B_{n-1}],
    the adjugate coefficients: adj(lam I - a) = sum_k lam^(n-1-k) B_k, B_0 = I.
    """
    n = a.shape[-1]
    sigma = np.zeros(a.shape[:-1], dtype=complex)
    sigma[..., 0] = -np.trace(a, axis1=-2, axis2=-1)
    eye = np.eye(n)
    m, bs = a, []
    for k in range(2, n + 1):
        bs.append(m + sigma[..., k - 2, None, None] * eye)
        m = a @ bs[-1]
        sigma[..., k - 1] = -np.trace(m, axis1=-2, axis2=-1) / k
    return sigma, bs


def char_poly_direct(field: PolyVectorField, p) -> np.ndarray:
    """Coefficients (sigma_1, ..., sigma_n) of det(lam I - J) at the point p by
    ``_faddeev``, with no root finding; p is one point (n,) or a stack (R, n),
    and row r is bitwise the one-point call."""
    return _faddeev(jacobian(field, p))[0]


def char_poly_closed(n: int, d: int, p) -> np.ndarray:
    """Closed coefficient formula valid at a zero of a family member: the
    expanded product

        (lam + x1^d)^n + sum_j d^j (x1 ... x_{j-1})^(d-1) x_j^d (lam + x1^d)^(n-j).

    Its independent check is ``char_poly_direct`` on the exact Jacobian.
    The formula only uses the point's coordinates, so feeding a non-zero of
    the member gives garbage.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (n,):
        raise InputError(f"point has shape {p.shape}, expected ({n},)")
    x1d = p[0] ** d
    coeffs = np.zeros(n + 1, dtype=complex)  # descending powers of lam

    def add_shifted_power(k: int, mult: complex) -> None:
        for l in range(k + 1):
            coeffs[n - l] += mult * comb(k, l) * x1d ** (k - l)

    add_shifted_power(n, 1.0 + 0j)
    for j in range(1, n + 1):
        # d^j (x_1 ... x_{j-1})^(d-1) x_j^d, empty product for j = 1
        prod = np.prod(p[: j - 1]) if j > 1 else 1.0 + 0j
        add_shifted_power(n - j, d**j * prod ** (d - 1) * p[j - 1] ** d)
    return coeffs[1:]


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
    roots pass it for n <= 28 and fail at n = 29 (1.408e-10), 30
    (1.861e-10) and 40 (1.975e-06).
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


def _scan_bytes(n: int, max_order: int) -> tuple[int, int]:
    """The bytes a small-divisor scan in n variables takes, counted from
    closed forms before any table is built, and its count of kept candidates."""
    rows = comb(max_order + n, n) - 1 - n  # |M_n|, vectors m in n variables
    kept = rows + (n - 1) * (comb(max_order + n - 1, n - 1) - n)  # j = n, or m_j = 0
    return 24 * n * rows + 32 * kept + 64 * max(kept, SCAN_BLOCK), kept


def _check_scan_size(n: int, max_order: int) -> None:
    """Refuse a small-divisor scan in n variables above SCAN_MAX_BYTES,
    counted from closed forms before any table is built."""
    need = _scan_bytes(n, max_order)[0]
    if need > SCAN_MAX_BYTES:
        raise InputError(f"scan at n = {n}, max_order = {max_order} would take about "
                         f"{need:.3g} bytes (> SCAN_MAX_BYTES = {SCAN_MAX_BYTES}); lower max_order")


def _divisor_values(block: np.ndarray, sums: np.ndarray, at_lam: np.ndarray, at_sum: np.ndarray,
                    weights: np.ndarray, axis: int | None = None) -> np.ndarray:
    """|lam_j - <m, lam>| |m|^delta of the candidates whose lam_j and sum are
    taken (np.take along axis) from a block's eigenvalues and sums: the scan's
    one formula, elementwise, so a candidate's value does not depend on which
    others are taken.  The gathered operands are freed as soon as they are
    subtracted, as in one expression."""
    return np.abs(np.take(block, at_lam, axis=axis) - np.take(sums, at_sum, axis=axis)) * weights


def _divisor_scan(lams: np.ndarray, delta: float, max_order: int,
                  zeros: tuple[int, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """small_divisor_scan of every row of an (R, n) eigenvalue stack, in
    blocks, as arrays: c_min and the witness's index k among the kept
    candidates of ``_multi_indices``; the dense scan evaluates all of them,
    in row-major order, and k is the first minimum.

    With zeros = (d, labels), row r is zero labels[r] in [1, N] of a member
    of the family at (n, d), and each block is scanned by ``_anchored_block``
    on the ``_anchor`` of (n, d), which evaluates a few of them, bitwise the
    dense scan: a wrong label costs time, not correctness."""
    n = lams.shape[1]
    _check_scan_size(n, max_order)
    _, row, col, abs_m, m = _multi_indices(n, max_order)
    weights = abs_m ** float(delta)
    anchor = None if zeros is None else _anchor(n, zeros[0], max_order)
    c_min = np.empty(len(lams))
    k = np.empty(len(lams), dtype=np.intp)
    step = max(1, SCAN_BLOCK // len(row))
    for start in range(0, len(lams), step):
        block = lams[start : start + step]
        sums = np.matmul(m, block[..., None])[..., 0]
        found = None if anchor is None else _anchored_block(block, sums, zeros[1][start : start + step],
                                                            anchor, row, col, weights)
        if found is None:
            table = _divisor_values(block, sums, col, row, weights, axis=1)
            best = np.argmin(table, axis=1)
            found = table[np.arange(len(block)), best], best
        c_min[start : start + step], k[start : start + step] = found
    return c_min, k


# at most 8 (n, d, max_order) keys, as _multi_indices keeps 8 pairs
@lru_cache(maxsize=8)
def _anchor(n: int, d: int, max_order: int) -> tuple | None:
    """The alpha = 0 anchor of the divisor scan at (n, d), read-only; None,
    for the dense scan, when it would take more than the dense scan's own
    count or not fit beside it in SCAN_MAX_BYTES, or its form keys would not
    fit in an int64.  So it is built up to n = 10 at d = 1 and max_order 8,
    and the scan takes at most twice its count.

    At alpha = 0 the spectrum of zero m is s_m kappa, kappa = spec J(1) and
    s_m = xi^(d m) (``solver._orbit_inverse``).  A kept candidate (j, m') is
    the integer form e_j - m' on the eigenvalues, and a permutation pi of
    the eigenvalues maps the forms at each level |m'| bijectively onto
    themselves.  So if a row's sorted eigenvalues are s_m kappa[pi], its
    table of kept candidates is the kappa table |kappa_j - <m', kappa>|
    permuted.  The permutations kept are the P distinct orders of the rows
    s_m kappa sorted by (real, imag), as ``_roots`` sorts, and the orders in
    which ``_roots`` returns the computed alpha = 0 spectra, matched to
    s_m kappa by nearest neighbour: they differ at a zero where two of
    s_m kappa have equal real parts, such as s_m = -1 and a conjugate pair.

    Returns s_m kappa (N, n), row m - 1, so that zero m's reference for
    permutation p is s_m kappa[perms[p]]; the permutations (P, n); ``kept``
    (P, K): kept[p, t] is the kept index, in a row sorted as perms[p], of the
    candidate at sorted position t of the kappa table; the kappa table
    sorted within each level (K,) and the level bounds (max_order,), level o
    at [bounds[o - 2], bounds[o - 1]); and max |kappa|.  Nothing depends on
    delta.  It holds 8 (P + 1) K bytes, and its build 64 K more at its peak
    (tracemalloc: 56 of 60 MiB counted at (10,1)); the bound is checked
    before any table is built.
    """
    big_n = counts(n, d).N
    spectra = _roots(char_poly_direct(jouanolou_field(n, d), closed_form_coords(n, d)))[0]
    kappa = spectra[-1]  # zero N is the all-ones point
    turned = unit_roots(big_n)[d * np.arange(1, big_n + 1) % big_n, None] * kappa
    nearest = np.abs(spectra[:, :, None] - turned[:, None, :]).argmin(axis=2)
    orders = np.concatenate((np.argsort(turned, axis=1, kind="stable"), nearest)).tolist()
    perms = np.array(sorted({tuple(o) for o in orders if len(set(o)) == n}))  # permutations only
    need, size = _scan_bytes(n, max_order)
    radix = max_order + 2  # a form's entries lie in [-max_order, 1]
    if 8 * (len(perms) + 9) * size > min(need, SCAN_MAX_BYTES - need) or radix ** n > 2**63 - 1:
        return None
    m_int, row, col, abs_m, m = _multi_indices(n, max_order)
    table = np.abs(kappa[col] - np.matmul(m, kappa[:, None])[row, 0])
    classes = np.lexsort((table, abs_m))  # by level, then by value
    values = table[classes]
    bounds = np.searchsorted(abs_m[classes], np.arange(2, max_order + 2))

    # the key of form f read in a row sorted as p, sum_i (f[p[i]] + max_order) radix^i,
    # is sum_k (f_k + max_order) place[k] with place = radix^argsort(p)
    def keys(place, at):
        return max_order * place.sum() - (m_int @ place)[row[at]] + place[col[at]]

    # both key sets are the same set, so equal keys hold equal ranks
    powers = radix ** np.arange(n, dtype=np.int64)
    own = np.argsort(keys(powers, slice(None)))
    kept = np.empty((len(perms), len(row)), dtype=np.intp)
    for p, perm in enumerate(perms):
        kept[p, np.argsort(keys(powers[np.argsort(perm)], classes))] = own
    tables = (turned, perms, kept, values, bounds)
    for a in tables:
        a.setflags(write=False)
    return (*tables, float(np.abs(kappa).max()))


def _anchored_block(block: np.ndarray, sums: np.ndarray, labels: np.ndarray, anchor: tuple,
                    row: np.ndarray, col: np.ndarray,
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The dense scan of one block of a ``_divisor_scan`` with zeros, bitwise,
    evaluating only the candidates that a bound from the kappa table does not
    rule out; None, for the dense scan, when a bound is not finite or leaves
    more than a quarter of the block's candidates (rows far from alpha = 0),
    where evaluating them one by one costs more than the dense scan.

    Row r of the block is zero z = labels[r].  Of its references ref =
    s_z kappa[perms[p]], it takes the p with the least dev = max_i |lam_i -
    ref_i| (a zero near a tie in real parts sorts either way).  For any
    candidate (j, m) at level o = |m|,

        |lam_j - <m, lam>| >= |ref_j - <m, ref>| - (1 + o) dev,

    and |ref_j - <m, ref>| is |s_z| = 1 times the kappa table's value T at
    the candidate's class.  U, the computed value at the class of the
    alpha = 0 witness, bounds the row's c_min from above.  So a candidate
    whose T is above

        theta_o = U / o^delta + (1 + o) dev + margin_o

    has a computed value above U and is never the first minimum; the others
    (a prefix of each sorted level, by one searchsorted) and the witness are
    evaluated by ``_divisor_values``, and the first minimum is taken by
    (value, kept index).

    The margin bounds the rounding, with u = eps / 2 and X = max |lam| +
    max |kappa| <= 2 max |kappa| + dev: a computed sum <m, x> is within
    gamma_2n o max|x| of the exact one (real products m_i x_i, any summation
    order, FMA or not); the difference and the modulus add 2u and 4u of
    (1 + o) max|x|, so a computed value (T, or U o^-delta) is within
    (2n + 8) u (1 + o) max|x| of the exact one, plus u for the weight;
    ref_i = fl(s kappa_q) is within sqrt(5) u |kappa_q| of s kappa_q and
    |s| >= 1 - 4u; the computed dev and theta lose at most 4u relative each.
    Together, within a factor 2:

        margin_o = 8 eps (U / o^delta + (1 + o) dev) + 2 (n + 6) eps (1 + o) X.
    """
    turned, perms, kept, values, bounds, size = anchor
    n, eps = block.shape[1], np.finfo(float).eps
    starts = bounds[:-1]  # each level's least kappa value comes first
    level_weights = weights[kept[0, starts]]  # o^delta
    witness = starts[np.argmin(values[starts] * level_weights)]
    rows = np.arange(len(block))
    refs = turned[labels - 1].T[perms.T]  # (n, P, R): ref_i of row r, perm p
    devs = np.abs(block.T[:, None, :] - refs).max(axis=0)
    perm = devs.argmin(axis=0)
    dev = devs.ravel()[perm * len(block) + rows]
    offset = perm * kept.shape[1]  # the row's permutation in kept, flattened
    top = kept.ravel()[offset + witness]
    upper = _divisor_values(block, sums, rows * n + col[top], rows * sums.shape[1] + row[top],
                            weights[top])
    # theta_o = a / o^delta + (1 + o) b, with max |lam| <= max |kappa| + dev in X
    a = (1 + 8 * eps) * upper
    b = (1 + 2 * (n + 10) * eps) * dev + 4 * (n + 6) * eps * size
    if not np.isfinite(a + b).all():
        return None
    levels = np.arange(2, len(bounds) + 1)
    theta = a / level_weights[:, None] + (1 + levels)[:, None] * b
    count = np.ones((len(block), len(bounds)), dtype=np.intp)  # the witness, then each level
    for o in range(len(levels)):
        count[:, o + 1] = np.searchsorted(values[bounds[o] : bounds[o + 1]], theta[o], side="right")
    flat = count.ravel()
    ends = np.cumsum(flat)
    if 4 * ends[-1] > len(block) * len(row):
        return None
    first = (np.concatenate(([witness], starts)) + offset[:, None]).ravel() - ends + flat
    k = kept.ravel()[np.arange(ends[-1]) + np.repeat(first, flat)]
    last = ends[len(bounds) - 1 :: len(bounds)]  # each row's end in the flat arrays
    heads = np.concatenate(([0], last[:-1]))
    r = np.repeat(rows, last - heads)
    v = _divisor_values(block, sums, r * n + col[k], r * sums.shape[1] + row[k], weights[k])
    c_min = np.minimum.reduceat(v, heads)
    return c_min, np.minimum.reduceat(np.where(v == c_min[r], k, len(row)), heads)


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
    try:
        m, coords = point.m, point.coords
    except AttributeError:
        raise InputError(_NOT_POINTS) from None
    try:
        coords = np.asarray(coords, dtype=complex)
    except (TypeError, ValueError):  # entries that are not numbers
        raise InputError(_NOT_NUMBERS) from None
    sigma = char_poly_direct(field, coords)
    lams = eigenvalues(sigma)
    return SpectrumReport(
        m=m,
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
