"""Experiments probing how generic perturbations behave.

Everything here reduces to one map: perturbation -> characteristic
coefficients at a tracked zero.  Its parameter Jacobian at 0 (exact, by the
implicit function theorem) has a determinant with a known modulus, which
certifies full rank; its first row and the explicit entries of the
derivative table have closed forms to compare against; and sampling the
polydisk estimates how often all zeros are hyperbolic and non-resonant at
a truncated order.

The alignment census is geometric rather than spectral: it finds maximal
subsets of zeros lying on a common complex affine line.  For odd n the
unperturbed census consists of K translates of a base pattern under the
symmetry group, and the census (not a formula) selects the K group
elements whose scalings produce the perturbation hyperplanes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceError, InputError, VerificationError
from .cpoly import _evaluate, jacobian
from .jouanolou import (
    MEMBER_MAX_ENTRIES,
    FoliationParams,
    SingularPoint,
    _check_int,
    _check_nd,
    _check_points,
    _check_positive,
    _check_real,
    _check_sequence,
    _check_vector,
    closed_form_coords,
    closed_form_sing,
    counts,
    generator_weights,
    jouanolou_field,
    unit_roots,
)
from .solver import (RunConfig, _check_indices, _check_radius, _track_members, track_one,
                     track_zeros)
from .spectral import (_CLASSES, HYPERBOLIC, RESONANCE_TOL, _class_codes, _divisor_scan, _roots,
                       char_poly_direct)

# Relative tolerance for the determinant-modulus and derivative-table checks.
SUBMERSION_RTOL = 1e-4
# Alignment defects below this are rounding noise: the pattern is exactly aligned.
DEFECT_NOISE_FLOOR = 1e-13
# Rank certificate: smallest singular value must exceed this times the largest.
RANK_GAP = 1e-6
# Array entries per block of work: the sampler draws SAMPLE_BLOCK // (N^2 n)
# members at once; the census screen takes the keys of SAMPLE_BLOCK // (32 N n)
# anchors at once, a 32nd so that its (A, n, N) differences stay near 1/4 MiB,
# and tests SAMPLE_BLOCK // (N n) pairs at once; each at least one.
SAMPLE_BLOCK = 1 << 20


def char_coeff_map(n: int, d: int, m: int, alpha, cfg: RunConfig) -> np.ndarray:
    """Characteristic coefficients at the tracked continuation of zero m.

    The submersion and derivative-table reports give its parameter
    derivatives exactly.  alpha is only a constant term, so the member's
    Jacobian is the base field's.
    """
    point = track_zeros(FoliationParams(n, d, alpha), [m], cfg)[0]
    return char_poly_direct(jouanolou_field(n, d), point.coords)


@dataclass
class SubmersionReport:
    """Parameter Jacobian of the coefficient map at alpha = 0 for one zero.

    jac[i, j] is d sigma_(i+1) / d alpha_(j+1), exact up to rounding; det
    is its determinant, whose modulus should equal expected_modulus
    independently of m.  The singular values come from the real 2n x 2n
    embedding of jac and certify full rank when sv_min > RANK_GAP * sv_max.
    """

    m: int
    jac: np.ndarray
    det: complex
    expected_modulus: float
    rel_error: float
    sv_min: float
    sv_max: float


def expected_det_modulus(n: int, d: int) -> float:
    """Certified modulus ((n + d) / N) * d^((n^2 + 3n - 2) / 2) of the Jacobian determinant."""
    big_n = counts(n, d).N
    return (n + d) / big_n * float(d) ** ((n * n + 3 * n - 2) // 2)


def _submersion_reports(n: int, d: int, ms) -> list[SubmersionReport]:
    """Reports at the zeros ms, in order, from the closed-form alpha = 0 zeros.

    F_alpha = F_0 + alpha, so a zero x moves by w = -J^-1 dalpha, and
    jac[r, i, j] is the derivative of sigma_(i+1) along column j of w:
    forward mode through ``char_poly_direct``'s recursion, M'_1 = J',
    M'_(k+1) = J' (M_k + c_k I) + J (M'_k + c'_k I), c'_k = -tr(M'_k) / k,
    with J' = sum_l (d^2 F / dx dx_l) w_l.  Blocks of zeros hold at most
    MEMBER_MAX_ENTRIES second partials (n^3 per zero); a zero's arithmetic
    does not depend on its block.
    """
    base = jouanolou_field(n, d)  # refuses an oversized member before any n-sized array
    _check_indices(n, d, ms)
    x = closed_form_coords(n, d)[np.asarray(ms) - 1]
    eye = np.eye(n)
    jacs = np.empty((len(ms), n, n), dtype=complex)
    block = max(1, MEMBER_MAX_ENTRIES // n**3)
    for lo in range(0, len(ms), block):
        xb = x[lo:lo + block]
        a = jacobian(base, xb)[:, None]  # (B, 1, n, n) beside the (B, n, n, n) derivatives
        w = -np.linalg.inv(a[:, 0])
        hess = _evaluate(base, xb, 2, n**3).reshape(len(xb), n * n, n)
        # ap[r, j] is J' along column j of w at zero r
        ap = np.moveaxis((hess @ w).reshape(len(xb), n, n, n), -1, 1)
        m, mp = a, ap
        c, cp = -np.trace(m, axis1=-2, axis2=-1), -np.trace(mp, axis1=-2, axis2=-1)
        jacs[lo:lo + len(xb), 0] = cp
        for k in range(2, n + 1):
            shifted = m + c[..., None, None] * eye
            mp = ap @ shifted + a @ (mp + cp[..., None, None] * eye)
            m = a @ shifted
            c, cp = -np.trace(m, axis1=-2, axis2=-1) / k, -np.trace(mp, axis1=-2, axis2=-1) / k
            jacs[lo:lo + len(xb), k - 1] = cp
    expected = expected_det_modulus(n, d)
    # a determinant past the float range comes out inf or nan: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(jacs)
    # np.hypot, not np.abs, is bitwise Python's abs of a complex
    rel_errors = np.abs(np.hypot(dets.real, dets.imag) - expected) / expected
    svals = np.linalg.svd(np.block([[jacs.real, -jacs.imag], [jacs.imag, jacs.real]]),
                          compute_uv=False)
    reports = [SubmersionReport(m=m, jac=jac, det=complex(det), expected_modulus=expected,
                                rel_error=float(rel), sv_min=float(sv[-1]), sv_max=float(sv[0]))
               for m, jac, det, rel, sv in zip(ms, jacs, dets, rel_errors, svals)]
    for report in reports:
        if not report.rel_error <= SUBMERSION_RTOL:
            raise VerificationError(
                f"determinant modulus {abs(report.det):.6g} misses certified value "
                f"{expected:.6g} (rel error {report.rel_error:.3e}) at m={report.m}",
                payload=report,
            )
    return reports


def submersion_report(n: int, d: int, m: int, cfg: RunConfig) -> SubmersionReport:
    """Exact parameter Jacobian at alpha = 0 with its certificates; nothing
    is tracked, so cfg is not read.

    Raises VerificationError (carrying the report) when the determinant
    modulus misses its certified value by more than SUBMERSION_RTOL.
    """
    return _submersion_reports(n, d, [m])[0]


def submersion_all(n: int, d: int, cfg: RunConfig) -> list[SubmersionReport]:
    """Reports for every zero index; the first whose modulus misses raises.

    Each report is bitwise ``submersion_report`` at its index.  Every modulus
    is within SUBMERSION_RTOL of the one certified value, so the modulus is
    m-independent to within twice that.
    """
    return _submersion_reports(n, d, range(1, counts(n, d).N + 1))


def sigma_at_ones(n: int, d: int) -> np.ndarray:
    """Characteristic coefficients at the all-ones zero: entry i-1 is
    sum_{j=0}^{i} C(n-j, n-i) d^j; (n, d) as ``counts`` takes them."""
    _check_nd(n, d)
    out = np.zeros(n)
    for i in range(1, n + 1):
        out[i - 1] = sum(comb(n - j, n - i) * d**j for j in range(i + 1))
    return out


@dataclass
class DerivativeEntry:
    """One entry of the derivative table at the all-ones zero.

    value is d sigma_i / d alpha_j from the submersion report; formula is
    the closed value where one exists (j >= i - 1), else None and the
    value stands alone.
    """

    i: int
    j: int
    value: complex
    formula: complex | None
    rel_error: float | None


def coeff_derivative_table(n: int, d: int, cfg: RunConfig) -> list[DerivativeEntry]:
    """Derivative table of the coefficient map at the all-ones zero (m = N).

    Closed values: i d A_i d^(j-1) / N for j > i - 1 and
    i d A_i d^(i-2) / N - d^i for j = i - 1, with A_i = sigma_at_ones.
    Entries with j < i - 1 have no closed value here and are reported
    without one.  A mismatch beyond SUBMERSION_RTOL raises,
    carrying the full table.
    """
    big_n = counts(n, d).N
    report = submersion_report(n, d, big_n, cfg)
    a_vals = sigma_at_ones(n, d)
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            value = complex(report.jac[i - 1, j - 1])
            if j < i - 1:
                entries.append(DerivativeEntry(i, j, value, None, None))
                continue
            formula = i * d * a_vals[i - 1] * d ** (j - 1) / big_n
            if j == i - 1:
                formula -= d**i
            formula = complex(formula)
            rel = abs(value - formula) / max(1.0, abs(formula))
            entries.append(DerivativeEntry(i, j, value, formula, rel))
    failures = [(e.i, e.j, e.rel_error) for e in entries
                if e.formula is not None and e.rel_error > SUBMERSION_RTOL]
    if failures:
        raise VerificationError(
            f"derivative table mismatches beyond {SUBMERSION_RTOL}: {failures}",
            payload=entries,
        )
    return entries


@dataclass
class AlignmentRecord:
    """A maximal subset of zeros on one complex affine line.

    indices are the zero indices m (sorted); residual is the largest
    member distance to the line, measured as the Hermitian-orthogonal
    component against the unit direction.
    """

    indices: tuple[int, ...]
    line_point: np.ndarray
    line_dir: np.ndarray
    residual: float


# Most points the census accepts: 4096 points in C^5 took 0.9 s and peaked at
# 19.4 MiB under tracemalloc, 16 MiB of it the N^2 covered-pair bytes.
CENSUS_MAX_POINTS = 4096
# The screen's error bounds assume the largest |p|^2 lies in
# [2^-600, 2^600]; outside it every pair is a candidate.
_SCREEN_RANGE = (2.0**-600, 2.0**600)
# Bound on the underflow part of the pair test's distance, unscaled units.
_UNDERFLOW = 2.0**-500


def _census_candidates(coords: np.ndarray, tol: float, need: int, covered: np.ndarray):
    """For each anchor a, the b > a whose line might hold `need` points.

    Yields (a, bs) for the anchors with at least one such b.  A pair is
    dropped only when `covered` holds it or a screen proves that fewer than
    `need` points pass the pair test in `alignment_census`: a coarse test
    and then a sort-and-sweep over direction keys (Shamos and Hoey 1975),
    then a test on inner products.

    The key.  w is a fixed real vector with distinct entries, proportional
    to (i + 1)^-1/2, and W = |w|^2 as rounded, within (n + 4) eps of 1.
    Seen from anchor a, point c has the key k_c = |<r_c, w>|^2 / |r_c|^2,
    r_c = p_c - p_a, which lies in [0, W] and depends only on the complex
    line through p_a and p_c.

    The window.  Let c lie at distance delta from the line through p_a
    along u = r_b / |r_b|.  Then r_c / |r_c| = c' u + s z with z a unit
    orthogonal to u, s = delta / |r_c| and |c'|^2 = 1 - s^2.  With
    A = <u, w> and B = <z, w>, k_c - k_b = s^2 (|B|^2 - |A|^2)
    + 2 s Re(c' A B*), which by Cauchy-Schwarz in R^2 is at most
    s (|A|^2 + |B|^2) <= s W in modulus (Bessel's inequality on the
    orthonormal pair {u, z}); the bound is attained.  A point the pair
    test accepts has delta < t + d1, where d1 = (4n + 32) eps |r_c| + floor
    bounds the rounding of the test's own distance (twice the rounding of
    its differences, norms, division and projection; floor covers
    underflow), so |k_c - k_b| < W (t + floor) / |r_c| + W (4n + 32) eps.

    The tolerance.  t is tol capped at 4 in scaled units.  Scaled,
    max |p|^2 as computed is below 1, so every exact |p| is below
    1 + (n + 1) eps and every |r_c| below 4; since delta <= |r_c|, a
    tolerance above 4 accepts nothing that 4 does not, and the cap keeps
    t, the windows and the squares below from overflowing.  The cap,
    min(tol, 4 / scale), is exact, as is the power-of-two scaling.

    Rounding, in scaled units (max |p|^2 in [1/4, 1)):
    - once |r_c|^2 as computed exceeds 2^-900, underflow is negligible and
      a computed key is within rho = (2n + 8) eps of the exact one (the
      differences round by eps / 2 relatively, the dot product by gamma_n,
      the squared norm by gamma_(n + 2), the quotient by eps / 2);
    - the computed |r_c| is within (n + 3) eps of the exact one relatively.
    The half-width h_c = (1 + (2n + 16) eps) (t + floor) / |r_c|
    + (16n + 128) eps covers the bound above, 2 rho and the rounding of
    h_c and of the window's ends k_c -+ h_c, the additive part twice over.
    A point with |r_c|^2 <= 2^-900 as computed, such as a duplicate of the
    anchor, is near: it gets an infinite half-width, and a near b always
    passes both key stages.

    The coarse test.  Let H_a be the largest half-width among anchor a's
    points that are not near, m the most near points an anchor of the
    block has (the anchor itself is one) and q = need - m.  A b, not near,
    that the sweep below keeps has at least q flagged points c that are not
    near, each with k_c - h_c <= k_b <= k_c + h_c as computed.  The ends
    round by eps / 2 of |k_c -+ h_c| <= W + H_a, so |k_c - k_b| <= R
    = (1 + eps / 2) H_a + eps W / 2.  The sorted keys in [k_b - R, k_b + R]
    are a run that holds b's place and at least q keys, so some q
    consecutive sorted keys that hold b's place span at most 2 R, at most
    (1 + eps / 2) 2 R as computed, and that is below 2 (1 + 4 eps) H_a
    + 8 eps as computed, since W < 2.  The test keeps a pair when some q
    consecutive sorted keys that hold b's place span at most that, and
    every near b: one row-wise sort and q shifted comparisons per block.
    With q <= 1 it would keep every pair and is not run.  One bound per
    anchor is loose when tol is wide, which makes the half-widths of one
    anchor differ widely.  The test drops only pairs the sweep would drop,
    so the candidates do not depend on how the anchors are blocked.

    The sweep.  The points whose window [k_c - h_c, k_c + h_c] holds k_b
    are those whose lower end is at most k_b, less those whose upper end
    is below it: two sorted arrays per anchor, and two binary searches on
    the keys of the pairs the coarse test kept.

    The exact stage.  Pairs the `covered` matrix of the caller already
    holds are dropped (the pair test skips them), and when more than one
    pair is left it is tested again on inner products, which one key
    cannot replace.  With nb = |r_b|^2, nc = |r_c|^2 and g = <r_c, r_b>,
    nb delta^2 = nb nc - |g|^2, so a point the pair test accepts has
    |g|^2 > nb (nc - T^2), T = t + d1.  As computed, nb and nc are within
    (n + 2) eps relatively and |g| within (2n + 10) eps |r_b| |r_c| (the
    differences, then a complex dot product of length n), so |g|^2 as
    computed is at least |g|^2 - (4n + 22) eps nb nc.  With
    T_c = (1 + (2n + 16) eps) (t + floor) + (4n + 40) eps |r_c| >= T and
    lo_c = nc (1 - (8n + 48) eps) - T_c^2 (1 + (2n + 16) eps), the
    product nb lo_c as computed is below nb (nc - T^2) - (6n + 41) eps
    nb nc whatever the sign of lo_c, so c is flagged when |g|^2 - nb lo_c
    as computed exceeds -2^-1000; that term covers underflow, which only
    matters once nb nc is far below it.  One block of pairs holds at most
    SAMPLE_BLOCK // (N n) of them.

    Only pairs with at least `need` points flagged by each stage are
    candidates.  The keys, half-widths and coarse test take the anchors
    in blocks of SAMPLE_BLOCK // (32 N n), at least one, as (A, n, N)
    differences and (A, N) arrays.  Time is O(N (n + log N)) per anchor for
    the keys and the coarse test, in a few dozen array operations per
    block, O(N log N) per anchor the coarse test leaves a pair plus
    O(log N) per pair the sweep sees, and O(N n) per pair the exact stage
    tests.  Memory is a few arrays of max(N n, SAMPLE_BLOCK // 32) entries
    plus one block of pairs.
    """
    count, n = coords.shape
    eps = np.finfo(float).eps
    big = float(np.max(np.sum(coords.real**2 + coords.imag**2, axis=1)))
    if not _SCREEN_RANGE[0] <= big <= _SCREEN_RANGE[1]:
        for a in range(count - 1):
            yield a, range(a + 1, count)
        return
    # a power-of-two scale is exact: max |p|^2 moves into [1/4, 1)
    scale = float(np.ldexp(1.0, -np.frexp(np.sqrt(big))[1]))
    pts = coords * scale
    re_t, im_t = pts.real.T.copy(), pts.imag.T.copy()
    w = 1.0 / np.sqrt(np.arange(2.0, n + 2.0))
    w /= np.linalg.norm(w)
    reach = (1.0 + (2 * n + 16) * eps) * ((min(tol, 4.0 / scale) + _UNDERFLOW) * scale)
    slack = (16 * n + 128) * eps
    rows = max(1, SAMPLE_BLOCK // (count * n))
    step = max(1, SAMPLE_BLOCK // (32 * count * n))
    for start in range(0, count - 1, step):
        anchors = np.arange(start, min(start + step, count - 1))
        # (A, n, N) differences: sums over the coordinates run along rows
        dre = re_t - pts.real[anchors, :, None]
        dim = im_t - pts.imag[anchors, :, None]
        sq = np.einsum("acp,acp->ap", dre, dre) + np.einsum("acp,acp->ap", dim, dim)
        keep = np.arange(count) > anchors[:, None]
        near = sq <= 2.0**-900
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            key = ((w @ dre) ** 2 + (w @ dim) ** 2) / sq
            half = reach / np.sqrt(sq) + slack
        key[near] = 0.0
        widest = np.max(half, axis=1, where=~near, initial=0.0)
        half[near] = np.inf
        q = need - int(np.max(np.count_nonzero(near, axis=1)))
        if q > 1:
            order = np.argsort(key, axis=1)
            ranked = np.take_along_axis(key, order, axis=1)
            limit = (2.0 * (1.0 + 4 * eps)) * widest + 8 * eps
            short = ranked[:, q - 1:] - ranked[:, :count - q + 1] <= limit[:, None]
            run = np.zeros(keep.shape, dtype=bool)
            for i in range(q):
                run[:, i:i + count - q + 1] |= short
            hit = np.empty_like(run)
            np.put_along_axis(hit, order, run, axis=1)
            keep &= hit | near
        live = np.flatnonzero(keep.any(axis=1))
        lows = np.sort(key[live] - half[live], axis=1)
        highs = np.sort(key[live] + half[live], axis=1)
        for i, r in enumerate(live.tolist()):
            a = start + r
            kept = np.flatnonzero(keep[r])
            kb = key[r, kept]
            flagged = (np.searchsorted(lows[i], kb, side="right")
                       - np.searchsorted(highs[i], kb, side="left"))
            kept = kept[(flagged >= need) | near[r, kept]]
            kept = kept[~covered[a, kept]]
            if len(kept) > 1:
                rel = pts - pts[a]
                reach_c = reach + (4 * n + 40) * eps * np.sqrt(sq[r])
                lo = sq[r] * (1.0 - (8 * n + 48) * eps) - (reach_c * reach_c) * (1.0 + (2 * n + 16) * eps)
                blocks = []
                for begin in range(0, len(kept), rows):
                    bs = kept[begin:begin + rows]
                    g = (rel[bs].conj() @ rel.T).view(float)
                    g *= g
                    g2 = g[:, 0::2] + g[:, 1::2]
                    g2 -= np.multiply.outer(sq[r, bs], lo)
                    blocks.append(bs[np.count_nonzero(g2 > -2.0**-1000, axis=1) >= need])
                kept = np.concatenate(blocks)
            if len(kept):
                yield a, kept


def alignment_census(points: list[SingularPoint], d: int, cfg: RunConfig) -> list[AlignmentRecord]:
    """All maximal aligned subsets of size >= d + 1 among the given zeros.

    Every point pair (a, b), a < b, spans a candidate line through p_a
    with unit direction u along p_b - p_a; point c is a member when its
    distance |r - <r, u> u|, r = p_c - p_a, is below align_tol.  Pairs
    are visited in (a, b) order, and a pair already inside an earlier
    record is skipped.  Each record keeps the first pair's p_a and u and
    the largest member distance.  d must be an integer >= 2 (two points
    are always aligned).  Records are deduplicated by index set and sorted.

    The pair test costs O(N n) and almost no pair passes it, so pairs are
    first screened in three stages, on the points scaled by a power of two
    so that max |p|^2 lies in [1/4, 1).  Seen from anchor a, each point c
    has a key, the squared cosine between a fixed real vector w and the
    complex line through p_a and p_c, and a point off the line through p_a
    and p_b by delta has a key within delta / |p_c - p_a| of b's, its
    half-width, with tol (capped at the largest distance two points can
    have) for delta.  A coarse test, for a block of anchors at once, keeps
    a pair only when d consecutive keys in sorted order around b's (fewer
    beside repeated points) span at most twice the anchor's widest
    half-width.  A sort-and-sweep over the
    keys then flags, for the pairs it kept, the points whose key lies
    within its half-width of b's.  The pairs left that no record covers
    yet are tested on the inner products <p_c - p_a, p_b - p_a>, in
    blocks: nb (nc - tol^2) < |g|^2 up to a margin.  Each stage's margin
    bounds its own rounding plus the rounding (and underflow) of the pair
    test's distance, so every point the pair test accepts is flagged.
    Only pairs with at least d + 1 flagged points run the pair test, in
    the same order and under the same covered-pair rule, so the records are
    bitwise those of running it on every pair.  If max |p|^2 falls outside
    [2^-600, 2^600], every pair runs the pair test.

    Time is O(N^2 (n + log N)) for the key stages, in a few dozen array
    operations per block of SAMPLE_BLOCK // (32 N n) anchors, plus
    O(log N) per pair the sweep sees and O(N n) per pair the inner-product
    stage or the pair test sees.  Memory is O(N n) plus a few arrays of at
    most SAMPLE_BLOCK entries plus N^2 bytes for the covered pairs; more
    than CENSUS_MAX_POINTS points raise InputError.
    """
    _check_int("d", d)
    if d < 2:
        raise InputError("alignment census needs d >= 2 (every pair is a line)")
    points = _check_sequence("points", points)
    if len(points) < d + 1:
        raise InputError(f"need at least d + 1 = {d + 1} points, got {len(points)}")
    if len(points) > CENSUS_MAX_POINTS:
        raise InputError(f"alignment census takes at most {CENSUS_MAX_POINTS} points, "
                         f"got {len(points)}")
    coords, labels = _check_points(points)
    count = len(points)
    tol = cfg.align_tol
    found: dict[tuple[int, ...], AlignmentRecord] = {}
    covered = np.zeros((count, count), dtype=bool)
    for a, candidates in _census_candidates(coords, tol, d + 1, covered):
        rel = coords - coords[a]
        for b in candidates:
            if covered[a, b]:
                continue
            direction = coords[b] - coords[a]
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction = direction / norm
            along = rel @ np.conj(direction)
            dist = np.linalg.norm(rel - along[:, None] * direction[None, :], axis=1)
            members = np.flatnonzero(dist < tol)
            if members.shape[0] < d + 1:
                continue
            covered[np.ix_(members, members)] = True
            key = tuple(sorted(labels[i] for i in members))
            if key not in found:
                found[key] = AlignmentRecord(
                    indices=key,
                    line_point=coords[a].copy(),
                    line_dir=direction,
                    residual=float(dist[members].max()),
                )
    return [found[key] for key in sorted(found)]


@dataclass
class HyperplaneSet:
    """The base alignment-breaking hyperplane and its K group images.

    Normals are parameter-space covectors: a perturbation nu keeps the
    corresponding aligned pattern to first order iff sum_i normal_i nu_i = 0
    (plain bilinear pairing).  element_powers records which generator
    powers produced the images; they are read off the unperturbed census,
    one per aligned pattern.
    """

    base_normal: np.ndarray
    images: list[np.ndarray]
    element_powers: list[int]


def base_pattern_indices(n: int, d: int) -> list[int]:
    """Zero indices of the base aligned pattern (coordinates alternating
    rho^j, 1 with rho a (d+1)-root of unity): m = j K mod N, j = 0..d.
    Raises InputError unless n is odd and d >= 2; hyperplane_set and
    defect_experiment call it first for that check."""
    c = counts(n, d)
    if n % 2 == 0 or d < 2:
        raise InputError("aligned patterns need odd n and d >= 2")
    return sorted(((j * c.K) % c.N) or c.N for j in range(d + 1))


def hyperplane_set(n: int, d: int, cfg: RunConfig = RunConfig()) -> HyperplaneSet:
    """Base hyperplane normal and its images under the census-selected elements.

    The base normal has d^(2k-1) in even slot 2k (2k <= n - 1) and zeros
    elsewhere.  For each aligned pattern in the unperturbed census the
    smallest generator power carrying the base pattern onto it is
    k = min(indices) mod K, checked against the translated base set, and
    the image normal divides each slot by that element's scaling.
    The census uses cfg.align_tol.
    """
    base_set = set(base_pattern_indices(n, d))
    c = counts(n, d)
    base = np.zeros(n, dtype=complex)
    for two_k in range(2, n, 2):
        base[two_k - 1] = float(d) ** (two_k - 1)

    census = alignment_census(closed_form_sing(n, d), d, cfg)
    if len(census) != c.K:
        raise VerificationError(
            f"unperturbed census found {len(census)} aligned patterns, expected {c.K}",
            payload=census,
        )
    for record in census:
        # the base set is every m = 0 mod K, so its k-th translate is the
        # residue class of k: the smallest k is read off any member
        k = min(record.indices) % c.K
        if {((m - 1 + k) % c.N) + 1 for m in base_set} != set(record.indices):
            raise VerificationError(
                f"census record {record.indices} is not a group translate of the base pattern",
                payload=census,
            )
    powers = sorted(min(record.indices) % c.K for record in census)
    images = base * unit_roots(c.N)[-np.outer(powers, generator_weights(n, d)) % c.N]
    return HyperplaneSet(base_normal=base, images=list(images), element_powers=powers)


@dataclass
class DefectResult:
    """Log-log slope of the alignment defect along a ray of perturbations."""

    slope: float
    mus: tuple[float, ...]
    defects: tuple[float, ...]
    nu: tuple[complex, ...]
    coord_pair: tuple[int, int]


def defect_experiment(
    n: int,
    d: int,
    nu,
    mu_grid,
    cfg: RunConfig,
    coord_pair: tuple[int, int] | None = None,
) -> DefectResult:
    """Growth order of the alignment defect for perturbations mu * nu.

    Every mu must be positive, and every member mu * nu must pass the
    tracking gate's polydisk check before any is tracked.  Only the first
    three points of the base aligned pattern are tracked at each mu, and the
    defect is the 2 x 2 determinant built from two coordinates (first and
    last unless coord_pair says otherwise):

        |(u1 - u0)(w2 - w0) - (u2 - u0)(w1 - w0)|

    Directions off the base hyperplane give slope about 1. On it the linear
    term cancels and the growth order depends on the direction: mixed-parity
    support gives a quadratic defect, while directions whose perturbed family
    keeps the residual diagonal symmetry of the pattern stay aligned exactly,
    so the defects sit below DEFECT_NOISE_FLOOR and the fitted slope (nan
    when some defect is exactly zero) means nothing.

    At n = 3 the base hyperplane {nu_2 = 0} is exactly the fixed set of
    g^K, x -> (w x_1, x_2, w x_3) with w = e^(2 pi i / 3): g^K maps such a
    member to itself and cycles the tracked pattern, an orbit
    {(w^j a, b, w^j c)} that lies on one line, so every on-hyperplane ray
    there is exact.  Quadratic rays first appear at n = 5, where the
    hyperplane is larger than the fixed set of g^K.
    """
    pattern = base_pattern_indices(n, d)
    nu = _check_vector("nu", nu, n)
    if not any(nu):
        raise InputError("nu must be nonzero")
    mu_grid = tuple(float(_check_real("mu", mu)) for mu in _check_sequence("mu_grid", mu_grid))
    if len(mu_grid) < 2:
        raise InputError("need at least two mu values to fit a slope")
    if len(set(mu_grid)) < 2:
        raise InputError("need at least two distinct mu values to fit a slope")
    for mu in mu_grid:
        _check_positive("mu", mu)
    alphas = [tuple(mu * v for v in nu) for mu in mu_grid]
    _check_radius(np.array(alphas), cfg)  # all members, before any is tracked
    pair = (1, n) if coord_pair is None else _check_sequence("coordinate pair", coord_pair)
    if (len(pair) != 2 or pair[0] == pair[1]
            or not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 1 <= i <= n
                       for i in pair)):
        raise InputError(f"coordinate pair {coord_pair} must be two distinct integers in [1, {n}]")
    u_idx, w_idx = pair

    defects = []
    for alpha in alphas:
        params = FoliationParams(n, d, alpha)
        tracked = [track_one(params, m, cfg) for m in pattern[:3]]
        u = [p.coords[u_idx - 1] for p in tracked]
        w = [p.coords[w_idx - 1] for p in tracked]
        defects.append(abs((u[1] - u[0]) * (w[2] - w[0]) - (u[2] - u[0]) * (w[1] - w[0])))
    with np.errstate(divide="ignore"):
        slope = float(np.polyfit(np.log(mu_grid), np.log(defects), 1)[0])
    return DefectResult(slope=slope, mus=mu_grid, defects=tuple(defects), nu=nu,
                        coord_pair=(u_idx, w_idx))


@dataclass
class SampleStats:
    """Monte Carlo summary over perturbations drawn from the polydisk.

    A finite sample with a truncated resonance scan: evidence about the
    generic picture, not a proof of any full-measure statement.
    """

    n: int
    d: int
    samples: int
    seed: int
    radius: float
    delta: float
    max_order: int
    n_failed: int
    n_all_hyperbolic: int
    n_any_resonant: int
    frac_failures: float
    frac_all_hyperbolic: float
    frac_any_resonant: float
    note: str = (
        "finite sample with a truncated resonance scan; "
        "not a proof of a full-measure statement"
    )


def _draw_outcomes(n: int, d: int, cfg: RunConfig) -> Iterator[tuple[str, bool, bool]]:
    """Per draw of ``genericity_sample``, yielded block by block: (class name
    of the error that failed it, or "", all zeros hyperbolic, some zero
    resonant).  Each block draws its (S, n, 2) share of the seeded stream;
    a draw with a zero above the root gate fails with ConvergenceError."""
    base = jouanolou_field(n, d)
    big_n = counts(n, d).N
    rng = np.random.default_rng(cfg.seed)
    block = max(1, SAMPLE_BLOCK // (big_n * big_n * n))
    for lo in range(0, cfg.samples, block):
        draws = rng.random((min(block, cfg.samples - lo), n, 2))
        alphas = cfg.radius * np.sqrt(draws[:, :, 0]) * np.exp(2j * np.pi * draws[:, :, 1])
        x, _, _, errors = _track_members(n, d, alphas, cfg)
        outcomes = {s: (type(exc).__name__, False, False) for s, exc in errors.items()}
        tracked = np.array([s for s in range(len(alphas)) if s not in outcomes], dtype=int)
        lams, _, failing = _roots(char_poly_direct(base, x[tracked].reshape(-1, n)))
        gated = failing.reshape(-1, big_n).any(axis=1)
        outcomes.update((s, (ConvergenceError.__name__, False, False)) for s in tracked[gated].tolist())
        if not gated.all():
            lams = lams.reshape(-1, big_n, n)[~gated].reshape(-1, n)
            codes = _class_codes(lams, cfg).reshape(-1, big_n)
            c_min = _divisor_scan(lams, cfg.delta, cfg.max_order)[0].reshape(-1, big_n)
            hyperbolic = (codes == _CLASSES.index(HYPERBOLIC)).all(axis=1)
            resonant = (c_min < RESONANCE_TOL).any(axis=1)
            outcomes.update((s, ("", h, r)) for s, h, r in
                            zip(tracked[~gated].tolist(), hyperbolic.tolist(), resonant.tolist()))
        yield from (outcomes[s] for s in range(len(alphas)))


def genericity_sample(n: int, d: int, cfg: RunConfig) -> SampleStats:
    """Sample the perturbation polydisk and summarize spectral behavior.

    Perturbations are drawn coordinatewise uniformly from the closed disk
    of cfg.radius, sequentially from cfg.seed, in blocks of at least one
    draw, SAMPLE_BLOCK // (N^2 n).  A block is drawn as one (S, n) alpha
    array only when it runs, so memory does not grow with cfg.samples.
    Its zeros are tracked as one batch on the base field (a draw differs
    from it only by its constant term alpha), scanned for collisions as one
    stack, and their spectra computed as one stack from the base field,
    whose Jacobian is every draw's, by the array kernels under
    ``spectrum_reports``: a draw's two flags are reductions of the block's
    class codes and c_min values, and no per-zero report is built.  Each
    draw's result is bitwise that of running it alone.  A draw that fails
    (ConvergenceError or CollisionError, including the eigenvalue gate on
    any of its zeros, a mask over the block's roots) is counted, never
    raised.
    """
    n_failed = n_all_hyp = n_any_res = 0
    for error, hyp, res in _draw_outcomes(n, d, cfg):
        n_failed += bool(error)
        n_all_hyp += hyp
        n_any_res += res
    total = cfg.samples
    return SampleStats(
        n=n,
        d=d,
        samples=total,
        seed=cfg.seed,
        radius=cfg.radius,
        delta=cfg.delta,
        max_order=cfg.max_order,
        n_failed=n_failed,
        n_all_hyperbolic=n_all_hyp,
        n_any_resonant=n_any_res,
        frac_failures=n_failed / total,
        frac_all_hyperbolic=n_all_hyp / total,
        frac_any_resonant=n_any_res / total,
    )
