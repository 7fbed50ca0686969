"""Experiments probing how generic perturbations behave.

Everything here reduces to one map: perturbation -> characteristic
coefficients at a tracked zero.  Its parameter Jacobian at 0 (by central
differences along real axes, valid because the map is holomorphic) has a
determinant with a known modulus, which certifies full rank; its first
row and the explicit entries of the derivative table have closed forms to
compare against; and sampling the polydisk estimates how often all zeros
are hyperbolic and non-resonant at a truncated order.

The alignment census is geometric rather than spectral: it finds maximal
subsets of zeros lying on a common complex affine line.  For odd n the
unperturbed census consists of K translates of a base pattern under the
symmetry group, and the census (not a formula) selects the K group
elements whose scalings produce the perturbation hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import CollisionError, ConvergenceError, InputError, VerificationError
from .jouanolou import (
    FoliationParams,
    SingularPoint,
    closed_form_sing,
    counts,
    family_field,
    generator_weights,
    unit_root,
)
from .solver import RunConfig, track_one, track_singularities
from .spectral import HYPERBOLIC, char_poly_direct, spectrum_reports

# Relative tolerance for the determinant-modulus and derivative-table checks.
SUBMERSION_RTOL = 1e-4
# Alignment defects below this are rounding noise: the pattern is exactly aligned.
DEFECT_NOISE_FLOOR = 1e-13
# Rank certificate: smallest singular value must exceed this times the largest.
RANK_GAP = 1e-6


def char_coeff_map(n: int, d: int, m: int, alpha, cfg: RunConfig) -> np.ndarray:
    """Characteristic coefficients at the tracked continuation of zero m.

    This is the map whose parameter derivatives the submersion and
    derivative-table reports probe.
    """
    params = FoliationParams(n, d, tuple(complex(a) for a in alpha))
    point = track_one(params, m, cfg)
    return char_poly_direct(family_field(params), point.coords)


@dataclass
class SubmersionReport:
    """Parameter Jacobian of the coefficient map at alpha = 0 for one zero.

    jac[i, j] is d sigma_(i+1) / d alpha_(j+1); det is its determinant,
    whose modulus should equal expected_modulus independently of m.  The
    singular values come from the real 2n x 2n embedding of jac and
    certify full rank when sv_min > RANK_GAP * sv_max.
    """

    m: int
    jac: np.ndarray
    det: complex
    expected_modulus: float
    rel_error: float
    fd_step: float
    sv_min: float
    sv_max: float


def expected_det_modulus(n: int, d: int) -> float:
    """Certified modulus ((n + d) / N) * d^((n^2 + 3n - 2) / 2) of the Jacobian determinant."""
    big_n = counts(n, d).N
    return (n + d) / big_n * float(d) ** ((n * n + 3 * n - 2) // 2)


def _coeff_jacobian(n: int, d: int, m: int, cfg: RunConfig, stencil: str) -> np.ndarray:
    # (node, weight) pairs; column j = sum of weight * F(node h e_j) / (pairs * h).  cauchy4
    # is the 4-point trapezoid rule for the Cauchy derivative integral, error O(h^4)
    stencils = {"central": ((1, 1), (-1, -1)), "cauchy4": tuple((1j**k, 1j**-k) for k in range(4))}
    if stencil not in stencils:
        raise InputError(f"unknown stencil {stencil!r}")
    h = cfg.fd_step
    cols = []
    for j in range(n):
        col = np.zeros(n, dtype=complex)
        for node, weight in stencils[stencil]:
            point = [0j] * n
            point[j] = h * node
            col += char_coeff_map(n, d, m, point, cfg) * weight
        cols.append(col / (len(stencils[stencil]) * h))
    return np.column_stack(cols)


def submersion_report(
    n: int, d: int, m: int, cfg: RunConfig, stencil: str = "central"
) -> SubmersionReport:
    """Finite-difference parameter Jacobian at alpha = 0 with its certificates.

    Raises VerificationError (carrying the report) when the determinant
    modulus misses its certified value by more than ten times
    SUBMERSION_RTOL; smaller misses are left to the caller to flag.
    """
    jac = _coeff_jacobian(n, d, m, cfg, stencil)
    det = complex(np.linalg.det(jac))
    expected = expected_det_modulus(n, d)
    rel_error = abs(abs(det) - expected) / expected
    embed = np.block([[jac.real, -jac.imag], [jac.imag, jac.real]])
    svals = np.linalg.svd(embed, compute_uv=False)
    report = SubmersionReport(
        m=m,
        jac=jac,
        det=det,
        expected_modulus=expected,
        rel_error=rel_error,
        fd_step=cfg.fd_step,
        sv_min=float(svals[-1]),
        sv_max=float(svals[0]),
    )
    if rel_error > 10 * SUBMERSION_RTOL:
        raise VerificationError(
            f"determinant modulus {abs(det):.6g} misses certified value "
            f"{expected:.6g} (rel error {rel_error:.3e}) at m={m}",
            payload=report,
        )
    return report


def submersion_all(n: int, d: int, cfg: RunConfig, stencil: str = "central") -> list[SubmersionReport]:
    """Reports for every zero index, asserting the modulus is m-independent."""
    big_n = counts(n, d).N
    reports = [submersion_report(n, d, m, cfg, stencil) for m in range(1, big_n + 1)]
    mods = np.array([abs(r.det) for r in reports])
    spread = float((mods.max() - mods.min()) / mods.max())
    if spread > 10 * SUBMERSION_RTOL:
        raise VerificationError(
            f"determinant modulus varies across zeros (relative spread {spread:.3e})",
            payload=reports,
        )
    return reports


def sigma_at_ones(n: int, d: int) -> np.ndarray:
    """Characteristic coefficients at the all-ones zero: entry i-1 is
    sum_{j=0}^{i} C(n-j, n-i) d^j."""
    out = np.zeros(n)
    for i in range(1, n + 1):
        out[i - 1] = sum(comb(n - j, n - i) * d**j for j in range(i + 1))
    return out


@dataclass
class DerivativeEntry:
    """One entry of the derivative table at the all-ones zero.

    fd is the finite-difference value of d sigma_i / d alpha_j; formula is
    the closed value where one exists (j >= i - 1), else None and the
    finite difference stands alone.
    """

    i: int
    j: int
    fd: complex
    formula: complex | None
    rel_error: float | None


def coeff_derivative_table(n: int, d: int, cfg: RunConfig) -> list[DerivativeEntry]:
    """Derivative table of the coefficient map at the all-ones zero (m = N).

    Closed values: i d A_i d^(j-1) / N for j > i - 1 and
    i d A_i d^(i-2) / N - d^i for j = i - 1, with A_i = sigma_at_ones.
    Entries with j < i - 1 have no closed value here and are reported
    finite-difference only.  A mismatch beyond SUBMERSION_RTOL raises,
    carrying the full table.
    """
    big_n = counts(n, d).N
    report = submersion_report(n, d, big_n, cfg)
    a_vals = sigma_at_ones(n, d)
    entries = []
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fd = complex(report.jac[i - 1, j - 1])
            if j > i - 1:
                formula = i * d * a_vals[i - 1] * d ** (j - 1) / big_n
            elif j == i - 1:
                formula = i * d * a_vals[i - 1] * d ** (i - 2) / big_n - d**i
            else:
                formula = None
            if formula is None:
                entries.append(DerivativeEntry(i, j, fd, None, None))
                continue
            formula = complex(formula)
            rel = abs(fd - formula) / max(1.0, abs(formula))
            entries.append(DerivativeEntry(i, j, fd, formula, rel))
            if rel > SUBMERSION_RTOL:
                failures.append((i, j, rel))
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


def alignment_census(points: list[SingularPoint], d: int, cfg: RunConfig) -> list[AlignmentRecord]:
    """All maximal aligned subsets of size >= d + 1 among the given zeros.

    Every point pair spans a candidate line; membership is distance below
    align_tol.  d >= 2 is required because two points are always aligned.
    Records are deduplicated by index set and sorted.
    """
    if d < 2:
        raise InputError("alignment census needs d >= 2 (every pair is a line)")
    if len(points) < d + 1:
        raise InputError(f"need at least d + 1 = {d + 1} points, got {len(points)}")
    coords = np.array([p.coords for p in points])
    labels = [p.m for p in points]
    count = len(points)
    tol = cfg.align_tol
    found: dict[tuple[int, ...], AlignmentRecord] = {}
    covered: set[frozenset[int]] = set()
    for a in range(count):
        for b in range(a + 1, count):
            if frozenset((a, b)) in covered:
                continue
            direction = coords[b] - coords[a]
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction = direction / norm
            rel = coords - coords[a]
            along = rel @ np.conj(direction)
            dist = np.linalg.norm(rel - along[:, None] * direction[None, :], axis=1)
            members = np.flatnonzero(dist < tol)
            if members.shape[0] < d + 1:
                continue
            for s in range(members.shape[0]):
                for t in range(s + 1, members.shape[0]):
                    covered.add(frozenset((int(members[s]), int(members[t]))))
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
    rho^j, 1 with rho a (d+1)-root of unity): m = j K mod N, j = 0..d."""
    c = counts(n, d)
    if n % 2 == 0 or d < 2:
        raise InputError("aligned patterns need odd n and d >= 2")
    return sorted(((j * c.K) % c.N) or c.N for j in range(d + 1))


def hyperplane_set(n: int, d: int, cfg: RunConfig = RunConfig()) -> HyperplaneSet:
    """Base hyperplane normal and its images under the census-selected elements.

    The base normal has d^(2k-1) in even slot 2k (2k <= n - 1) and zeros
    elsewhere.  For each aligned pattern in the unperturbed census the
    smallest generator power carrying the base pattern onto it is found,
    and the image normal divides each slot by that element's scaling.
    The census uses cfg.align_tol.
    """
    if n % 2 == 0:
        raise InputError("perturbation hyperplanes exist only for odd n")
    if d < 2:
        raise InputError("perturbation hyperplanes need d >= 2")
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
    base_set = set(base_pattern_indices(n, d))
    weights = generator_weights(n, d)
    images = []
    powers = []
    for record in census:
        target = set(record.indices)
        for k in range(c.N):
            shifted = {((m - 1 + k) % c.N) + 1 for m in base_set}
            if shifted == target:
                break
        else:
            raise VerificationError(
                f"census record {record.indices} is not a group translate of the base pattern",
                payload=census,
            )
        scalings = np.array([unit_root(-k * w, c.N) for w in weights])
        images.append(base * scalings)
        powers.append(k)
    order = np.argsort(powers)
    return HyperplaneSet(
        base_normal=base,
        images=[images[i] for i in order],
        element_powers=[powers[i] for i in order],
    )


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

    The first three points of the base aligned pattern are tracked at each
    mu and the defect is the 2 x 2 determinant built from two coordinates
    (first and last unless coord_pair says otherwise):

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
    if n % 2 == 0:
        raise InputError("the defect experiment needs odd n")
    if d < 2:
        raise InputError("the defect experiment needs d >= 2")
    nu = tuple(complex(v) for v in nu)
    if len(nu) != n:
        raise InputError(f"nu has {len(nu)} entries, expected {n}")
    size = max(abs(v) for v in nu)
    if size == 0:
        raise InputError("nu must be nonzero")
    mu_grid = tuple(float(mu) for mu in mu_grid)
    if len(mu_grid) < 2:
        raise InputError("need at least two mu values to fit a slope")
    for mu in mu_grid:
        if not 0 < mu <= cfg.radius / size:
            raise InputError(
                f"mu = {mu} outside (0, {cfg.radius / size:.3g}] for this nu"
            )
    if coord_pair is None:
        coord_pair = (1, n)
    u_idx, w_idx = coord_pair
    if not (1 <= u_idx <= n and 1 <= w_idx <= n and u_idx != w_idx):
        raise InputError(f"coordinate pair {coord_pair} out of range")

    pattern = base_pattern_indices(n, d)
    defects = []
    for mu in mu_grid:
        params = FoliationParams(n, d, tuple(mu * v for v in nu))
        tracked = [track_one(params, m, cfg) for m in pattern]
        u = [p.coords[u_idx - 1] for p in tracked[:3]]
        w = [p.coords[w_idx - 1] for p in tracked[:3]]
        defects.append(abs((u[1] - u[0]) * (w[2] - w[0]) - (u[2] - u[0]) * (w[1] - w[0])))
    with np.errstate(divide="ignore"):
        slope = float(np.polyfit(np.log(mu_grid), np.log(defects), 1)[0])
    return DefectResult(
        slope=slope,
        mus=mu_grid,
        defects=tuple(defects),
        nu=nu,
        coord_pair=(u_idx, w_idx),
    )


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


def genericity_sample(n: int, d: int, cfg: RunConfig, jobs: int = 1) -> SampleStats:
    """Sample the perturbation polydisk and summarize spectral behavior.

    Perturbations are drawn coordinatewise uniformly from the closed disk
    of cfg.radius, pre-generated sequentially from cfg.seed.  Each draw's
    zeros are tracked as one batch and their spectra computed as one
    stack; a draw that fails (ConvergenceError or CollisionError) is
    counted, never raised.  jobs must be at least 1 and has no effect:
    every draw runs in this process.
    """
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    draws = rng.random((cfg.samples, n, 2))
    alphas = cfg.radius * np.sqrt(draws[:, :, 0]) * np.exp(2j * np.pi * draws[:, :, 1])
    n_failed = n_all_hyp = n_any_res = 0
    for alpha in alphas:
        params = FoliationParams(n, d, tuple(alpha))
        try:
            reports = spectrum_reports(family_field(params), track_singularities(params, cfg), cfg)
        except (ConvergenceError, CollisionError):
            n_failed += 1
            continue
        n_all_hyp += all(rep.classification == HYPERBOLIC for rep in reports)
        n_any_res += any(rep.divisor.resonant for rep in reports)
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
