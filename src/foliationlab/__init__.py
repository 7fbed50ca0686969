"""Numerical laboratory for a perturbed family of degree-d foliations.

The library tracks the zeros of a classical degree-d vector field family
on affine n-space under small constant perturbations, computes spectra
and resonance diagnostics at those zeros, and runs the genericity
experiments (submersion certificates, alignment census, defect growth,
Monte Carlo sweeps) that probe the generic member's behavior.
"""

__version__ = "0.1.0"

from .cpoly import (
    PolyVectorField,
    diagonal_pushforward,
    eval_field,
    field_distance,
    jacobian,
    linear_diagonal_field,
    scale_field,
)
from .errors import (
    CollisionError,
    ConvergenceError,
    FactorizationError,
    InputError,
    VerificationError,
)
from .jouanolou import (
    Counts,
    FoliationParams,
    GroupElement,
    SingularPoint,
    closed_form_coords,
    closed_form_sing,
    counts,
    family_field,
    generator_weights,
    group_action,
    group_elements,
    jouanolou_field,
    pushforward_factor,
    unit_root,
)
from .solver import RunConfig, first_order_point, newton_refine, track_one, track_singularities
from .spectral import (
    DEGENERATE,
    HYPERBOLIC,
    INCONCLUSIVE,
    NONDEGENERATE_ONLY,
    DivisorRecord,
    SpectrumReport,
    char_poly_closed,
    char_poly_direct,
    classify,
    eigenvalues,
    linearizable_numerically,
    min_separation,
    small_divisor_scan,
    spectrum_report,
    spectrum_reports,
)
from .genericity import (
    AlignmentRecord,
    DefectResult,
    DerivativeEntry,
    HyperplaneSet,
    SampleStats,
    SubmersionReport,
    alignment_census,
    base_pattern_indices,
    char_coeff_map,
    coeff_derivative_table,
    defect_experiment,
    expected_det_modulus,
    genericity_sample,
    hyperplane_set,
    sigma_at_ones,
    submersion_all,
    submersion_report,
)
