"""Numerical checks for composition operators with banded matrix symbols
over Gaussian measure: Radon-Nikodym densities, banded symbol truncations
and class tests, Hermite models of the adjoint action, and hypothesis
suites with reproducible CLI reports.
"""

from .banded import (
    BandedSymbol,
    BlockPartition,
    PerturbedIdentity,
    block,
    det_sequence,
    in_class_F,
    power,
    power_entry_bound,
    truncate,
)
from .checker import (
    CheckReport,
    CoefficientTensor,
    LambdaGrid,
    compute_n_a,
    form_positivity_evidence,
    gram_construct,
    hyponormality_consequence,
    prop52_suite,
    prop56_suite,
    snr_form_matrix,
    snr_form_value,
    thm51_suite,
)
from .gaussmeas import (
    Box,
    DivergenceError,
    RnDerivative,
    chi_norm_sq,
    diag_closed_form,
    gaussian_box_mass,
    h_normalization,
    perturbation_bound_check,
    poisson_bounds,
    rn_power_factorization_check,
    singular_scaling_demo,
)
from .hermite import (
    CylFunction,
    HermiteModel,
    adjoint_apply,
    composition_apply,
)

__version__ = "0.1.0"
