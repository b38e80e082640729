"""Numerical checks for composition operators with banded matrix symbols
over Gaussian measure: Radon-Nikodym densities, banded symbol truncations
and class tests, Hermite models of the adjoint action, and hypothesis
suites with reproducible CLI reports.
"""

from .banded import (
    BandedSymbol,
    BlockPartition,
    DecayCertificate,
    PerturbedIdentity,
    block,
    decay_certificate_check,
    det_sequence,
    in_class_F,
    logdet_corners,
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
    normality_test,
    prop52_suite,
    prop56_suite,
    snr_form_matrix,
    snr_form_value,
    thm51_suite,
)
from .gaussmeas import (
    Box,
    DivergenceError,
    GaussianSpace,
    RnDerivative,
    chi_norm_sq,
    diag_closed_form,
    ell2p_norm_sq,
    gaussian_box_mass,
    h_normalization,
    infinite_product,
    perturbation_bound_check,
    poisson_bounds,
    rn_eval,
    rn_power_factorization_check,
    singular_scaling_demo,
)
from .hermite import (
    CylFunction,
    HermiteModel,
    adjoint_apply,
    composition_apply,
    gram,
    hermite_values,
)

__version__ = "0.1.0"
