"""Effective-dimension bounds and minimax-rate checks for kernel ridge regression."""

from .effdim import (
    bound_comparison_table,
    claimed_bound,
    corrected_bound,
    effective_dimension_exact,
    find_wrong_inequality_threshold,
    integral_value,
    wrong_inequality_gap,
    wrong_inequality_threshold,
)
from .experiments import (
    RateSweepConfig,
    compare_with_theory,
    effdim_convergence_experiment,
    fit_power_law,
    rate_sweep,
)
from .krr import empirical_effective_dimension_profile, gram_matrix, krr_fit
from .rates import (
    BoundBreakdown,
    c_eta,
    dominance_margins,
    eta_tau,
    lambda_schedule,
    min_ell_for_condition,
    min_sample_size,
    rate_exponent,
    risk_bound,
)
from .spectral import PriorParams, Spectrum, polynomial_spectrum, q_constant
from .synth import (
    Dataset,
    SpectralKernelModel,
    build_model,
    exact_excess_risk,
    make_target,
    sample_dataset,
    source_condition_value,
)

__version__ = "0.1.0"
