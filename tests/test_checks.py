"""The shared parameter rules, as every public entry point applies them."""

import math
import re

import numpy as np
import pytest

from krrbounds import effdim, experiments, krr, rates, spectral, synth

MODEL = synth.build_model(1.0, 2.0, 8)
TARGET = synth.make_target(MODEL, 1.5, R=1.0)
XS = np.linspace(0.1, 0.9, 4)
SPECTRUM = spectral.polynomial_spectrum(1.0, 2.0, 1)


def prior(**overrides):
    values = dict(b=2.0, c=1.5, beta=1.0, alpha=1.0, R=1.0, kappa=1.0, M=1.0, Sigma=1.0)
    values.update(overrides)
    return spectral.PriorParams(**values)


def sweep_config(**overrides):
    values = dict(
        b=2.0, c=2.0, beta=1.0, sigma=0.1, ell_grid=(4, 8), repetitions=1, master_seed=0,
        n_modes=8, delta=0.1,
    )
    values.update(overrides)
    return experiments.RateSweepConfig(**values)


def record(**overrides):
    values = dict(
        ell=4, repetition=0, lam=rates.lambda_schedule(2.0, 2.0, 4), excess_risk=0.1, seed=0,
        b=2.0, c=2.0, beta=1.0, sigma=0.1, n_modes=8, delta=0.1,
    )
    values.update(overrides)
    return experiments.RateExperimentRecord(**values)


def convergence(lambda_grid=(0.1,), ell=4, repetitions=1):
    return experiments.effdim_convergence_experiment(MODEL, lambda_grid, ell, repetitions, 0)


B_GT_1 = "b must be > 1"
FINITE = "b must be finite"
C_RANGE = "c must be in [1, 2]"
AT_LEAST_ONE = "must be >= 1"
EMPTY_GRID = "lambda_grid must be nonempty"
POSITIVE_GRID = "every lambda in lambda_grid must be positive"
NOISE_RANGE = "sigma must keep the noise range 2*sqrt(3)*sigma finite, got inf"

# (call, message fragment); each row calls one public entry point of one module.
CASES = {
    # b <= 1
    "spectral.polynomial_spectrum b": (lambda: spectral.polynomial_spectrum(1.0, 1.0, 4), B_GT_1),
    "spectral.polynomial_spectrum b 0.5": (
        lambda: spectral.polynomial_spectrum(1.0, 0.5, 4), B_GT_1),
    "spectral.polynomial_spectrum b negative": (
        lambda: spectral.polynomial_spectrum(1.0, -2.0, 4), B_GT_1),
    "spectral.q_constant b": (lambda: spectral.q_constant(1.0, 0.5), B_GT_1),
    "spectral.q_constant b 1": (lambda: spectral.q_constant(1.0, 1.0), B_GT_1),
    "spectral.PriorParams b": (lambda: prior(b=1.0), B_GT_1),
    "effdim.corrected_bound b": (lambda: effdim.corrected_bound(1.0, 1.0, 0.1), B_GT_1),
    "effdim.claimed_bound b": (lambda: effdim.claimed_bound(1.0, 1.0, 0.5), B_GT_1),
    "effdim.wrong_inequality_gap b": (lambda: effdim.wrong_inequality_gap(1.0, 1.0), B_GT_1),
    "rates.lambda_schedule b": (lambda: rates.lambda_schedule(1.0, 1.5, 10), B_GT_1),
    "rates.rate_exponent b": (lambda: rates.rate_exponent(-2.0, 1.5), B_GT_1),
    "synth.build_model b": (lambda: synth.build_model(1.0, 1.0, 8), B_GT_1),
    "experiments.RateSweepConfig b": (lambda: sweep_config(b=1.0), B_GT_1),
    "spectral.q_constant b nan": (lambda: spectral.q_constant(1.0, math.nan), B_GT_1),
    # b = inf where a finite b is required
    "spectral.polynomial_spectrum inf": (
        lambda: spectral.polynomial_spectrum(1.0, math.inf, 4), FINITE),
    "effdim.claimed_bound inf": (lambda: effdim.claimed_bound(1.0, math.inf, 0.1), FINITE),
    "effdim.corrected_bound inf": (lambda: effdim.corrected_bound(1.0, math.inf, 0.5), FINITE),
    "effdim.integral_value inf": (lambda: effdim.integral_value(1.0, math.inf), FINITE),
    "effdim.wrong_inequality_threshold inf": (
        lambda: effdim.wrong_inequality_threshold(math.inf), FINITE),
    "effdim.find_wrong_inequality_threshold inf": (
        lambda: effdim.find_wrong_inequality_threshold(math.inf), FINITE),
    "rates.dominance_margins inf": (lambda: rates.dominance_margins(math.inf, 1.5), FINITE),
    "synth.build_model inf": (lambda: synth.build_model(1.0, math.inf, 8), FINITE),
    "experiments.RateSweepConfig inf": (lambda: sweep_config(b=math.inf), FINITE),
    # c outside [1, 2]
    "spectral.PriorParams c": (lambda: prior(c=0.5), C_RANGE),
    "spectral.PriorParams c above": (lambda: prior(c=2.5), C_RANGE),
    "rates.lambda_schedule c": (lambda: rates.lambda_schedule(2.0, 2.5, 10), C_RANGE),
    "rates.dominance_margins c": (lambda: rates.dominance_margins(2.0, 0.9), C_RANGE),
    "synth.make_target c": (lambda: synth.make_target(MODEL, 2.5, R=1.0), C_RANGE),
    "experiments.RateSweepConfig c": (lambda: sweep_config(c=3.0), C_RANGE),
    # beta <= 0
    "spectral.polynomial_spectrum beta": (
        lambda: spectral.polynomial_spectrum(0.0, 2.0, 4), "beta must be positive"),
    "spectral.PriorParams beta": (lambda: prior(beta=-1.0), "beta must be positive"),
    "effdim.claimed_bound beta": (
        lambda: effdim.claimed_bound(0.0, 2.0, 0.1), "beta must be positive"),
    "synth.build_model beta": (lambda: synth.build_model(0.0, 2.0, 8), "beta must be positive"),
    "experiments.RateSweepConfig beta": (lambda: sweep_config(beta=0.0), "beta must be positive"),
    "spectral.polynomial_spectrum beta b inf": (
        lambda: spectral.polynomial_spectrum(0.0, math.inf, 4), "beta must be positive"),
    "spectral.polynomial_spectrum beta inf": (
        lambda: spectral.polynomial_spectrum(math.inf, 2.0, 4), "beta must be finite here, got inf"),
    # eta outside (0, 6)
    "rates.min_ell_for_condition eta": (
        lambda: rates.min_ell_for_condition(prior(), 0.1, 0.0), "eta must lie in (0, 6)"),
    "rates.min_sample_size eta": (
        lambda: rates.min_sample_size(prior(), 6.0), "eta must lie in (0, 6)"),
    "rates.risk_bound eta": (
        lambda: rates.risk_bound(prior(), 0.1, 10, 7.5), "eta must lie in (0, 6)"),
    # lambda <= 0
    "effdim.effective_dimension_exact lambda": (
        lambda: effdim.effective_dimension_exact(SPECTRUM, 0.0), "lambda must be positive"),
    "effdim.corrected_bound lambda": (
        lambda: effdim.corrected_bound(1.0, 2.0, -1.0), "lambda must be positive"),
    "rates.risk_bound lambda": (
        lambda: rates.risk_bound(prior(), 0.0, 10, 0.05), "lambda must be positive"),
    "rates.min_ell_for_condition lambda": (
        lambda: rates.min_ell_for_condition(prior(), math.nan, 0.05), "lambda must be positive"),
    "krr.krr_fit lambda": (
        lambda: krr.krr_fit(np.eye(2), np.ones(2), 0.0), "lambda must be positive"),
    "krr.krr_fit_factored lambda": (
        lambda: krr.krr_fit_factored(MODEL.basis(XS), MODEL.eigenvalues, np.ones(4), 0.0),
        "lambda must be positive"),
    "krr.krr_fit_factored lambda primal": (
        lambda: krr.krr_fit_factored(
            MODEL.basis(np.linspace(0.1, 0.9, 16)), MODEL.eigenvalues, np.ones(16), 0.0),
        "lambda must be positive"),
    # R, delta, tol <= 0
    "spectral.PriorParams R": (lambda: prior(R=0.0), "R must be positive"),
    "synth.make_target R": (lambda: synth.make_target(MODEL, 1.5, R=0.0), "R must be positive"),
    "synth.make_target delta": (
        lambda: synth.make_target(MODEL, 1.5, R=1.0, delta=0.0), "delta must be positive"),
    "experiments.RateSweepConfig delta": (
        lambda: sweep_config(delta=-0.1), "delta must be positive"),
    "effdim.effective_dimension_exact tol": (
        lambda: effdim.effective_dimension_exact(SPECTRUM, 0.1, tol=0.0), "tol must be positive"),
    "effdim.bound_comparison_table tol": (
        lambda: effdim.bound_comparison_table(1.0, 2.0, [0.1], tol=-1.0), "tol must be positive"),
    # sigma < 0
    "synth.sample_dataset sigma": (
        lambda: synth.sample_dataset(MODEL, TARGET, -0.1, 4, 0), "sigma must be nonnegative"),
    "synth.sample_dataset sigma nan": (
        lambda: synth.sample_dataset(MODEL, TARGET, math.nan, 4, 0), "sigma must be nonnegative"),
    "experiments.RateSweepConfig sigma": (
        lambda: sweep_config(sigma=-1.0), "sigma must be nonnegative"),
    # sigma whose noise range 2*sqrt(3)*sigma overflows
    "synth.sample_dataset sigma inf": (
        lambda: synth.sample_dataset(MODEL, TARGET, math.inf, 4, 0), NOISE_RANGE),
    "experiments.RateSweepConfig sigma inf": (
        lambda: sweep_config(sigma=math.inf), NOISE_RANGE),
    # ell, n_modes, repetitions < 1
    "spectral.polynomial_spectrum n_max": (
        lambda: spectral.polynomial_spectrum(1.0, 2.0, 0), AT_LEAST_ONE),
    "rates.risk_bound ell": (lambda: rates.risk_bound(prior(), 0.1, 0.5, 0.05), AT_LEAST_ONE),
    "rates.lambda_schedule ell": (lambda: rates.lambda_schedule(2.0, 1.5, 0), AT_LEAST_ONE),
    "synth.build_model n_modes": (lambda: synth.build_model(1.0, 2.0, 0), AT_LEAST_ONE),
    "synth.sample_dataset ell": (
        lambda: synth.sample_dataset(MODEL, TARGET, 0.1, 0, 0), AT_LEAST_ONE),
    "experiments.RateSweepConfig ell_grid empty": (
        lambda: sweep_config(ell_grid=()), "ell_grid must be nonempty"),
    "experiments.RateSweepConfig ell_grid": (
        lambda: sweep_config(ell_grid=(0, 4)), AT_LEAST_ONE),
    "experiments.RateSweepConfig c = 1 ell_grid": (
        lambda: sweep_config(c=1.0, ell_grid=(1, 4)), "c = 1 schedule needs ell >= 2, got 1"),
    "experiments.RateSweepConfig n_modes": (lambda: sweep_config(n_modes=0), AT_LEAST_ONE),
    "experiments.RateSweepConfig repetitions": (
        lambda: sweep_config(repetitions=0), AT_LEAST_ONE),
    "experiments.RateSweepConfig ell_grid order": (
        lambda: sweep_config(ell_grid=(8, 4)), "ell_grid must be strictly increasing"),
    "experiments.effdim_convergence_experiment ell": (lambda: convergence(ell=0), AT_LEAST_ONE),
    "experiments.effdim_convergence_experiment repetitions": (
        lambda: convergence(repetitions=0), AT_LEAST_ONE),
    # empty or nonpositive lambda grid
    "effdim.bound_comparison_table empty": (
        lambda: effdim.bound_comparison_table(1.0, 2.0, []), EMPTY_GRID),
    "effdim.bound_comparison_table nonpositive": (
        lambda: effdim.bound_comparison_table(1.0, 2.0, [0.1, 0.0]), "lambda"),
    "krr.empirical_effective_dimension_profile empty": (
        lambda: krr.empirical_effective_dimension_profile(np.eye(2), []), EMPTY_GRID),
    "krr.empirical_effective_dimension_profile nonpositive": (
        lambda: krr.empirical_effective_dimension_profile(np.eye(2), [0.1, -1.0]), "lambda"),
    "krr.empirical_effective_dimension_profile zero": (
        lambda: krr.empirical_effective_dimension_profile(np.eye(2), [0.0]), POSITIVE_GRID),
    "krr.empirical_effective_dimension_factored empty": (
        lambda: krr.empirical_effective_dimension_factored(MODEL.basis(XS), MODEL.eigenvalues, []),
        EMPTY_GRID),
    "krr.empirical_effective_dimension_factored zero": (
        lambda: krr.empirical_effective_dimension_factored(
            MODEL.basis(XS), MODEL.eigenvalues, [0.1, 0.0]),
        POSITIVE_GRID),
    "experiments.effdim_convergence_experiment empty": (
        lambda: convergence(lambda_grid=[]), EMPTY_GRID),
    "experiments.effdim_convergence_experiment nonpositive": (
        lambda: convergence(lambda_grid=[0.1, 0.0]), "lambda"),
    # malformed arrays and records
    "spectral.Spectrum empty": (
        lambda: spectral.Spectrum(np.array([])), "eigenvalues must be a nonempty 1-d sequence"),
    "krr.krr_fit non-square K": (
        lambda: krr.krr_fit(np.ones((2, 3)), np.ones(2), 0.1), "K must be square"),
    "krr.krr_fit y shape": (
        lambda: krr.krr_fit(np.eye(2), np.ones(3), 0.1), "y must have shape (2,)"),
    "krr.empirical_effective_dimension_profile non-square K": (
        lambda: krr.empirical_effective_dimension_profile(np.ones((2, 3)), [0.1]),
        "K must be square"),
    "synth.sample_dataset theta modes": (
        lambda: synth.sample_dataset(MODEL, TARGET[:-1], 0.1, 4, 0),
        "target has 7 coefficients, model has 8 modes"),
    "experiments.RateExperimentRecord excess_risk": (
        lambda: record(excess_risk=-1.0), "excess_risk must be nonnegative"),
    "experiments.RateExperimentRecord excess_risk inf": (
        lambda: record(excess_risk=math.inf), "excess_risk must be nonnegative and finite, got inf"),
    "experiments.RateExperimentRecord excess_risk nan": (
        lambda: record(excess_risk=math.nan), "excess_risk must be nonnegative and finite, got nan"),
    # aggregation of a sweep
    "experiments.compare_with_theory aggregate": (
        lambda: experiments.compare_with_theory([], 2.0, 2.0, aggregate="max"), "aggregate"),
    "experiments.compare_with_theory burn_in": (
        lambda: experiments.compare_with_theory([], 2.0, 2.0, burn_in=-1),
        "burn_in must be nonnegative"),
    "experiments.compare_with_theory no records": (
        lambda: experiments.compare_with_theory([], 2.0, 2.0, burn_in=0),
        "burn_in=0 leaves 0 of 0 grid points; need at least 2 for a fit"),
}


@pytest.mark.parametrize("call, fragment", CASES.values(), ids=CASES.keys())
def test_out_of_range_argument_rejected(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()

