"""Risk-bound evaluation, regularization schedules, and rate algebra.

With probability at least 1 - eta the excess risk of the ridge estimator is
bounded by C_eta times the sum of five closed-form terms (approximation,
two cross terms, a noise term, and the effective-dimension term), provided
the sample size clears 2 C_eta kappa Q lambda**(-(b+1)/b) and lambda does
not exceed the operator norm.  Everything here is pure real arithmetic:
conditions are reported as flags so the bound can also be tabulated outside
its validity region.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from . import _checks
from .spectral import PriorParams, q_constant

__all__ = [
    "CONFIDENCE_COEFF",
    "BoundBreakdown",
    "c_eta",
    "risk_bound",
    "min_ell_for_condition",
    "lambda_schedule",
    "min_sample_size",
    "rate_exponent",
    "dominance_margins",
    "eta_tau",
]

# Multiplier of log^2(6/eta) in the confidence constant.
CONFIDENCE_COEFF = 96.0

_EXP_OVERFLOW = 709.0  # exp() beyond this overflows float64

# min_sample_size (c > 1) adds this times expo * (1 + |log ell_eta|) to
# log(ell_eta).  risk_bound evaluates the condition through powers whose
# rounding grows with both factors; with no margin, about 3% of random
# thresholds below 1e15 fell short at ceil(ell_eta).  In 4e5 random draws
# (b in (1, 10], c in (1, 2]) a margin of 1 eps still missed 16 times and
# 1.5 eps never; 4 eps leaves a factor above 2.
_THRESHOLD_ROUNDING = 4.0 * 2.0**-52


@dataclass(frozen=True)
class BoundBreakdown:
    """The five risk-bound terms, their C_eta-weighted total, and validity flags.

    total = c_eta * (term_approx + term_b + term_a + term_noise_m + term_effdim).
    sample_size_ok reports ell >= min_ell_for_condition; lambda_ok reports
    lambda <= alpha (alpha being the testable stand-in for the operator norm).
    """

    term_approx: float
    term_b: float
    term_a: float
    term_noise_m: float
    term_effdim: float
    total: float
    c_eta: float
    sample_size_ok: bool
    lambda_ok: bool


def c_eta(eta: float) -> float:
    """Confidence constant 96 * log(6/eta)**2, finite on all of (0, 6)."""
    # log(6/eta) must stay positive; the statistically meaningful range is
    # (0, 1) but the algebra is used on all of (0, 6), e.g. eta = 6/e.
    if not 0.0 < eta < 6.0:
        raise ValueError(f"eta must lie in (0, 6), got {eta}")
    ratio = 6.0 / eta
    # below eta ~ 3.3e-308 the ratio overflows, but its log (at most ~746) does not
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(6.0) - math.log(eta)
    return CONFIDENCE_COEFF * log_ratio**2


def _power(x: float, y: float) -> float:
    """x**y, or inf where float ** raises OverflowError past the float64 range."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def min_ell_for_condition(params: PriorParams, lam: float, eta: float) -> float:
    """Smallest sample size under which the risk bound is stated to hold.

    Returns 2 C_eta kappa Q lambda**(-(b+1)/b); callers round up to an
    integer.  For b = inf the exponent degenerates to -1.  Returned as a
    real number; math.inf when it exceeds float64 range.
    """
    _checks.positive_finite("lambda", lam)
    q = q_constant(params.beta, params.b)
    expo = -(1.0 + 1.0 / params.b)
    factors = (2.0 * c_eta(eta), params.kappa, q, _power(lam, expo))
    partials = tuple(itertools.accumulate(factors, operator.mul))
    # with every factor and partial product normal, the product carries rounding error only
    if all(sys.float_info.min <= x < math.inf for x in factors + partials):
        return partials[-1]
    log_value = math.fsum(map(math.log, factors[:3])) + expo * math.log(lam)
    return math.exp(log_value) if log_value <= _EXP_OVERFLOW else math.inf


def _finite(name: str, value: float) -> float:
    """value, the risk-bound quantity ``name``; OverflowError naming it if it is not finite."""
    if not math.isfinite(value):
        raise OverflowError(f"risk bound {name} is not finite in float64 (got {value})")
    return value


def risk_bound(params: PriorParams, lam: float, ell: float, eta: float) -> BoundBreakdown:
    """Evaluate the five-term excess-risk bound at (lambda, ell, eta).

    Invalid side conditions are reported through the flags, never as
    errors, so the bound surface can be plotted wherever it is finite.
    A term or total that float64 cannot hold raises OverflowError naming it;
    a power past the range counts as inf, so a partial product can trip it.
    ell is taken to float64 first: inf or an integer past its range raises
    ValueError naming ell, and ell**2 past it counts as inf.
    """
    _checks.positive_finite("lambda", lam)
    ell = _checks.sample_size(ell)
    b, c = params.b, params.c
    inv_b = 1.0 / b
    q = q_constant(params.beta, b)
    ce = c_eta(eta)
    R, kappa, M, Sigma = params.R, params.kappa, params.M, params.Sigma

    ell_sq = _power(ell, 2)
    term_approx = _finite("term_approx", R * _power(lam, c))
    term_b = _finite("term_b", _power(kappa, 2) * R * _power(lam, c - 2.0) / ell_sq)
    term_a = _finite("term_a", kappa * R * _power(lam, c - 1.0) / ell)
    term_noise_m = _finite("term_noise_m", kappa * _power(M, 2) / (lam * ell_sq))
    term_effdim = _finite("term_effdim", _power(Sigma, 2) * q * _power(lam, -inv_b) / ell)
    total = _finite("total", ce * (term_approx + term_b + term_a + term_noise_m + term_effdim))

    return BoundBreakdown(
        term_approx=term_approx,
        term_b=term_b,
        term_a=term_a,
        term_noise_m=term_noise_m,
        term_effdim=term_effdim,
        total=total,
        c_eta=ce,
        sample_size_ok=bool(ell >= min_ell_for_condition(params, lam, eta)),
        lambda_ok=bool(lam <= params.alpha),
    )


def lambda_schedule(b: float, c: float, ell: float) -> float:
    """Sample-size-driven ridge parameter.

    c > 1:  ell**(-b/(bc+1));   c = 1:  (log(ell)/ell)**(b/(b+1)).
    Real-valued ell is accepted so the algebra can be checked exactly; ell
    is taken to float64 first, and inf or an integer past its range raises
    ValueError naming ell.
    """
    _checks.decay_exponent(b)
    _checks.source_degree(c)
    if c == 1.0 and not ell >= 2:
        raise ValueError(f"c = 1 schedule needs ell >= 2, got {ell}")
    ell = _checks.sample_size(ell)
    if c == 1.0:
        expo = 1.0 if math.isinf(b) else b / (b + 1.0)
        return (math.log(ell) / ell) ** expo
    expo = 1.0 / c if math.isinf(b) else b / (b * c + 1.0)
    return ell**-expo


def min_sample_size(params: PriorParams, eta: float) -> float:
    """Threshold ell_eta past which the schedule satisfies the sample-size condition.

    c > 1: (2 C_eta kappa Q)**expo with expo = (bc+1)/(b(c-1)), raised by
    the relative rounding margin 4 eps expo (1 + |log ell_eta|) so that the
    condition as ``risk_bound`` evaluates it holds from ceil(ell_eta) on;
    c = 1: exp(2 C_eta kappa Q).
    Returned as a real number; math.inf when it exceeds float64 range, and
    0.0 (c > 1) when 2 C_eta kappa Q underflows to 0.0.
    """
    # 2 C_eta kappa Q: the condition's threshold at lambda = 1
    base = min_ell_for_condition(params, 1.0, eta)
    b, c = params.b, params.c
    if c == 1.0:
        return math.exp(base) if base <= _EXP_OVERFLOW else math.inf
    if base == 0.0:
        return 0.0
    expo = c / (c - 1.0) if math.isinf(b) else (b * c + 1.0) / (b * (c - 1.0))
    log_value = expo * math.log(base)
    log_value += _THRESHOLD_ROUNDING * expo * (1.0 + abs(log_value))
    return math.exp(log_value) if log_value <= _EXP_OVERFLOW else math.inf


def rate_exponent(b: float, c: float) -> float:
    """Excess-risk rate exponent bc/(bc+1) (equal to b/(b+1) at c = 1)."""
    _checks.decay_exponent(b)
    _checks.source_degree(c)
    if math.isinf(b):
        return 1.0
    return b * c / (b * c + 1.0)


def dominance_margins(b: float, c: float) -> tuple[float, float, float]:
    """Exponent gaps of the three subdominant terms over the bc/(bc+1) rate.

    Returns (3bc-2b+2-bc, 2bc-b+1-bc, 2bc-b+2-bc); all three are positive
    for every b > 1, c >= 1, which is what makes the leading terms dominate.
    """
    _checks.decay_exponent(b, finite=True)
    _checks.source_degree(c)
    return (
        2.0 * b * c - 2.0 * b + 2.0,
        b * c - b + 1.0,
        b * c - b + 2.0,
    )


def eta_tau(tau: float, d_const: float) -> float:
    """Invert tau = 2 C_eta D: returns 6 * exp(-sqrt(tau / (192 D))).

    Strictly decreasing in tau, mapping (0, inf) into (0, 6).  D is the
    problem-dependent constant in front of the rate and must be supplied
    by the caller.
    """
    _checks.positive_finite("tau", tau)
    _checks.positive_finite("d_const", d_const)
    return 6.0 * math.exp(-math.sqrt(tau / (2.0 * CONFIDENCE_COEFF * d_const)))
