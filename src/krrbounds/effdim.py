"""Exact effective dimension N(lambda) and its upper bounds.

For a spectrum t_1 >= t_2 >= ... the effective dimension is

    N(lambda) = sum_n t_n / (t_n + lambda).

For the polynomial decay t_n = beta * n**-b the sum is compared against

    corrected_bound = Q * lambda**(-1/b),   Q = spectral.q_constant(beta, b)
    claimed_bound   = (beta * b / (b - 1)) * lambda**(-1/b)

The first equals the integral of x |-> beta/(beta + lambda x**b) over
[0, inf) and dominates the sum by at most 1 (the dropped x = 0 term); the
integral over [a, inf), corrected_bound times a regularized incomplete
beta, encloses the sum's tail.  The second rests on the false inequality
int_0^inf dt/(beta + t**b) <= b/(b-1); it fails for every beta below a
computable threshold and is kept only as a reference curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _checks
from .spectral import Spectrum, polynomial_spectrum, q_constant

__all__ = [
    "DEFAULT_TOL",
    "EffDimResult",
    "BoundComparisonRow",
    "effective_dimension_exact",
    "corrected_bound",
    "claimed_bound",
    "integral_value",
    "wrong_inequality_gap",
    "wrong_inequality_threshold",
    "find_wrong_inequality_threshold",
    "bound_comparison_table",
]

DEFAULT_TOL = 1e-9

# Hard cap on directly summed terms; reached only for extreme (b - 1, lambda)
# combinations far outside the documented parameter ranges.
_MAX_DIRECT_TERMS = 1 << 26

# Terms per block of the direct sum: its two float64 buffers (256 KB) stay in cache.
_SUM_CHUNK = 1 << 14


@dataclass(frozen=True)
class EffDimResult:
    """Effective-dimension value with a truncation interval.

    N(lambda) lies in [value, value + truncation_error_bound] in exact
    arithmetic; float64 rounding can break that where the tail dominates
    (b near 1, ROADMAP item 2).  The width is clipped at 0 where it is formed.
    terms_summed counts the summed leading terms.
    """

    value: float
    truncation_error_bound: float
    terms_summed: int


@dataclass(frozen=True)
class BoundComparisonRow:
    """One ``bounds-figure`` CSV row: N(lambda) beside both closed-form bounds.

    exact is an ``EffDimResult`` value; its width and term count stay there.
    """

    lam: float
    exact: float
    corrected: float
    claimed: float


def _decay_fraction(beta: float, b: float, lam: float, m: np.ndarray) -> np.ndarray:
    """f(m) = beta / (beta + lambda * m**b), the one statement of f, formed in place over m.

    m is a float64 array; overflow of m**b yields f = 0 without a warning.
    """
    with np.errstate(over="ignore"):
        np.power(m, b, out=m)
        np.multiply(m, lam, out=m)
        np.add(m, beta, out=m)
        return np.divide(beta, m, out=m)


def _tail_integral(full: float, beta: float, b: float, lam: float, a: float) -> float:
    """int_a^inf beta/(beta + lambda x**b) dx from ``full``, the integral over [0, inf).

    Substituting t = beta/(beta + lambda x**b) makes the tail ``full`` times
    the regularized incomplete beta with parameters (1 - 1/b, 1/b).
    """
    z = b * math.log(a) + math.log(lam) - math.log(beta)
    t0 = math.exp(-z) if z > 700.0 else 1.0 / (1.0 + math.exp(z))
    return full * float(special.betainc(1.0 - 1.0 / b, 1.0 / b, t0))


def _partial_sum(beta: float, b: float, lam: float, n_terms: int) -> float:
    """sum_{m=1}^{n_terms} f(m) in blocks of _SUM_CHUNK terms, f from _decay_fraction.

    One index block and one work buffer are reused in place, so memory stays
    at two blocks however many terms are summed; math.fsum adds the block sums.
    A sum of at most _SUM_CHUNK terms is one block: np.sum of its terms.
    """
    index = np.arange(1.0, min(n_terms, _SUM_CHUNK) + 1.0)
    work = np.empty_like(index)
    sums = []
    for offset in range(0, n_terms, _SUM_CHUNK):
        m = work[: min(_SUM_CHUNK, n_terms - offset)]
        np.add(index[: m.size], offset, out=m)
        sums.append(float(np.sum(_decay_fraction(beta, b, lam, m))))
    return math.fsum(sums)


def effective_dimension_exact(
    spectrum: Spectrum, lam: float, tol: float = DEFAULT_TOL
) -> EffDimResult:
    """N(lambda) = sum_n t_n/(t_n + lambda) over the spectrum's infinite decay model.

    The cutoff n doubles from the convexity point up to ``_MAX_DIRECT_TERMS``;
    the first n whose tail enclosure is at most ``tol`` has its first n terms
    summed directly.  When no such n exists, RuntimeError is raised (see
    EffDimResult).
    """
    _checks.positive_finite("lambda", lam)
    _checks.positive("tol", tol)
    beta, b = spectrum.decay_model
    # Convexity threshold of x |-> beta/(beta + lambda x**b); the tail
    # enclosure is only valid past it.  An inflection past the cap (inf when
    # beta/lambda overflows) starts n past it: nothing is summed, and the full
    # integral, which can overflow there (b near 1), is not formed.
    inflection = ((b - 1.0) / (b + 1.0) * beta / lam) ** (1.0 / b)
    n, cutoffs = max(16, math.ceil(min(inflection, _MAX_DIRECT_TERMS + 1))), []
    while n <= _MAX_DIRECT_TERMS and n not in cutoffs:
        cutoffs.append(n)
        n = min(2 * n, _MAX_DIRECT_TERMS)
    full = corrected_bound(beta, b, lam) if cutoffs else math.inf
    # f(n+1) at every cutoff n, from one call of the kernel
    f_next = _decay_fraction(beta, b, lam, np.array(cutoffs, dtype=float) + 1.0).tolist()
    for n, f in zip(cutoffs, f_next):
        # f is convex on [n, inf): the trapezoid rule overestimates and the
        # midpoint rule underestimates its integrals, so
        #   int_{n+1}^inf f + f(n+1)/2  <=  sum_{m > n} f(m)  <=  int_{n+1/2}^inf f.
        lower = _tail_integral(full, beta, b, lam, n + 1.0) + 0.5 * f
        width = max(_tail_integral(full, beta, b, lam, n + 0.5) - lower, 0.0)
        if width <= tol:
            return EffDimResult(_partial_sum(beta, b, lam, n) + lower, width, n)
    raise RuntimeError(
        f"effective dimension for (beta={beta}, b={b}, lambda={lam}) "
        f"needs more than {_MAX_DIRECT_TERMS} direct terms for tol={tol}"
    )


def corrected_bound(beta: float, b: float, lam: float) -> float:
    """Upper bound Q * lambda**(-1/b) on N(lambda) for polynomial decay.

    Equals the full integral of beta/(beta + lambda x**b) over [0, inf),
    hence exceeds the eigenvalue sum by at most 1.  Finite b only; for
    b = inf the coefficient degenerates to beta with no lambda dependence.
    """
    _checks.decay_exponent(b, finite=True)
    _checks.positive_finite("lambda", lam)
    return q_constant(beta, b) * lam ** (-1.0 / b)


def claimed_bound(beta: float, b: float, lam: float) -> float:
    """Reference bound (beta * b/(b-1)) * lambda**(-1/b).

    Not a valid upper bound on N(lambda): it drops below the exact sum for
    every beta under ``wrong_inequality_threshold(b)``.  Provided solely for
    comparison tables and plots.
    """
    _checks.decay_model(beta, b)
    _checks.positive_finite("lambda", lam)
    return beta * b / (b - 1.0) * lam ** (-1.0 / b)


def integral_value(beta: float, b: float) -> float:
    """Closed form Q(beta, b) / beta of int_0^inf dt/(beta + t**b)."""
    _checks.decay_exponent(b, finite=True)
    return q_constant(beta, b) / beta


def wrong_inequality_gap(beta: float, b: float) -> float:
    """integral_value(beta, b) - b/(b-1); positive means b/(b-1) is not an upper bound."""
    return integral_value(beta, b) - b / (b - 1.0)


def wrong_inequality_threshold(b: float) -> float:
    """The beta at which the gap changes sign, in closed form.

    Below ((b-1)/b * Q(1, b))**(b/(b-1)) the integral exceeds b/(b-1);
    the gap tends to +inf as beta -> 0.
    """
    _checks.decay_exponent(b, finite=True)
    return ((b - 1.0) / b * q_constant(1.0, b)) ** (b / (b - 1.0))


def find_wrong_inequality_threshold(b: float) -> float:
    """Sign-change beta located by bisection on the gap, independent of the closed form.

    The gap decreases in beta.  Bisection runs until the midpoint of the
    bracket equals one of its ends, i.e. the ends are adjacent floats.
    """
    lo, hi = 1e-8, 1e8
    if not (wrong_inequality_gap(lo, b) > 0 > wrong_inequality_gap(hi, b)):
        raise RuntimeError(f"bisection bracket failed for b={b}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if wrong_inequality_gap(mid, b) > 0:
            lo = mid
        else:
            hi = mid


def bound_comparison_table(
    beta: float,
    b: float,
    lambda_grid,
    tol: float = DEFAULT_TOL,
) -> list[BoundComparisonRow]:
    """One (lambda, exact, corrected, claimed) row per grid value, exact at ``tol``.

    A caller that needs N(lambda)'s enclosure calls ``effective_dimension_exact``.
    """
    lams = _checks.lambda_grid(lambda_grid)
    spectrum = polynomial_spectrum(beta, b)
    return [
        BoundComparisonRow(
            lam=lam,
            exact=effective_dimension_exact(spectrum, lam, tol).value,
            corrected=corrected_bound(beta, b, lam),
            claimed=claimed_bound(beta, b, lam),
        )
        for lam in lams
    ]
