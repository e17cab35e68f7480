"""Eigenvalue spectra of kernel integral operators and the constant Q.

The operators of interest have polynomially decaying eigenvalues
t_n = beta * n**-b with b > 1 (so the trace is finite).  Q is the
coefficient of the effective-dimension bound N(lambda) <= Q * lambda**(-1/b):

    Q = beta**(1/b) * (pi/b) / sin(pi/b)   for finite b,
    Q = beta                               for b = inf.

The two cases do not join continuously: the finite-b expression tends to 1
as b grows, regardless of beta.  b = inf therefore has to be requested
explicitly (``math.inf``), never approximated by a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _checks

__all__ = ["PriorParams", "Spectrum", "polynomial_spectrum", "q_constant"]


@dataclass(frozen=True)
class Spectrum:
    """The decay model t_n = beta * n**-b of an operator's eigenvalues.

    ``decay_model`` is the ``(beta, b)`` pair that ``_checks.decay_model``
    checks; no eigenvalue is stored.  N(lambda) treats the tail analytically.
    """

    decay_model: tuple[float, float]

    def __post_init__(self) -> None:
        _checks.decay_model(*self.decay_model)


@dataclass(frozen=True)
class PriorParams:
    """Finite parameters of the distribution family the risk bound quantifies over.

    b, beta    spectral decay t_n <= beta * n**-b (capacity); b = math.inf, the
               one infinite value allowed, selects the flat-spectrum Q = beta
    c, R       source condition of degree c in [1, 2] with radius R
    alpha      lower bound on the operator norm of T (used as the testable
               surrogate for the condition lambda <= ||T||)
    kappa      kernel sup bound, k(x, x) <= kappa**2
    M, Sigma   noise bounds: |y - f(x)| <= M almost surely, variance proxy
               Sigma**2
    """

    b: float
    c: float
    beta: float
    alpha: float
    R: float
    kappa: float
    M: float
    Sigma: float

    def __post_init__(self) -> None:
        _checks.decay_model(self.beta, self.b, finite=False)
        _checks.source_degree(self.c)
        for name in ("alpha", "R", "kappa", "M", "Sigma"):
            _checks.positive_finite(name, getattr(self, name))


def polynomial_spectrum(beta: float, b: float) -> Spectrum:
    """The decay model t_n = beta * n**-b."""
    return Spectrum((float(beta), float(b)))


def q_constant(beta: float, b: float) -> float:
    """Coefficient Q of the effective-dimension bound Q * lambda**(-1/b).

    Finite b uses beta**(1/b) * (pi/b) / sin(pi/b); b = math.inf returns
    beta itself (the bound exponent degenerates to lambda**0).  Q is about
    beta**(1/b) / (b - 1) as b -> 1, so large beta with b near 1 overflows
    it to inf: ``q_constant(1e300, 1 + 1e-12)``.  There ``risk-bound`` exits 1
    naming term_effdim, ``schedule`` prints ``ell_eta = inf``, and ``effdim``
    stops at the direct-term cap with exit 1.
    """
    _checks.decay_model(beta, b, finite=False)
    if math.isinf(b):
        return float(beta)
    return beta ** (1.0 / b) * (math.pi / b) / math.sin(math.pi / b)
