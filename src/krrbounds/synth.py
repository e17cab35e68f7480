"""A concrete distribution with known spectrum, source degree, and noise bounds.

The kernel lives on [0, 1] with uniform inputs and the cosine basis
phi_n(x) = sqrt(2) cos(n pi x), which is orthonormal in L2(uniform).  Gram
spectra therefore converge to exactly mu_n = beta * n**-b, the target's
source condition holds with equality by construction, and uniform noise on
[-sigma*sqrt(3), sigma*sqrt(3)] has variance sigma**2 and hard bound
M = sigma*sqrt(3).  Excess risk against this model is computable exactly
(no Monte Carlo) from the basis coefficients of the fitted function.

Nothing forces this particular construction; it is one convenient member of
the family, chosen to make every assumption verifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _checks
from .spectral import polynomial_spectrum

__all__ = [
    "SpectralKernelModel",
    "Dataset",
    "build_model",
    "make_target",
    "sample_dataset",
    "source_condition_value",
    "exact_excess_risk",
]

DEFAULT_TAIL_MARGIN = 0.1


@dataclass(frozen=True)
class SpectralKernelModel:
    """Mercer kernel k(x, y) = sum_{n<=N} mu_n phi_n(x) phi_n(y) on [0, 1].

    mu_n = beta * n**-b; kappa is the N-independent diagonal bound
    sqrt(2 beta zeta(b)) >= sqrt(k(x, x)).
    """

    beta: float
    b: float
    n_modes: int
    eigenvalues: np.ndarray
    kappa: float

    def basis(self, xs) -> np.ndarray:
        """Matrix phi_n(x_i) of shape (len(xs), n_modes)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        n = np.arange(1, self.n_modes + 1, dtype=float)
        return math.sqrt(2.0) * np.cos(math.pi * np.outer(xs, n))


@dataclass(frozen=True)
class Dataset:
    """Inputs, their basis matrix and noisy outputs.

    ``features`` is the model's basis evaluated at the inputs,
    phi_n(x_i) of shape (len(xs), n_modes), from which ``ys`` was formed;
    a fit reads it instead of evaluating the basis again.  All three arrays
    are read-only.
    """

    xs: np.ndarray
    features: np.ndarray
    ys: np.ndarray


def build_model(beta: float, b: float, n_modes: int) -> SpectralKernelModel:
    """Spectral model with eigenvalues beta * n**-b for n = 1..n_modes."""
    _checks.at_least_one("n_modes", n_modes)
    eigenvalues = polynomial_spectrum(beta, b, n_modes).eigenvalues
    kappa = math.sqrt(2.0 * beta * float(special.zeta(b)))
    return SpectralKernelModel(
        beta=float(beta), b=float(b), n_modes=int(n_modes),
        eigenvalues=eigenvalues, kappa=kappa,
    )


def make_target(
    model: SpectralKernelModel,
    c: float,
    R: float,
    delta: float = DEFAULT_TAIL_MARGIN,
    seed: int = 0,
) -> np.ndarray:
    """Read-only target coefficients theta_n = s mu_n^{c/2} n^{-(1+delta)/2} sgn_n.

    Their source norm sum_n theta_n**2 * mu_n**-c is exactly R (see
    ``source_condition_value``).  The normalizer s spreads radius R over the
    convergent series sum n**-(1+delta); any delta > 0 works, small delta
    sits close to the class boundary.  Random signs (from ``seed``) keep the
    target from aligning with a single mode.
    """
    _checks.source_degree(c)
    _checks.positive("R", R)
    _checks.positive("delta", delta)
    n = np.arange(1, model.n_modes + 1, dtype=float)
    tail_weights = n ** -(1.0 + delta)
    scale = math.sqrt(R / float(np.sum(tail_weights)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    signs = rng.integers(0, 2, size=model.n_modes) * 2 - 1
    theta = scale * model.eigenvalues ** (c / 2.0) * np.sqrt(tail_weights) * signs
    theta.setflags(write=False)
    return theta


def source_condition_value(model: SpectralKernelModel, theta: np.ndarray, c: float) -> float:
    """sum_n theta_n**2 * mu_n**-c, to compare against the radius R."""
    _check_same_modes(model, theta)
    return float(np.sum(theta**2 * model.eigenvalues**-c))


def sample_dataset(
    model: SpectralKernelModel,
    theta: np.ndarray,
    sigma: float,
    ell: int,
    seed: int,
) -> Dataset:
    """ell i.i.d. pairs: x uniform on [0, 1], y = Phi(x) theta + uniform noise.

    Noise is uniform on [-sigma*sqrt(3), sigma*sqrt(3)]: variance sigma**2,
    hard bound M = sigma*sqrt(3).  The counter-based generator makes draws
    for distinct seeds independent and reproducible in any order.
    """
    _check_same_modes(model, theta)
    _checks.noise_scale(sigma)
    _checks.at_least_one("ell", ell)
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = rng.uniform(0.0, 1.0, size=ell)
    bound = sigma * math.sqrt(3.0)
    noise = rng.uniform(-bound, bound, size=ell)
    features = model.basis(xs)
    ys = features @ theta + noise
    for array in (xs, features, ys):
        array.setflags(write=False)
    return Dataset(xs=xs, features=features, ys=ys)


def exact_excess_risk(theta: np.ndarray, coefficients) -> float:
    """sum_n (c_n - theta_n)**2 for a function with basis coefficients c.

    By orthonormality of the basis this is the squared L2(uniform) distance
    to the target, exact up to the model's own truncation.  A ridge fit with
    dual weights alpha on inputs xs has c_n = mu_n sum_i alpha_i phi_n(x_i),
    which ``krr.krr_fit_factored`` returns directly.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != theta.shape:
        raise ValueError(
            f"basis coefficients have shape {coefficients.shape}, "
            f"target has {theta.shape[0]} coefficients"
        )
    return float(np.sum((coefficients - theta) ** 2))


def _check_same_modes(model: SpectralKernelModel, theta: np.ndarray) -> None:
    if theta.shape[0] != model.n_modes:
        raise ValueError(
            f"target has {theta.shape[0]} coefficients, "
            f"model has {model.n_modes} modes"
        )
