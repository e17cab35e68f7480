"""Kernel ridge regression on finite samples.

The regularized system is (K + ell * lambda * I) alpha = y, matching the
operator normalization T ~ K/ell under which the effective dimension keeps
its meaning; the lambda here is the same lambda the risk bound speaks about.

``krr_fit`` and ``empirical_effective_dimension_profile`` take any symmetric
PSD kernel matrix K.  The other functions take a factored kernel as its
ell x m feature matrix Phi, evaluated once by the caller, and its m weights
W: K = A A^T with A = Phi W^(1/2).  K has rank at most m, and K and the
m x m matrix A^T A share their nonzero eigenvalues and their trace, so the
ridge fit is solved on whichever of the two is smaller, and the empirical
effective dimension is read from the eigenvalues of A^T A.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import linalg

from . import _checks

__all__ = [
    "gram_matrix",
    "krr_fit",
    "krr_fit_factored",
    "empirical_effective_dimension_profile",
    "empirical_effective_dimension_factored",
]

logger = logging.getLogger(__name__)

_RESIDUAL_RTOL = 1e-8


def gram_matrix(features, weights) -> np.ndarray:
    """K[i, j] = sum_m w_m phi_m(x_i) phi_m(x_j), exactly symmetric.

    K = A A^T is one product of A with its own transpose, which numpy hands
    to BLAS syrk: one triangle is computed and copied into the other, so K
    equals K^T bit for bit.
    """
    features, weights = _factors(features, weights)
    scaled = features * np.sqrt(weights)
    return scaled @ scaled.T


def krr_fit(K: np.ndarray, y, lam: float) -> np.ndarray:
    """Solve (K + ell * lambda * I) alpha = y by Cholesky factorization.

    K must be symmetric PSD and lambda positive, which makes the shifted
    matrix positive definite.  If the factorization still fails, a jitter of
    1e-12 * trace(K)/ell is added once and the event logged; silent jitter
    would change the meaning of lambda.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    ell = K.shape[0]
    _check_targets(y, ell, lam)
    if not np.abs(K - K.T).max() <= 1e-12 * max(1.0, float(np.abs(K).max())):
        raise ValueError("K must be symmetric")
    return _ridge_cholesky_solve(K, y, ell, lam)


def krr_fit_factored(features, weights, y, lam: float) -> np.ndarray:
    """Fitted basis coefficients c = W Phi^T alpha of the ridge fit on (Phi, y).

    alpha solves (K + ell * lambda * I) alpha = y for the factored kernel
    K = A A^T, A = Phi W^(1/2), and c holds the fitted function's weights on
    the features.  For ell > m the m x m primal system
    (A^T A + ell * lambda * I) z = A^T y is solved and c = W^(1/2) z, by the
    push-through identity A^T (A A^T + s I)^-1 = (A^T A + s I)^-1 A^T;
    otherwise the dual system goes through ``gram_matrix`` and ``krr_fit``.
    Both use the same Cholesky solve, jitter retry and residual check.
    """
    features, weights = _factors(features, weights)
    y = np.asarray(y, dtype=float)
    ell, n_features = features.shape
    _check_targets(y, ell, lam)
    if ell > n_features:
        sqrt_weights = np.sqrt(weights)
        scaled = features * sqrt_weights
        z = _ridge_cholesky_solve(scaled.T @ scaled, scaled.T @ y, ell, lam)
        return sqrt_weights * z
    alpha = krr_fit(gram_matrix(features, weights), y, lam)
    return weights * (features.T @ alpha)


def empirical_effective_dimension_profile(K: np.ndarray, lambdas) -> np.ndarray:
    """Empirical effective dimension over a lambda grid, one eigensolve total.

    Eigenvalues of K/ell below zero (roundoff) are clipped; each value lies
    in [0, ell).
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    lams = _checks.lambda_grid(lambdas)
    return _effdim_from_eigenvalues(np.linalg.eigvalsh(K), K.shape[0], lams)


def empirical_effective_dimension_factored(features, weights, lambdas) -> np.ndarray:
    """``empirical_effective_dimension_profile`` of the Gram matrix Phi W Phi^T.

    The eigensolve runs on the m x m matrix A^T A, which has the nonzero
    eigenvalues of K = A A^T; the remaining eigenvalues of either are zero
    and add nothing to the sum.
    """
    features, weights = _factors(features, weights)
    lams = _checks.lambda_grid(lambdas)
    scaled = features * np.sqrt(weights)
    return _effdim_from_eigenvalues(np.linalg.eigvalsh(scaled.T @ scaled), len(features), lams)


def _effdim_from_eigenvalues(eigenvalues: np.ndarray, ell: int, lams: list[float]) -> np.ndarray:
    mu = np.clip(eigenvalues / ell, 0.0, None)
    return np.array([float(np.sum(mu / (mu + lam))) for lam in lams])


def _factors(features, weights) -> tuple[np.ndarray, np.ndarray]:
    """Phi and W as float arrays: Phi 2-d with at least one row, one weight per column."""
    features = np.asarray(features, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if features.ndim != 2 or len(features) == 0 or weights.shape != features.shape[1:]:
        raise ValueError(
            "features must be a 2-d array with at least one row and one weight per "
            f"column, got features {features.shape} and weights {weights.shape}"
        )
    return features, weights


def _check_targets(y: np.ndarray, ell: int, lam: float) -> None:
    if y.shape != (ell,):
        raise ValueError(f"y must have shape ({ell},), got {y.shape}")
    _checks.positive("lambda", lam)


def _ridge_cholesky_solve(gram: np.ndarray, rhs: np.ndarray, ell: int, lam: float) -> np.ndarray:
    """Solve (gram + ell * lambda * I) x = rhs; gram is K or A^T A.

    Both have trace(K), so the one logged jitter retry adds the same
    1e-12 * trace(K)/ell on either side.  The residual is checked against
    ||rhs||; a bound that is not finite, or a residual that is NaN, fails it.
    """
    size = gram.shape[0]
    shifted = gram + ell * lam * np.eye(size)
    try:
        solution = linalg.cho_solve(linalg.cho_factor(shifted, lower=True), rhs)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.trace(gram)) / ell
        logger.warning(
            "Cholesky factorization failed; retrying with jitter %.3e on the diagonal",
            jitter,
        )
        solution = linalg.cho_solve(
            linalg.cho_factor(shifted + jitter * np.eye(size), lower=True), rhs
        )

    residual = float(np.linalg.norm(shifted @ solution - rhs))
    bound = _RESIDUAL_RTOL * float(np.linalg.norm(rhs))
    if not (math.isfinite(bound) and residual <= bound):
        raise RuntimeError(
            f"ridge solve residual {residual:.3e} is not within "
            f"{_RESIDUAL_RTOL:.0e} * ||rhs|| = {bound:.3e}; system too ill-conditioned"
        )
    return solution
