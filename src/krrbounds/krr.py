"""Kernel ridge regression on finite samples.

The regularized system is (K + ell * lambda * I) alpha = y, matching the
operator normalization T ~ K/ell under which the effective dimension keeps
its meaning; the lambda here is the same lambda the risk bound speaks about.

A factored kernel K = A A^T, with A = Phi W^(1/2) for the ell x m feature
matrix Phi and weights W, has rank at most m.  K and the m x m matrix A^T A
share their nonzero eigenvalues and their trace, so the ridge fit is solved
on whichever of the two is smaller, and the empirical effective dimension is
read from the eigenvalues of A^T A.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import linalg

from . import _checks

__all__ = [
    "KernelFn",
    "gram_matrix",
    "krr_fit",
    "krr_fit_factored",
    "krr_predict",
    "empirical_effective_dimension",
    "empirical_effective_dimension_profile",
    "empirical_effective_dimension_factored",
]

logger = logging.getLogger(__name__)

_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class KernelFn:
    """A symmetric PSD kernel.

    ``fn`` evaluates k(x, y) elementwise over broadcastable arrays.
    ``factored``, when present, is a (feature_map, weights) pair with
    k(x, y) = sum_m w_m phi_m(x) phi_m(y); Gram assembly then runs through
    one BLAS product instead of the elementwise path, and ``fn`` may be
    left out: it is then built from the factored form.
    """

    fn: Callable | None = None
    factored: tuple[Callable, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.fn is None:
            if self.factored is None:
                raise ValueError("kernel needs fn or a factored form (feature_map, weights)")
            object.__setattr__(self, "fn", _factored_pointwise(*self.factored))

    def __call__(self, x, y):
        return self.fn(x, y)


def gram_matrix(kernel: KernelFn, xs, features=None) -> np.ndarray:
    """K[i, j] = k(x_i, x_j), exactly symmetric.

    A factored kernel's K = A A^T is one product of A with its own
    transpose, which numpy hands to BLAS syrk: one triangle is computed and
    copied into the other, so K equals K^T bit for bit.  A pointwise ``fn``
    may round k(x_i, x_j) and k(x_j, x_i) differently, so its upper triangle
    is mirrored.

    For a factored kernel, ``features`` may carry feature_map(xs) when the
    caller has evaluated it already; it is then not evaluated again.
    """
    xs = _as_inputs(xs)
    if kernel.factored is not None:
        feature_map, weights = kernel.factored
        if features is None:
            features = feature_map(xs)
        scaled = features * np.sqrt(weights)
        return scaled @ scaled.T
    if features is not None:
        raise ValueError("features can only be given for a factored kernel")
    k = np.asarray(kernel.fn(xs[:, None], xs[None, :]), dtype=float)
    return np.triu(k) + np.triu(k, 1).T


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


def krr_fit_factored(kernel: KernelFn, xs, y, lam: float) -> np.ndarray:
    """Fitted basis coefficients c = W Phi^T alpha of the ridge fit on (xs, y).

    alpha solves (K + ell * lambda * I) alpha = y for the factored kernel
    K = A A^T, A = Phi W^(1/2), and c holds the fitted function's weights on
    the features.  The feature map is evaluated once.  For ell > m the
    m x m primal system (A^T A + ell * lambda * I) z = A^T y is solved and
    c = W^(1/2) z, by the push-through identity
    A^T (A A^T + s I)^-1 = (A^T A + s I)^-1 A^T; otherwise the dual system
    goes through ``gram_matrix`` and ``krr_fit``.  Both use the same
    Cholesky solve, jitter retry and residual check.
    """
    xs, features, weights = _evaluate_features(kernel, xs)
    y = np.asarray(y, dtype=float)
    ell, n_features = features.shape
    _check_targets(y, ell, lam)
    if ell > n_features:
        sqrt_weights = np.sqrt(weights)
        scaled = features * sqrt_weights
        z = _ridge_cholesky_solve(scaled.T @ scaled, scaled.T @ y, ell, lam)
        return sqrt_weights * z
    alpha = krr_fit(gram_matrix(kernel, xs, features=features), y, lam)
    return weights * (features.T @ alpha)


def krr_predict(kernel: KernelFn, xs, alpha, x):
    """sum_i alpha_i k(x_i, x); vectorized over query points."""
    xs = np.asarray(xs, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if xs.shape != alpha.shape:
        raise ValueError("xs and alpha must have matching shapes")
    query = np.asarray(x, dtype=float)
    scalar = query.ndim == 0
    q = np.atleast_1d(query)
    if kernel.factored is not None:
        feature_map, weights = kernel.factored
        coef = weights * (feature_map(xs).T @ alpha)
        values = feature_map(q) @ coef
    else:
        values = np.asarray(kernel.fn(xs[:, None], q[None, :]), dtype=float).T @ alpha
    return float(values[0]) if scalar else values


def empirical_effective_dimension(K: np.ndarray, lam: float) -> float:
    """Tr[(K/ell) ((K/ell) + lambda I)^{-1}] via eigendecomposition of K/ell."""
    return float(empirical_effective_dimension_profile(K, [lam])[0])


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


def empirical_effective_dimension_factored(kernel: KernelFn, xs, lambdas) -> np.ndarray:
    """``empirical_effective_dimension_profile`` of the Gram matrix at xs.

    The eigensolve runs on the m x m matrix A^T A, which has the nonzero
    eigenvalues of K = A A^T; the remaining eigenvalues of either are zero
    and add nothing to the sum.  The feature map is evaluated once.
    """
    _, features, weights = _evaluate_features(kernel, xs)
    lams = _checks.lambda_grid(lambdas)
    scaled = features * np.sqrt(weights)
    return _effdim_from_eigenvalues(np.linalg.eigvalsh(scaled.T @ scaled), len(features), lams)


def _effdim_from_eigenvalues(eigenvalues: np.ndarray, ell: int, lams: list[float]) -> np.ndarray:
    mu = np.clip(eigenvalues / ell, 0.0, None)
    return np.array([float(np.sum(mu / (mu + lam))) for lam in lams])


def _as_inputs(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a nonempty 1-d array of inputs")
    return xs


def _evaluate_features(kernel: KernelFn, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, feature_map(xs), weights) of a factored kernel."""
    if kernel.factored is None:
        raise ValueError("kernel has no factored form (feature_map, weights)")
    xs = _as_inputs(xs)
    feature_map, weights = kernel.factored
    return xs, feature_map(xs), weights


def _factored_pointwise(feature_map: Callable, weights: np.ndarray) -> Callable:
    """k(x, y) = sum_m w_m phi_m(x) phi_m(y), elementwise over broadcastable x and y."""

    def fn(x, y):
        bx, by = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        values = np.einsum("im,m,im->i", feature_map(bx.ravel()), weights, feature_map(by.ravel()))
        return values.reshape(bx.shape) if bx.shape else float(values[0])

    return fn


def _check_targets(y: np.ndarray, ell: int, lam: float) -> None:
    if y.shape != (ell,):
        raise ValueError(f"y must have shape ({ell},), got {y.shape}")
    _checks.positive("lambda", lam)


def _ridge_cholesky_solve(gram: np.ndarray, rhs: np.ndarray, ell: int, lam: float) -> np.ndarray:
    """Solve (gram + ell * lambda * I) x = rhs; gram is K or A^T A.

    Both have trace(K), so the one logged jitter retry adds the same
    1e-12 * trace(K)/ell on either side.  The residual is checked against
    ||rhs||.
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
    if residual > _RESIDUAL_RTOL * float(np.linalg.norm(rhs)):
        raise RuntimeError(
            f"ridge solve residual {residual:.3e} exceeds "
            f"{_RESIDUAL_RTOL:.0e} * ||rhs||; system too ill-conditioned"
        )
    return solution
