import logging

import numpy as np
import pytest
from scipy import linalg

from krrbounds.krr import (
    empirical_effective_dimension_factored,
    empirical_effective_dimension_profile,
    gram_matrix,
    krr_fit,
    krr_fit_factored,
)
from krrbounds.synth import (
    build_model,
    exact_excess_risk,
    make_target,
    sample_dataset,
)


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    k = a @ a.T * scale / n
    return (k + k.T) / 2


N_MODES = 32


def factored_problem(b, ell, sigma=0.1):
    model = build_model(1.0, b, N_MODES)
    target = make_target(model, 1.5, R=1.0, seed=4)
    data = sample_dataset(model, target, sigma=sigma, ell=ell, seed=ell)
    return model, target, data


def empirical_effective_dimension(k, lam):
    return float(empirical_effective_dimension_profile(k, [lam])[0])


class TestGramMatrix:
    def test_constant_kernel(self):
        # one constant feature: k(x, y) = 1
        k = gram_matrix(np.ones((2, 1)), [1.0])
        np.testing.assert_array_equal(k, [[1.0, 1.0], [1.0, 1.0]])

    def test_product_kernel(self):
        # phi(x) = x: k(x, y) = x y
        k = gram_matrix([[1.0], [2.0]], [1.0])
        np.testing.assert_array_equal(k, [[1.0, 2.0], [2.0, 4.0]])

    def test_matches_pointwise_sum(self):
        # K[i, j] = sum_m mu_m phi_m(x_i) phi_m(x_j), summed term by term
        model = build_model(1.0, 2.0, 16)
        phi = model.basis(np.random.default_rng(2).uniform(size=7))
        expected = np.einsum("im,m,jm->ij", phi, model.eigenvalues, phi)
        np.testing.assert_allclose(
            gram_matrix(phi, model.eigenvalues), expected, rtol=1e-12, atol=1e-14
        )

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        k = gram_matrix(rng.normal(size=(40, 9)), rng.uniform(size=9))
        assert np.array_equal(k, k.T)

    def test_single_point(self):
        np.testing.assert_array_equal(gram_matrix([[3.0, 1.0]], [1.0, 4.0]), [[13.0]])

    def test_precomputed_features_match(self):
        # a dataset's features give the Gram matrix of its inputs, bit for bit
        model, _, data = factored_problem(2.0, 20)
        np.testing.assert_array_equal(
            gram_matrix(data.features, model.eigenvalues),
            gram_matrix(model.basis(data.xs), model.eigenvalues),
        )


FEATURES = np.ones((4, 3))
SHAPE_MISMATCHES = {
    "one weight short": (FEATURES, np.ones(2)),
    "weights as a matrix": (FEATURES, np.ones((3, 1))),
    "features 1-d": (np.ones(4), np.ones(4)),
    "features 3-d": (np.ones((4, 3, 1)), np.ones(3)),
    "no rows": (np.ones((0, 3)), np.ones(3)),
}
FACTORED_CALLS = {
    "gram_matrix": lambda phi, w: gram_matrix(phi, w),
    "krr_fit_factored": lambda phi, w: krr_fit_factored(phi, w, np.ones(4), 0.1),
    "empirical_effective_dimension_factored": (
        lambda phi, w: empirical_effective_dimension_factored(phi, w, [0.1])),
}


@pytest.mark.parametrize("call", FACTORED_CALLS.values(), ids=FACTORED_CALLS.keys())
@pytest.mark.parametrize(
    "features, weights", SHAPE_MISMATCHES.values(), ids=SHAPE_MISMATCHES.keys()
)
def test_factored_functions_reject_wrong_shapes(call, features, weights):
    with pytest.raises(ValueError, match="features must be a 2-d array"):
        call(features, weights)


class TestKrrFit:
    def test_identity_gram(self):
        # (K + ell*lam*I) = 2I for ell=2, lam=0.5
        alpha = krr_fit(np.eye(2), np.array([1.0, 1.0]), 0.5)
        np.testing.assert_allclose(alpha, [0.5, 0.5], rtol=1e-14)

    def test_zero_gram(self):
        y = np.array([3.0, -1.0, 2.0])
        alpha = krr_fit(np.zeros((3, 3)), y, 1.0)
        np.testing.assert_allclose(alpha, y / 3.0, rtol=1e-14)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(123)
        k = random_psd(rng, 5)
        y = rng.normal(size=5)
        lam = 0.2
        alpha = krr_fit(k, y, lam)
        oracle = np.linalg.inv(k + 5 * lam * np.eye(5)) @ y
        np.testing.assert_allclose(alpha, oracle, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        k = random_psd(rng, 8)
        y = rng.normal(size=8)
        perm = rng.permutation(8)
        alpha = krr_fit(k, y, 0.1)
        alpha_perm = krr_fit(k[np.ix_(perm, perm)], y[perm], 0.1)
        np.testing.assert_allclose(alpha_perm, alpha[perm], atol=1e-8)

    def test_interpolation_limit(self):
        # well-conditioned strictly PD instance: predictions approach y as lam -> 0
        rng = np.random.default_rng(5)
        xs = np.linspace(0.0, 1.0, 12) + rng.uniform(-0.01, 0.01, 12)
        k = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / 0.5) + 0.01 * np.eye(12)
        y = np.sin(3 * xs)
        alpha = krr_fit(k, y, 1e-12)
        np.testing.assert_allclose(k @ alpha, y, atol=1e-4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unevaluable_residual_raises(self):
        # K @ alpha overflows, so the residual is NaN and cannot be compared
        k = [[1e308, 0.999e308], [0.999e308, 1e308]]
        with pytest.raises(RuntimeError, match="residual"):
            krr_fit(k, [1e306, -1e306], 1e-300)

    def test_large_accurate_solve_passes_residual_check(self):
        # squaring 1e160 overflows, so an unscaled ||rhs|| would read inf
        alpha = krr_fit(np.diag([1e160, 1e160]), [1e160, 1e160], 1e-300)
        np.testing.assert_allclose(alpha, [1.0, 1.0], rtol=1e-15)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            krr_fit(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]), 0.1)

    def test_rejects_nan_gram(self):
        with pytest.raises(ValueError, match="symmetric"):
            krr_fit(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([1.0, 1.0]), 0.1)


class TestKrrFitFactored:
    """Ridge fit in the smaller of the dual (ell) and primal (n_modes) spaces."""

    @pytest.mark.parametrize("b", [1.5, 2.0])
    @pytest.mark.parametrize("ell", [N_MODES // 2, N_MODES, 4 * N_MODES])
    def test_risk_matches_dual_gram_path(self, b, ell):
        model, target, data = factored_problem(b, ell)
        lam = 0.01
        alpha = krr_fit(gram_matrix(model.basis(data.xs), model.eigenvalues), data.ys, lam)
        dual_coefficients = model.eigenvalues * (model.basis(data.xs).T @ alpha)
        expected = exact_excess_risk(target, dual_coefficients)
        coefficients = krr_fit_factored(data.features, model.eigenvalues, data.ys, lam)
        assert exact_excess_risk(target, coefficients) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ell", [N_MODES // 2, N_MODES, 4 * N_MODES])
    def test_gram_products_exactly_symmetric(self, ell, monkeypatch):
        # neither Gram product is mirrored; BLAS must return it symmetric
        model, _, data = factored_problem(2.0, ell)
        k = gram_matrix(data.features, model.eigenvalues)
        assert np.array_equal(k, k.T)
        factored = []
        original = linalg.cho_factor

        def capture(*args, **kwargs):
            factored.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "cho_factor", capture)
        krr_fit_factored(data.features, model.eigenvalues, data.ys, 0.01)
        (shifted,) = factored
        assert shifted.shape == (min(ell, N_MODES),) * 2
        assert np.array_equal(shifted, shifted.T)

    @pytest.mark.parametrize("ell", [N_MODES // 2, 4 * N_MODES])
    def test_jitter_retry_is_logged(self, ell, monkeypatch, caplog):
        model, _, data = factored_problem(2.0, ell)
        expected = krr_fit_factored(data.features, model.eigenvalues, data.ys, 0.01)
        calls = []
        original = linalg.cho_factor

        def fail_once(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "cho_factor", fail_once)
        with caplog.at_level(logging.WARNING, logger="krrbounds.krr"):
            got = krr_fit_factored(data.features, model.eigenvalues, data.ys, 0.01)
        assert "jitter" in caplog.text
        assert calls == [(min(ell, N_MODES),) * 2] * 2
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("ell", [N_MODES // 2, 4 * N_MODES])
    def test_failed_residual_check_raises(self, ell, monkeypatch):
        model, _, data = factored_problem(2.0, ell)
        original = linalg.cho_solve
        monkeypatch.setattr(linalg, "cho_solve", lambda *a, **k: 2.0 * original(*a, **k))
        with pytest.raises(RuntimeError, match="residual"):
            krr_fit_factored(data.features, model.eigenvalues, data.ys, 0.01)


class TestEmpiricalEffectiveDimension:
    def test_identity_gram(self):
        # eigenvalues of K/ell are all 1/4; 4 * (0.25/(0.25+0.25)) = 2
        assert empirical_effective_dimension(np.eye(4), 0.25) == pytest.approx(2.0, rel=1e-12)

    def test_zero_gram(self):
        assert empirical_effective_dimension(np.zeros((3, 3)), 0.5) == 0.0

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(21)
        k = random_psd(rng, 30, scale=4.0)
        lam = 0.05
        mu = np.linalg.eigvalsh(k / 30)
        oracle = float(np.sum(mu / (mu + lam)))
        assert empirical_effective_dimension(k, lam) == pytest.approx(oracle, abs=1e-9)

    def test_nonincreasing_in_lambda_and_range(self):
        rng = np.random.default_rng(3)
        k = random_psd(rng, 25)
        lams = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        values = empirical_effective_dimension_profile(k, lams)
        assert np.all(np.diff(values) <= 0)
        assert np.all(values >= 0)
        assert np.all(values < 25)

    @pytest.mark.parametrize("ell", [N_MODES // 2, N_MODES, 4 * N_MODES])
    def test_factored_matches_gram_eigensolve(self, ell):
        model, _, data = factored_problem(2.0, ell)
        lams = [1e-4, 1e-2, 1.0]
        gram = gram_matrix(model.basis(data.xs), model.eigenvalues)
        expected = empirical_effective_dimension_profile(gram, lams)
        got = empirical_effective_dimension_factored(data.features, model.eigenvalues, lams)
        np.testing.assert_allclose(got, expected, rtol=1e-10)
