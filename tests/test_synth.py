import math

import numpy as np
import pytest
from scipy import integrate

from krrbounds.krr import gram_matrix, krr_fit
from krrbounds.synth import (
    build_model,
    exact_excess_risk,
    make_target,
    sample_dataset,
    source_condition_value,
)


@pytest.fixture(scope="module")
def model():
    return build_model(1.0, 2.0, 64)


def pointwise_kernel(m, x, y):
    """k(x_i, y_i) = sum_n mu_n phi_n(x_i) phi_n(y_i), elementwise."""
    return (m.basis(x) * m.basis(y)) @ m.eigenvalues


class TestBuildModel:
    def test_single_mode_kernel(self):
        m = build_model(1.0, 2.0, 1)
        assert pointwise_kernel(m, 0.0, 0.0)[0] == pytest.approx(2.0, rel=1e-14)
        # k(x, y) = 2 cos(pi x) cos(pi y)
        assert pointwise_kernel(m, 0.25, 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_kappa_is_zeta_bound(self):
        m = build_model(1.0, 2.0, 512)
        assert m.kappa**2 == pytest.approx(math.pi**2 / 3, rel=1e-12)
        xs = np.linspace(0.0, 1.0, 101)
        diag = (m.basis(xs) ** 2) @ m.eigenvalues
        assert np.all(diag <= m.kappa**2 + 1e-12)

    def test_eigenvalues_are_the_polynomial_spectrum(self):
        m = build_model(0.3, 1.7, 40)
        n = np.arange(1, 41, dtype=float)
        assert np.array_equal(m.eigenvalues, 0.3 * n**-1.7)
        with pytest.raises(ValueError, match="read-only"):
            m.eigenvalues[0] = 0.0

    def test_gram_is_psd(self, model):
        rng = np.random.default_rng(17)
        k = gram_matrix(model.basis(rng.uniform(size=60)), model.eigenvalues)
        eig = np.linalg.eigvalsh(k)
        assert eig.min() >= -1e-8 * np.trace(k)

    def test_basis_orthonormal_under_quadrature(self, model):
        # exact inner products <phi_m, phi_n> over the uniform distribution
        for m_idx, n_idx in [(1, 1), (1, 2), (3, 3), (2, 5)]:
            value, _ = integrate.quad(
                lambda x: 2.0 * math.cos(m_idx * math.pi * x) * math.cos(n_idx * math.pi * x),
                0.0,
                1.0,
                epsabs=1e-13,
            )
            expected = 1.0 if m_idx == n_idx else 0.0
            assert value == pytest.approx(expected, abs=1e-10)

    def test_basis_orthonormal_monte_carlo(self):
        m = build_model(1.0, 2.0, 6)
        rng = np.random.default_rng(41)
        phi = m.basis(rng.uniform(size=10**6))
        gram = phi.T @ phi / phi.shape[0]
        np.testing.assert_allclose(gram, np.eye(6), atol=5e-3)

    def test_kernel_symmetric_on_sampled_pairs(self, model):
        rng = np.random.default_rng(23)
        x, y = rng.uniform(size=30), rng.uniform(size=30)
        np.testing.assert_allclose(
            pointwise_kernel(model, x, y), pointwise_kernel(model, y, x), atol=1e-12
        )

    def test_gram_spectrum_approaches_eigenvalues(self):
        # top eigenvalue of K/ell within 10% of mu_1 at ell = 2000
        m = build_model(1.0, 2.0, 128)
        rng = np.random.default_rng(20240817)
        xs = rng.uniform(size=2000)
        k = gram_matrix(m.basis(xs), m.eigenvalues)
        top = np.linalg.eigvalsh(k / 2000)[-1]
        assert top == pytest.approx(m.eigenvalues[0], rel=0.1)


class TestMakeTarget:
    def test_source_condition_holds_with_equality(self, model):
        for c in (1.0, 1.5, 2.0):
            target = make_target(model, c, R=0.7, delta=0.1, seed=4)
            assert source_condition_value(model, target, c) == pytest.approx(0.7, rel=1e-12)

    def test_c_one_is_hilbert_norm_ball(self, model):
        target = make_target(model, 1.0, R=2.0, seed=1)
        h_norm_sq = float(np.sum(target**2 / model.eigenvalues))
        assert h_norm_sq == pytest.approx(2.0, rel=1e-12)

    def test_single_mode(self):
        m = build_model(1.0, 2.0, 1)
        target = make_target(m, 1.6, R=0.9, seed=0)
        assert abs(target[0]) == pytest.approx(
            math.sqrt(0.9) * m.eigenvalues[0] ** 0.8, rel=1e-12
        )

    def test_target_is_read_only(self, model):
        target = make_target(model, 1.5, R=1.0, seed=1)
        assert target.shape == (model.n_modes,)
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 0.0

    def test_signs_depend_on_seed(self, model):
        t1 = make_target(model, 1.5, R=1.0, seed=1)
        t2 = make_target(model, 1.5, R=1.0, seed=2)
        assert not np.array_equal(t1, t2)
        np.testing.assert_allclose(np.abs(t1), np.abs(t2), rtol=1e-15)


class TestSampleDataset:
    def test_noiseless(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        ds = sample_dataset(model, target, sigma=0.0, ell=50, seed=9)
        np.testing.assert_array_equal(ds.ys, model.basis(ds.xs) @ target)

    def test_noise_bounded_everywhere(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        sigma = 0.4
        ds = sample_dataset(model, target, sigma=sigma, ell=5000, seed=12)
        residual = ds.ys - model.basis(ds.xs) @ target
        assert np.max(np.abs(residual)) <= sigma * math.sqrt(3.0)

    def test_noise_variance_monte_carlo(self):
        # the noise draw does not depend on the model; one mode keeps Phi small
        m = build_model(1.0, 2.0, 1)
        target = make_target(m, 1.5, R=1.0, seed=3)
        sigma = 0.25
        ds = sample_dataset(m, target, sigma=sigma, ell=10**6, seed=77)
        residual = ds.ys - m.basis(ds.xs) @ target
        assert float(np.var(residual)) == pytest.approx(sigma**2, rel=0.01)

    def test_features_are_the_read_only_basis(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        ds = sample_dataset(model, target, sigma=0.1, ell=40, seed=6)
        assert np.array_equal(ds.features, model.basis(ds.xs))
        for array in (ds.xs, ds.features, ds.ys):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_same_seed_bitwise_identical(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        a = sample_dataset(model, target, sigma=0.1, ell=200, seed=5)
        b = sample_dataset(model, target, sigma=0.1, ell=200, seed=5)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)


def fitted_coefficients(model, xs, alpha):
    """Basis coefficients c = mu * (Phi(xs)^T alpha) of the dual fit sum_i alpha_i k(x_i, .)."""
    return model.eigenvalues * (model.basis(xs).T @ alpha)


class TestExactExcessRisk:
    def test_zero_coefficients_give_l2_norm(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        risk = exact_excess_risk(target, np.zeros(model.n_modes))
        assert risk == pytest.approx(float(np.sum(target**2)), rel=1e-12)

    def test_near_interpolation_recovers_target(self):
        # dense noiseless sample, tiny lambda: fitted function ~ target
        m = build_model(1.0, 2.0, 8)
        target = make_target(m, 2.0, R=1.0, seed=6)
        ds = sample_dataset(m, target, sigma=0.0, ell=400, seed=8)
        k = gram_matrix(m.basis(ds.xs), m.eigenvalues)
        alpha = krr_fit(k, ds.ys, 1e-9)
        assert exact_excess_risk(target, fitted_coefficients(m, ds.xs, alpha)) <= 1e-6

    def test_matches_monte_carlo_oracle(self):
        m = build_model(1.0, 2.0, 32)
        target = make_target(m, 1.5, R=1.0, seed=2)
        ds = sample_dataset(m, target, sigma=0.2, ell=150, seed=14)
        lam = 0.05
        k = gram_matrix(m.basis(ds.xs), m.eigenvalues)
        alpha = krr_fit(k, ds.ys, lam)
        fitted_coeffs = fitted_coefficients(m, ds.xs, alpha)
        exact = exact_excess_risk(target, fitted_coeffs)

        rng = np.random.default_rng(99)
        test_xs = rng.uniform(size=10**6)
        phi = m.basis(test_xs)
        diff_sq = (phi @ fitted_coeffs - phi @ target) ** 2
        mc, se = float(diff_sq.mean()), float(diff_sq.std() / math.sqrt(diff_sq.size))
        assert abs(exact - mc) <= 3.0 * se

    def test_nonnegative_and_zero_iff_match(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        # coefficients that reproduce theta exactly are unavailable through a
        # finite sample, but risk is zero iff fitted coefficients equal theta
        alpha = np.zeros(4)
        risk = exact_excess_risk(target, fitted_coefficients(model, np.full(4, 0.3), alpha))
        assert risk > 0

    def test_coefficient_risk_zero_at_target(self, model):
        target = make_target(model, 1.5, R=1.0, seed=3)
        assert exact_excess_risk(target, target) == 0.0
        with pytest.raises(ValueError, match="coefficients"):
            exact_excess_risk(target, target[:-1])
