import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrbounds.spectral import PriorParams, polynomial_spectrum, q_constant
from krrbounds.synth import build_model


class TestPolynomialSpectrum:
    """The decay model stores (beta, b); synth.build_model forms its first values."""

    def test_beta1_b2(self):
        assert polynomial_spectrum(1.0, 2.0).decay_model == (1.0, 2.0)
        eig = build_model(1.0, 2.0, 3).eigenvalues
        np.testing.assert_allclose(eig, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)

    def test_single_term(self):
        np.testing.assert_allclose(build_model(0.1, 2.0, 1).eigenvalues, [0.1])

    def test_beta2_b3(self):
        np.testing.assert_allclose(build_model(2.0, 3.0, 2).eigenvalues, [2.0, 0.25])

    @given(
        beta=st.floats(1e-3, 1e3),
        b=st.floats(1.001, 50.0),
        n_modes=st.integers(1, 200),
    )
    @settings(max_examples=200)
    def test_output_nonincreasing(self, beta, b, n_modes):
        eig = build_model(beta, b, n_modes).eigenvalues
        assert np.all(np.diff(eig) <= 0)
        assert np.all(eig > 0)


class TestQConstant:
    def test_quadrature_oracle_b2(self):
        # independent oracle: adaptive quadrature of int_0^inf du/(1+u^2)
        assert q_constant(1.0, 2.0) == pytest.approx(1.5707963267948966, rel=1e-12)
        assert q_constant(1.0, 2.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_scaled_beta(self):
        # 0.1**(1/2) * pi/2, cross-checked by quadrature in test_effdim
        assert q_constant(0.1, 2.0) == pytest.approx(0.4967294132898051, rel=1e-12)

    def test_infinite_b_returns_beta(self):
        assert q_constant(5.0, math.inf) == 5.0

    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_large_b_limit_is_one_not_beta(self, beta):
        # the finite-b formula tends to 1 regardless of beta; it does NOT
        # approach the b = inf convention
        assert q_constant(beta, 1e3) == pytest.approx(1.0, rel=1e-2)
        assert q_constant(beta, 1e6) == pytest.approx(1.0, rel=1e-5)

    @given(b=st.floats(1.01, 100.0), lo=st.floats(1e-3, 10.0), scale=st.floats(1.1, 10.0))
    @settings(max_examples=100)
    def test_monotone_increasing_in_beta(self, b, lo, scale):
        assert q_constant(lo * scale, b) > q_constant(lo, b)


class TestPriorParams:
    def test_accepts_infinite_b(self):
        params = PriorParams(b=math.inf, c=1.5, beta=1.0, alpha=1.0, R=1.0,
                             kappa=1.0, M=1.0, Sigma=1.0)
        assert math.isinf(params.b)
