import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krrbounds.rates import (
    BoundBreakdown,
    c_eta,
    dominance_margins,
    eta_tau,
    lambda_schedule,
    min_ell_for_condition,
    min_sample_size,
    rate_exponent,
    risk_bound,
)
from krrbounds.spectral import PriorParams, q_constant


def make_params(**overrides):
    defaults = dict(b=2.0, c=1.5, beta=1.0, alpha=1.0, R=1.0, kappa=1.0, M=1.0, Sigma=1.0)
    defaults.update(overrides)
    return PriorParams(**defaults)


ETA_UNIT_LOG = 6.0 / math.e  # log(6/eta) = 1


class TestCEta:
    def test_unit_log(self):
        assert c_eta(ETA_UNIT_LOG) == 96.0

    def test_double_log(self):
        assert c_eta(6.0 / math.e**2) == pytest.approx(384.0, rel=1e-14)

    def test_eta_005(self):
        assert c_eta(0.05) == pytest.approx(2200.327409971802, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, -1.0, 6.0, 7.5])
    def test_rejects_out_of_range(self, eta):
        with pytest.raises(ValueError, match="eta"):
            c_eta(eta)

    @given(st.floats(1e-6, 0.999), st.floats(1.001, 5.0))
    @settings(max_examples=100)
    def test_strictly_decreasing(self, eta, factor):
        hi = eta * factor
        if hi < 6.0:
            assert c_eta(hi) < c_eta(eta)


class TestRiskBound:
    def test_worked_example(self):
        # each term recomputed independently: R lam^c, kappa^2 R lam^(c-2)/ell^2,
        # kappa R lam^(c-1)/ell, kappa M^2/(lam ell^2), Sigma^2 Q lam^(-1/b)/ell
        params = make_params()
        bd = risk_bound(params, 0.1, 100, ETA_UNIT_LOG)
        assert bd.c_eta == 96.0
        assert bd.term_approx == pytest.approx(0.1**1.5, rel=1e-12)
        assert bd.term_b == pytest.approx(0.1**-0.5 / 1e4, rel=1e-12)
        assert bd.term_a == pytest.approx(0.1**0.5 / 100, rel=1e-12)
        assert bd.term_noise_m == pytest.approx(1e-3, rel=1e-12)
        assert bd.term_effdim == pytest.approx(math.pi / 2 * 0.1**-0.5 / 100, rel=1e-12)
        assert bd.total == pytest.approx(8.234325442257553, rel=1e-12)
        assert bd.sample_size_ok is False  # required ell ~ 9537 > 100
        assert bd.lambda_ok is True

    def test_total_is_c_eta_times_sum(self):
        params = make_params(b=3.0, c=2.0, beta=0.5, kappa=2.0, M=0.3, Sigma=1.7)
        bd = risk_bound(params, 0.02, 5000, 0.1)
        term_sum = bd.term_approx + bd.term_b + bd.term_a + bd.term_noise_m + bd.term_effdim
        assert bd.total == pytest.approx(bd.c_eta * term_sum, rel=1e-12)

    def test_lambda_ok_boundary_inclusive(self):
        params = make_params(alpha=0.25)
        assert risk_bound(params, 0.25, 10, 0.5).lambda_ok is True
        assert risk_bound(params, 0.250001, 10, 0.5).lambda_ok is False

    def test_infinite_b_effdim_term(self):
        # Q = beta and the lambda exponent vanishes: term = Sigma^2 beta / ell
        params = make_params(b=math.inf, beta=0.7, Sigma=2.0)
        bd = risk_bound(params, 0.03, 50, 0.5)
        assert bd.term_effdim == pytest.approx(4.0 * 0.7 / 50, rel=1e-12)

    def test_integer_ell_is_taken_to_float(self):
        # ell**2 = 1e400 counts as inf, as it does for the float 1e200
        params = make_params()
        bd = risk_bound(params, 0.1, 10**200, 0.05)
        assert bd == risk_bound(params, 0.1, 1e200, 0.05)
        assert bd.total == 69.58046213609981

    def test_invalid_conditions_are_flags_not_errors(self):
        params = make_params(alpha=1e-9)
        bd = risk_bound(params, 0.5, 1, 0.9)
        assert bd.lambda_ok is False
        assert bd.sample_size_ok is False
        assert math.isfinite(bd.total)


# Magnitudes log-uniform over [1e-300, 1e300]; eta over (0, 6), subnormals included.
LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
ETA = st.one_of(
    st.floats(0.0, 6.0, exclude_min=True, exclude_max=True),
    st.floats(-323.0, 0.7).map(lambda e: 10.0**e),
)
B = st.one_of(st.just(math.inf), st.floats(-12.0, 3.0).map(lambda e: 1.0 + 10.0**e))
FIELDS = [f.name for f in dataclasses.fields(BoundBreakdown)][:7]  # the five terms, total, c_eta


@given(
    b=B, c=st.floats(1.0, 2.0), beta=LOG_UNIFORM, alpha=LOG_UNIFORM, R=LOG_UNIFORM,
    kappa=LOG_UNIFORM, M=LOG_UNIFORM, Sigma=LOG_UNIFORM, lam=LOG_UNIFORM, ell=LOG_UNIFORM,
    eta=ETA,
)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(b=2.0, c=1.5, beta=1.0, alpha=1.0, R=1e308, kappa=1.0, M=1.0, Sigma=1.0,
         lam=0.1, ell=100.0, eta=0.05)
@example(b=2.0, c=1.5, beta=1.0, alpha=1.0, R=1.0, kappa=1.0, M=1.0, Sigma=1.0,
         lam=1e-300, ell=100.0, eta=1e-320)
def test_outputs_are_finite_or_name_the_overflowing_quantity(
    b, c, beta, alpha, R, kappa, M, Sigma, lam, ell, eta
):
    """Every risk_bound field is finite, or OverflowError names the field; min_ell is never nan.

    Drawn with a fixed derandomized seed and no example database, so CI is deterministic.
    """
    params = PriorParams(b=b, c=c, beta=beta, alpha=alpha, R=R, kappa=kappa, M=M, Sigma=Sigma)
    assert math.isfinite(c_eta(eta))
    if ell < 1:
        with pytest.raises(ValueError, match="ell must be >= 1"):
            risk_bound(params, lam, ell, eta)
    else:
        try:
            breakdown = risk_bound(params, lam, ell, eta)
        except OverflowError as exc:
            named = re.fullmatch(r"risk bound (\w+) is not finite in float64 \(got \S+\)", str(exc))
            assert named and named.group(1) in FIELDS, str(exc)
        else:
            assert all(math.isfinite(getattr(breakdown, name)) for name in FIELDS)
    # inf only past the float64 range: compare with the product formed from logs,
    # whose absolute error is about eps times the sum of the logs' magnitudes
    required = min_ell_for_condition(params, lam, eta)
    logs = [math.log(2.0 * c_eta(eta)), math.log(kappa), math.log(q_constant(beta, b)),
            -(1.0 + 1.0 / b) * math.log(lam)]
    log_required = math.fsum(logs)
    slack = 8.0 * 2.0**-52 * (1.0 + sum(abs(x) for x in logs))
    if required == math.inf:
        assert log_required > 709.0 - slack
    else:
        assert 0.0 <= required < math.inf
        if -700.0 < log_required < 709.0:
            assert required == pytest.approx(math.exp(log_required), rel=2.0 * slack)


class TestMinEllForCondition:
    def test_worked_example(self):
        # 2 * 96 * (pi/2) * 0.1**-1.5
        params = make_params()
        assert min_ell_for_condition(params, 0.1, ETA_UNIT_LOG) == pytest.approx(
            9537.204735164256, rel=1e-12
        )

    def test_unit_lambda(self):
        # with 2 c_eta kappa Q = 4 the requirement is exactly 4
        params = make_params(beta=1.0, kappa=1.0 / (24.0 * math.pi))
        assert min_ell_for_condition(params, 1.0, ETA_UNIT_LOG) == pytest.approx(4.0, rel=1e-12)

    def test_infinite_b_exponent_is_one(self):
        params = make_params(b=math.inf, beta=1.0)
        assert min_ell_for_condition(params, 0.5, ETA_UNIT_LOG) == pytest.approx(384.0, rel=1e-12)


class TestLambdaSchedule:
    def test_c_gt_one(self):
        assert lambda_schedule(2.0, 1.5, 256) == pytest.approx(0.0625, rel=1e-15)

    def test_c_one_real_valued_ell(self):
        # direct evaluation of (log(ell)/ell)^(b/(b+1)) at ell = e^2
        assert lambda_schedule(2.0, 1.0, math.e**2) == pytest.approx(
            0.4184343743407115, rel=1e-12
        )

    def test_exact_dyadic(self):
        # 128^(-3/7) = 2^(-3) exactly
        assert lambda_schedule(3.0, 2.0, 128) == pytest.approx(0.125, rel=1e-14)

    def test_c_one_requires_ell_at_least_two(self):
        with pytest.raises(ValueError, match="ell"):
            lambda_schedule(2.0, 1.0, 1)

    @given(b=st.floats(1.01, 50.0), c=st.floats(1.0, 2.0), ell=st.integers(3, 10**9))
    @settings(max_examples=100)
    def test_in_unit_interval_for_ell_ge_3(self, b, c, ell):
        lam = lambda_schedule(b, c, ell)
        assert 0.0 < lam <= 1.0


class TestMinSampleSize:
    def test_power_case(self):
        # base 4, b=2, c=1.5: exponent (bc+1)/(b(c-1)) = 4, so 4^4 = 256
        params = make_params(beta=1.0, kappa=1.0 / (24.0 * math.pi))
        assert min_sample_size(params, ETA_UNIT_LOG) == pytest.approx(256.0, rel=1e-10)

    def test_log_case(self):
        # base 3, c=1: exp(3)
        params = make_params(c=1.0, beta=1.0, kappa=1.0 / (32.0 * math.pi))
        assert min_sample_size(params, ETA_UNIT_LOG) == pytest.approx(math.exp(3.0), rel=1e-10)

    def test_unit_base(self):
        params = make_params(beta=1.0, kappa=1.0 / (96.0 * math.pi))
        assert min_sample_size(params, ETA_UNIT_LOG) == pytest.approx(1.0, rel=1e-10)

    def test_overflow_returns_inf(self):
        params = make_params(c=1.0 + 1e-12)
        assert min_sample_size(params, 0.05) == math.inf

    def test_underflowed_base_returns_zero(self):
        # 2 C_eta kappa Q underflows to 0.0, whose log is undefined
        params = make_params(b=1.0001, c=2.0, beta=1e-300, kappa=1e-300)
        assert min_ell_for_condition(params, 1.0, 0.05) == 0.0
        assert min_sample_size(params, 0.05) == 0.0


class TestRateExponent:
    @pytest.mark.parametrize(
        "b,c,expected", [(2.0, 2.0, 0.8), (2.0, 1.5, 0.75), (2.0, 1.0, 2.0 / 3.0)]
    )
    def test_values(self, b, c, expected):
        assert rate_exponent(b, c) == pytest.approx(expected, rel=1e-15)

    def test_infinite_b(self):
        assert rate_exponent(math.inf, 1.5) == 1.0


class TestDominanceMargins:
    @pytest.mark.parametrize(
        "b,c,expected",
        [(2.0, 1.5, (4.0, 2.0, 3.0)), (2.0, 1.0, (2.0, 1.0, 2.0)), (10.0, 2.0, (22.0, 11.0, 12.0))],
    )
    def test_values(self, b, c, expected):
        assert dominance_margins(b, c) == pytest.approx(expected)


class TestEtaTau:
    def test_unit_exponent(self):
        assert eta_tau(192.0 * 7.5, 7.5) == pytest.approx(6.0 / math.e, rel=1e-14)

    def test_decreasing_to_zero(self):
        values = [eta_tau(tau, 1.0) for tau in (1e3, 1e6, 1e9)]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 1e-28

    # tau/d kept small enough that exp() does not underflow to exactly 0
    @given(tau=st.floats(1e-3, 1e4), factor=st.floats(1.01, 10.0), d=st.floats(0.1, 1e3))
    @settings(max_examples=100)
    def test_strictly_decreasing_into_0_6(self, tau, factor, d):
        lo, hi = eta_tau(tau * factor, d), eta_tau(tau, d)
        assert 0.0 < lo < hi < 6.0


class TestScheduleConditionCompatibility:
    """The schedule satisfies the sample-size condition past the threshold."""

    @given(
        b=st.floats(1.05, 10.0),
        c=st.floats(1.2, 2.0),
        kappa=st.floats(0.1, 3.0),
        beta=st.floats(0.1, 3.0),
        eta=st.floats(0.05, 0.95),
        slack=st.integers(0, 1000),
    )
    # without the rounding margin, ell_eta = 5359153028313.997 here while
    # risk_bound required 5359153028314.008 at ceil(ell_eta)
    @example(b=1.109375, c=1.8359375, kappa=1.0, beta=1.0, eta=0.75, slack=0)
    @settings(max_examples=150, deadline=None)
    def test_c_gt_one(self, b, c, kappa, beta, eta, slack):
        params = PriorParams(b=b, c=c, beta=beta, alpha=1.0, R=1.0,
                             kappa=kappa, M=1.0, Sigma=1.0)
        threshold = min_sample_size(params, eta)
        if not math.isfinite(threshold) or threshold > 1e15:
            return  # not representable at float precision; covered by smaller draws
        ell = math.ceil(threshold) + slack
        bd = risk_bound(params, lambda_schedule(b, c, ell), ell, eta)
        assert bd.sample_size_ok

    def test_c_gt_one_seeded_draws(self):
        # about 3% of these thresholds fell short at ceil(ell_eta) without the margin
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(3000):
            b, c = rng.uniform(1.05, 10.0), rng.uniform(1.2, 2.0)
            kappa, beta, eta = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.95)
            params = PriorParams(b=b, c=c, beta=beta, alpha=1.0, R=1.0,
                                 kappa=kappa, M=1.0, Sigma=1.0)
            threshold = min_sample_size(params, eta)
            if threshold > 1e15:
                continue
            for ell in (math.ceil(threshold), math.ceil(threshold) + 1):
                required = min_ell_for_condition(params, lambda_schedule(b, c, ell), eta)
                assert ell >= required, (b, c, kappa, beta, eta, ell)
            checked += 1
        assert checked >= 1000

    @given(
        b=st.floats(1.5, 10.0),
        kappa=st.floats(1e-3, 2e-2),
        beta=st.floats(1e-3, 0.3),
        eta=st.floats(0.05, 0.95),
        slack=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_c_equal_one(self, b, kappa, beta, eta, slack):
        params = PriorParams(b=b, c=1.0, beta=beta, alpha=1.0, R=1.0,
                             kappa=kappa, M=1.0, Sigma=1.0)
        threshold = min_sample_size(params, eta)
        if threshold > 1e6:
            return
        ell = max(2, math.ceil(threshold)) + slack
        bd = risk_bound(params, lambda_schedule(b, 1.0, ell), ell, eta)
        assert bd.sample_size_ok


class TestAsymptoticDominance:
    """Scaled by ell^(bc/(bc+1)), the leading terms are constant and the rest vanish."""

    @pytest.mark.parametrize("b,c", [(2.0, 2.0), (2.0, 1.5), (5.0, 1.3), (1.5, 2.0)])
    def test_scaled_terms_on_geometric_grid(self, b, c):
        params = PriorParams(b=b, c=c, beta=0.8, alpha=1.0, R=1.3,
                             kappa=1.1, M=0.9, Sigma=1.2)
        rate = rate_exponent(b, c)
        ells = [10.0**k for k in range(3, 13)]
        scaled = {"approx": [], "b": [], "a": [], "noise": [], "effdim": []}
        for ell in ells:
            bd = risk_bound(params, lambda_schedule(b, c, ell), ell, 0.5)
            factor = ell**rate
            scaled["approx"].append(bd.term_approx * factor)
            scaled["b"].append(bd.term_b * factor)
            scaled["a"].append(bd.term_a * factor)
            scaled["noise"].append(bd.term_noise_m * factor)
            scaled["effdim"].append(bd.term_effdim * factor)
        q = params.beta ** (1.0 / b) * (math.pi / b) / math.sin(math.pi / b)
        np.testing.assert_allclose(scaled["approx"], params.R, rtol=1e-9)
        np.testing.assert_allclose(scaled["effdim"], params.Sigma**2 * q, rtol=1e-9)
        # the other three decay by exactly margin/(bc+1) per decade of ell
        margins = dominance_margins(b, c)
        for name, margin in zip(("b", "a", "noise"), margins):
            seq = np.asarray(scaled[name])
            assert np.all(np.diff(seq) < 0)
            ratios = seq[1:] / seq[:-1]
            np.testing.assert_allclose(ratios, 10.0 ** (-margin / (b * c + 1.0)), rtol=1e-9)
