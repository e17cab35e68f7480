import json
import math
import tracemalloc
from decimal import Decimal, Inexact, localcontext
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrbounds import effdim
from krrbounds.effdim import (
    DEFAULT_TOL,
    bound_comparison_table,
    claimed_bound,
    corrected_bound,
    effective_dimension_exact,
    find_wrong_inequality_threshold,
    integral_value,
    wrong_inequality_gap,
    wrong_inequality_threshold,
)
from krrbounds.spectral import polynomial_spectrum
from oracles import quad_integral

# Closed form for b = 2: sum_{n>=1} a^2/(a^2 + n^2) = (a pi coth(a pi) - 1)/2
# with a = sqrt(beta/lambda); cross-checked by brute-force summation to 1e7
# terms (15.207953 + tail < 1e-5, and 1.0766739 + tail < 1e-7).
N_BETA01_B2_LAM1E3 = 15.207963267948966
N_BETA1_B2_LAM1 = 1.076674047468581

# mpmath values of N at 21 (beta, b, lambda) points, shared with the benchmark.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text(encoding="utf-8")
)["effective_dimension"]
# Points whose reference N falls outside [value, value + width].  At b = 1.01 the value is
# low by rel 8.0e-15 to 8.2e-15, mostly the cancellation of sin(pi/b) in
# spectral.q_constant, itself low by rel 8.2e-15 there (ROADMAP item 15).  At b = 1.1 the
# value is high by rel 2.3e-16 with width 0: ulp-level misses where the width was clipped
# to 0 (ROADMAP item 2).
ENCLOSURE_MISSES = {
    (1.0, 1.01, 1e-8), (1.0, 1.01, 1e-6), (1.0, 1.01, 1e-4), (1.0, 1.1, 1e-8), (1.0, 1.1, 1e-6),
}
# Points whose cutoff n leaves a true width int_{n+1/2}^{n+1} f - f(n+1)/2 above
# DEFAULT_TOL: the width the search stops on is a difference of two tails of size N,
# below their rounding, and reads 0 there (ROADMAP item 2).
CUTOFF_MISSES = {(1.0, 1.01, 1e-8), (1.0, 1.01, 1e-6), (1.0, 1.1, 1e-8), (1.0, 1.1, 1e-6)}


def reference_cases(misses):
    for point in REFERENCE:
        key = (point["beta"], point["b"], point["lambda"])
        marks = pytest.mark.xfail(reason="ROADMAP item 2") if key in misses else ()
        yield pytest.param(*key, Decimal(point["N"]), marks=marks, id="-".join(map(str, key)))


class TestEffectiveDimensionExact:
    def test_decay_beta01_b2(self):
        spec = polynomial_spectrum(0.1, 2.0)
        res = effective_dimension_exact(spec, 1e-3, tol=1e-9)
        assert res.truncation_error_bound <= 1e-9
        assert res.value == pytest.approx(N_BETA01_B2_LAM1E3, abs=2e-9)
        # value is the lower end of the enclosure
        assert res.value <= N_BETA01_B2_LAM1E3 + 1e-12

    @pytest.mark.parametrize("b", [254.0, 300.0])
    def test_tail_past_exp_overflow(self, b):
        # at 16 terms the tail's z = b * log(17) exceeds 709.78, past which
        # math.exp(z) raises OverflowError; the tail takes exp(-z) instead
        res = effective_dimension_exact(polynomial_spectrum(1.0, b), 1.0)
        assert res.value == 0.5
        assert res.truncation_error_bound == 0.0
        assert res.terms_summed == 16

    @given(
        beta=st.floats(1e-2, 10.0),
        b=st.floats(1.2, 20.0),
        lam=st.floats(1e-4, 10.0),
        factor=st.floats(1.5, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_lambda(self, beta, b, lam, factor):
        spec = polynomial_spectrum(beta, b)
        tol = 1e-9
        low = effective_dimension_exact(spec, lam, tol)
        high = effective_dimension_exact(spec, lam * factor, tol)
        assert high.value <= low.value + 2 * tol

    @pytest.mark.parametrize(
        "b, lam, tol",
        [(2.0, 5e-324, 1e-9), (1.01, 5e-324, 1e-9), (1.01, 1e-12, 1e-9), (1.5, 1e-2, 5e-324)],
        ids=["inflection-inf", "full-integral-overflows", "inflection-past-cap", "tol-unmet-at-cap"],
    )
    def test_direct_term_cap_raises_before_summing(self, b, lam, tol, monkeypatch):
        def no_sum(*args):
            raise AssertionError("terms were summed")

        monkeypatch.setattr(effdim, "_partial_sum", no_sum)
        with pytest.raises(RuntimeError, match="needs more than 67108864 direct terms for tol="):
            effective_dimension_exact(polynomial_spectrum(1.0, b), lam, tol)

    @pytest.mark.parametrize("beta, b, lam, reference", list(reference_cases(ENCLOSURE_MISSES)))
    def test_reference_value_in_enclosure(self, beta, b, lam, reference):
        res = effective_dimension_exact(polynomial_spectrum(beta, b), lam)
        low = Decimal(res.value)
        with localcontext() as ctx:
            ctx.prec, ctx.traps[Inexact] = 1000, True  # the sum of two floats, exactly
            high = low + Decimal(res.truncation_error_bound)
        assert low <= reference <= high

    @pytest.mark.parametrize("beta, b, lam, reference", list(reference_cases(CUTOFF_MISSES)))
    def test_cutoff_meets_tol(self, beta, b, lam, reference):
        # With n terms summed, the tail past n lies in an interval of width
        # int_{n+1/2}^{n+1} f - f(n+1)/2 (the convexity bounds of effective_dimension_exact).
        n = effective_dimension_exact(polynomial_spectrum(beta, b), lam).terms_summed
        with mpmath.workdps(40):
            def f(x):
                return beta / (beta + lam * x**b)

            width = mpmath.quad(f, [n + 0.5, n + 1]) - f(mpmath.mpf(n + 1)) / 2
        assert width <= DEFAULT_TOL


CHUNK = effdim._SUM_CHUNK


class TestPartialSum:
    @pytest.mark.parametrize("b", [1.1, 2.0])
    @pytest.mark.parametrize("n_terms", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 17])
    def test_matches_termwise_fsum(self, b, n_terms):
        # at lambda = 1e-6 neighbouring terms differ by more than 1e-6, so a
        # block offset that is off by one moves the sum by far more than rel 1e-13
        lam = 1e-6
        terms = [1.0 / (1.0 + lam * float(m) ** b) for m in range(1, n_terms + 1)]
        assert effdim._partial_sum(1.0, b, lam, n_terms) == pytest.approx(
            math.fsum(terms), rel=1e-13
        )

    def test_peak_memory_is_a_few_blocks(self):
        # 4,579,072 terms; numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            res = effective_dimension_exact(polynomial_spectrum(1.0, 1.1), 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.terms_summed == 4_579_072
        assert peak < 4_000_000


class TestCorrectedBound:
    def test_values(self):
        assert corrected_bound(0.1, 2.0, 1e-3) == pytest.approx(15.707963267948966, rel=1e-12)
        assert corrected_bound(1.0, 3.0, 1e-3) == pytest.approx(12.09199576156145, rel=1e-12)
        assert corrected_bound(1.0, 2.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    @given(
        beta=st.floats(1e-3, 10.0),
        b=st.floats(1.05, 20.0),
        lam=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=100)
    def test_change_of_variables_identity(self, beta, b, lam):
        # corrected_bound(beta, b, lam) * lam**(1/b) == beta * integral_value(beta, b)
        lhs = corrected_bound(beta, b, lam) * lam ** (1.0 / b)
        rhs = beta * integral_value(beta, b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestClaimedBound:
    def test_values(self):
        assert claimed_bound(0.1, 2.0, 1e-3) == pytest.approx(6.324555320336759, rel=1e-12)
        assert claimed_bound(1.0, 3.0, 1e-3) == pytest.approx(15.0, rel=1e-12)
        assert claimed_bound(1.0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


class TestIntegralValue:
    def test_arctangent_case(self):
        assert integral_value(1.0, 2.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_quarter_power(self):
        assert integral_value(1.0, 4.0) == pytest.approx(1.1107207345395915, rel=1e-12)

    def test_scaled_beta(self):
        assert integral_value(0.1, 2.0) == pytest.approx(4.96729413289805, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("b", [1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_matches_quadrature_oracle(self, beta, b):
        assert integral_value(beta, b) == pytest.approx(quad_integral(beta, b), rel=1e-8)


class TestWrongInequality:
    def test_violation_at_small_beta(self):
        assert wrong_inequality_gap(0.1, 2.0) == pytest.approx(2.9672941328980498, abs=1e-10)

    def test_no_violation_at_beta_one(self):
        assert wrong_inequality_gap(1.0, 2.0) == pytest.approx(math.pi / 2 - 2.0, abs=1e-10)

    def test_threshold_case_is_root(self):
        beta_star = (math.pi / 4) ** 2
        assert wrong_inequality_gap(beta_star, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_threshold_b2(self):
        assert wrong_inequality_threshold(2.0) == pytest.approx(math.pi**2 / 16, rel=1e-14)

    @pytest.mark.parametrize("b", [1.2, 1.5, 2.0, 3.0, 5.0])
    def test_bisection_matches_closed_form(self, b):
        bisected = find_wrong_inequality_threshold(b)
        closed = wrong_inequality_threshold(b)
        assert bisected == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("b", [1.2, 1.5, 2.0, 3.0, 5.0])
    def test_gap_positive_below_threshold(self, b):
        threshold = wrong_inequality_threshold(b)
        for frac in (0.9, 0.5, 0.1):
            assert wrong_inequality_gap(frac * threshold, b) > 0
        assert wrong_inequality_gap(1.1 * threshold, b) < 0


def mp_effdim_b2(beta, lam):
    """N(lambda) at b = 2 in closed form: (pi a coth(pi a) - 1)/2, a = (beta/lambda)^(1/2).

    sum_{n>=1} 1/(1 + s n^2) with s = lambda/beta, evaluated in mpmath at
    the caller's working precision.
    """
    a = mpmath.sqrt(mpmath.mpf(beta) / mpmath.mpf(lam))
    return (mpmath.pi * a * mpmath.coth(mpmath.pi * a) - 1) / 2


def mp_effdim(beta, b, lam):
    """N(lambda) for any b > 1, at the caller's working precision.

    With s = lambda/beta, N = sum_{n>=1} 1/(1 + s n^b).  The head n <= M is
    summed directly, with M = ceil((100/s)^(1/b)) so that u = 1/(s n^b) <= 0.01
    past M.  There 1/(1 + s n^b) = u/(1 + u) = sum_{k>=1} (-1)^(k+1) u^k, so the
    tail is the alternating series sum_k (-1)^(k+1) s^-k zeta(kb, M+1) in the
    Hurwitz zeta.  Its terms fall by a factor of at least 100, so the first
    omitted term, below 1e-35 of the sum, bounds the truncation error.
    """
    s, b = mpmath.mpf(lam) / mpmath.mpf(beta), mpmath.mpf(b)
    m = int(mpmath.ceil((100 / s) ** (1 / b)))
    total = mpmath.fsum(1 / (1 + s * mpmath.mpf(n) ** b) for n in range(1, m + 1))
    k = 1
    while True:
        term = (-1) ** (k + 1) * s**-k * mpmath.zeta(k * b, m + 1)
        if abs(term) < mpmath.mpf("1e-35") * total:
            return total
        total += term
        k += 1


def mp_wrong_inequality_gap(beta, b):
    """integral_value(beta, b) - b/(b-1) in mpmath."""
    beta, b = mpmath.mpf(beta), mpmath.mpf(b)
    return beta ** ((1 - b) / b) * (mpmath.pi / b) / mpmath.sin(mpmath.pi / b) - b / (b - 1)


class TestMpmathOracles:
    """The paper's two claims at b = 2 and across b, against mpmath."""

    @pytest.mark.parametrize("lam", [1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0])
    def test_b2_enclosure_and_corrected_bound(self, beta, lam):
        result = effective_dimension_exact(polynomial_spectrum(beta, 2.0), lam)
        with mpmath.workdps(40):
            exact = mp_effdim_b2(beta, lam)
            value = mpmath.mpf(result.value)
            assert value <= exact <= value + mpmath.mpf(result.truncation_error_bound)
            gap = mpmath.mpf(corrected_bound(beta, 2.0, lam)) - exact
            assert 0 < gap < 1

    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 1e-1, 1.0])
    @pytest.mark.parametrize("beta", [0.1, 1.0])
    @pytest.mark.parametrize("b", [1.5, 3.0, 5.0])
    def test_enclosure_and_corrected_bound_off_b2(self, b, beta, lam):
        result = effective_dimension_exact(polynomial_spectrum(beta, b), lam)
        with mpmath.workdps(40):
            exact = mp_effdim(beta, b, lam)
            value = mpmath.mpf(result.value)
            assert value <= exact <= value + mpmath.mpf(result.truncation_error_bound)
            gap = mpmath.mpf(corrected_bound(beta, b, lam)) - exact
            assert 0 < gap < 1

    @pytest.mark.parametrize("beta, lam", [(0.1, 1e-3), (1.0, 1e-2), (10.0, 1.0)])
    def test_series_oracle_matches_b2_closed_form(self, beta, lam):
        with mpmath.workdps(40):
            closed = mp_effdim_b2(beta, lam)
            assert abs(mp_effdim(beta, 2.0, lam) / closed - 1) < mpmath.mpf("1e-25")

    @pytest.mark.parametrize("b", [1.01, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_threshold_matches_mpmath(self, b):
        with mpmath.workdps(30):
            mb = mpmath.mpf(b)
            base = (mb - 1) / mb * (mpmath.pi / mb) / mpmath.sin(mpmath.pi / mb)
            threshold = base ** (mb / (mb - 1))
            for got in (find_wrong_inequality_threshold(b), wrong_inequality_threshold(b)):
                assert abs(mpmath.mpf(got) / threshold - 1) <= 1e-11
            assert mp_wrong_inequality_gap(threshold / 2, b) > 0
            assert mp_wrong_inequality_gap(2 * threshold, b) < 0


class TestBoundComparisonTable:
    def test_figure_point(self):
        (row,) = bound_comparison_table(0.1, 2.0, [1e-3])
        assert row.exact == pytest.approx(15.208, abs=1e-3)
        assert row.corrected == pytest.approx(15.708, abs=1e-3)
        assert row.claimed == pytest.approx(6.325, abs=1e-3)
        assert row.claimed < row.exact < row.corrected

    def test_large_lambda_reverses_ordering(self):
        (row,) = bound_comparison_table(1.0, 2.0, [1.0])
        assert row.exact == pytest.approx(N_BETA1_B2_LAM1, abs=1e-6)
        assert row.corrected == pytest.approx(math.pi / 2, rel=1e-12)
        assert row.claimed == pytest.approx(2.0, rel=1e-12)
        assert row.exact < row.corrected < row.claimed
