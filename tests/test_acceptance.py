"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import inspect
import math
import re
import shutil
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

import krrbounds.rates
from krrbounds.cli import load_config, main
from krrbounds.effdim import (
    corrected_bound,
    effective_dimension_exact,
    find_wrong_inequality_threshold,
    wrong_inequality_gap,
)
from krrbounds.experiments import (
    compare_with_theory,
    effdim_convergence_experiment,
    rate_sweep,
)
from krrbounds.rates import (
    c_eta,
    eta_tau,
    dominance_margins,
    lambda_schedule,
    min_ell_for_condition,
    min_sample_size,
)
from krrbounds.spectral import PriorParams, polynomial_spectrum
from krrbounds.synth import build_model
from oracles import quad_integral


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_01_integral_identity():
    with criterion("criterion 1: closed-form integral matches quadrature (rel 1e-8, < 1 s)"):
        start = time.perf_counter()
        for beta in (0.01, 0.1, 1.0, 10.0):
            for b in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
                closed = beta ** ((1.0 - b) / b) * (math.pi / b) / math.sin(math.pi / b)
                assert quad_integral(beta, b) == pytest.approx(closed, rel=1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_dominance_and_tightness():
    with criterion("criterion 2: exact <= corrected and gap in [0, 1] on 500 random points (< 10 s)"):
        rng = np.random.default_rng(20240817)
        start = time.perf_counter()
        for _ in range(500):
            beta = 10.0 ** rng.uniform(-3.0, 1.0)
            b = np.nextafter(rng.uniform(1.0, 20.0), 21.0)
            lam = 10.0 ** rng.uniform(-6.0, 0.0)
            exact = effective_dimension_exact(polynomial_spectrum(beta, b, 1), lam, 1e-9).value
            bound = corrected_bound(beta, b, lam)
            assert exact <= bound, (beta, b, lam)
            assert 0.0 <= bound - exact <= 1.0 + 1e-6, (beta, b, lam)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_figure_reproduction(capsys):
    with criterion("criterion 3: cmd_effdim reproduces the beta=0.1, lambda=1e-3 figure values"):
        code = main(["effdim", "--beta", "0.1", "--b", "2", "--lambda", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        exact = float(re.search(r"exact N\(lambda\)\s+= (\S+)", out).group(1))
        corrected = float(re.search(r"corrected bound\s+= (\S+)", out).group(1))
        claimed = float(re.search(r"claimed bound\s+= (\S+)", out).group(1))
        assert exact == pytest.approx(15.208, abs=1e-3)
        assert corrected == pytest.approx(15.708, abs=1e-3)
        assert claimed == pytest.approx(6.325, abs=1e-3)
        assert claimed < exact < corrected


def test_criterion_04_counterexample():
    with criterion("criterion 4: gap at (0.1, 2) and the bisection threshold match closed forms"):
        derived_gap = 0.1**-0.5 * math.pi / 2.0 - 2.0  # 4.96729... - 2
        assert wrong_inequality_gap(0.1, 2.0) == pytest.approx(derived_gap, abs=1e-6)
        assert wrong_inequality_gap(0.1, 2.0) == pytest.approx(2.96729, abs=5e-6)
        threshold = find_wrong_inequality_threshold(2.0)
        closed = (0.5 * (math.pi / 2.0) / math.sin(math.pi / 2.0)) ** 2.0
        assert threshold == pytest.approx(closed, abs=1e-6)
        assert threshold == pytest.approx(0.61685, abs=1e-5)


def test_criterion_05_corrected_constant():
    with criterion("criterion 5: c_eta(6/e) = 96 exactly; obsolete coefficient absent"):
        assert c_eta(6.0 / math.e) == 96.0
        assert krrbounds.rates.CONFIDENCE_COEFF == 96.0
        source = inspect.getsource(krrbounds.rates)
        assert re.search(r"\b32\b", source) is None, "obsolete constant present in rates module"


def test_criterion_06_schedule_condition_algebra():
    with criterion("criterion 6: schedule meets the sample-size condition at ell_eta (c > 1 and c = 1)"):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1000):
            b = float(np.nextafter(rng.uniform(1.0, 10.0), 11.0))
            c = float(np.nextafter(rng.uniform(1.0, 2.0), 3.0))
            kappa = 10.0 ** rng.uniform(-1.0, 1.0)
            beta = 10.0 ** rng.uniform(-1.0, 1.0)
            eta = rng.uniform(0.01, 0.99)
            params = PriorParams(b=b, c=c, beta=beta, alpha=1.0, R=1.0,
                                 kappa=kappa, M=1.0, Sigma=1.0)
            threshold = min_sample_size(params, eta)
            if not math.isfinite(threshold):
                continue  # ell_eta beyond float64 range; the algebra is scale-free
            ell = math.ceil(threshold)
            required = min_ell_for_condition(params, lambda_schedule(b, c, ell), eta)
            assert required <= ell * (1.0 + 1e-9), (b, c, kappa, beta, eta)
            checked += 1
        assert checked >= 900, f"only {checked} tuples were representable"

        checked_c1 = 0
        for _ in range(1000):
            b = float(np.nextafter(rng.uniform(1.0, 10.0), 11.0))
            kappa = 10.0 ** rng.uniform(-3.0, -1.5)
            beta = 10.0 ** rng.uniform(-3.0, -0.5)
            eta = rng.uniform(0.05, 0.95)
            params = PriorParams(b=b, c=1.0, beta=beta, alpha=1.0, R=1.0,
                                 kappa=kappa, M=1.0, Sigma=1.0)
            threshold = min_sample_size(params, eta)
            if threshold > 1e6:
                continue  # over the stated cap
            ell = max(2, math.ceil(threshold))
            required = min_ell_for_condition(params, lambda_schedule(b, 1.0, ell), eta)
            assert required <= ell * (1.0 + 1e-9), (b, kappa, beta, eta)
            checked_c1 += 1
        assert checked_c1 >= 500, f"only {checked_c1} tuples under the cap"


def test_criterion_07_dominance_margins():
    with criterion("criterion 7: dominance margins positive over b in (1, 100], c in [1, 2]"):
        for b in np.concatenate([[1.0 + 1e-9], np.geomspace(1.001, 100.0, 200)]):
            for c in np.linspace(1.0, 2.0, 21):
                margins = dominance_margins(float(b), float(c))
                assert all(m > 0 for m in margins), (b, c, margins)


def test_criterion_08_rate_simulation(tmp_path, monkeypatch):
    with criterion("criterion 8: desk-scale b=2, c=2 sweep slope within 0.15 of -0.8"):
        with resources.as_file(
            resources.files("krrbounds").joinpath("configs/desk_b2c2.cfg")
        ) as bundled:
            shutil.copy(bundled, tmp_path / "desk_b2c2.cfg")
        monkeypatch.chdir(tmp_path)
        config = load_config("desk_b2c2.cfg")
        # the bundled config must match the stated criterion parameters
        assert config.sweep.b == 2.0 and config.sweep.c == 2.0
        assert config.sweep.beta == 1.0 and config.sweep.sigma == 0.1
        assert config.sweep.n_modes == 512
        assert config.sweep.ell_grid == (64, 128, 256, 512, 1024, 2048)
        assert config.sweep.repetitions == 20
        assert config.aggregate == "median" and config.burn_in == 2
        records = rate_sweep(config.sweep)
        comparison = compare_with_theory(
            records, config.sweep.b, config.sweep.c,
            aggregate=config.aggregate, burn_in=config.burn_in,
        )
        print(
            f"\n  fitted slope {comparison.fit.slope:+.4f} vs -0.8 "
            f"(difference {comparison.difference:+.4f}, r^2 {comparison.fit.r_squared:.4f})"
        )
        assert abs(comparison.fit.slope - (-0.8)) <= 0.15


def test_criterion_09_empirical_effective_dimension():
    with criterion("criterion 9: mean empirical N(0.01) within 10% of exact, each rep below the bound"):
        model = build_model(1.0, 2.0, 512)
        result = effdim_convergence_experiment(
            model, [0.01], ell=2000, repetitions=10, seed=20240817
        )
        lam, mean_emp, exact, bound = result.rows[0]
        assert abs(mean_emp - exact) <= 0.10 * exact
        assert np.all(result.per_repetition[:, 0] <= bound)


def test_criterion_10_eta_tau_round_trip():
    with criterion("criterion 10: eta_tau inverts tau = 192 D log^2(6/eta) to rel 1e-10"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            eta = rng.uniform(1e-4, 0.999)
            d_const = 10.0 ** rng.uniform(-3.0, 3.0)
            tau = 192.0 * d_const * math.log(6.0 / eta) ** 2
            assert eta_tau(tau, d_const) == pytest.approx(eta, rel=1e-10)


def test_criterion_11_simulation_determinism(tmp_path, monkeypatch):
    with criterion("criterion 11: rerunning cmd_simulate yields byte-identical record files"):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(
            "\n".join(
                [
                    "beta = 1.0", "b = 2.0", "c = 2.0", "sigma = 0.1",
                    "n_modes = 16", "delta = 0.1",
                    "ell_grid = 16,32,64", "repetitions = 2", "seed = 99",
                    "burn_in = 1",
                    "records_path = records.txt", "report_path = report.csv",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", "tiny.cfg"]) == 0
        first_records = (tmp_path / "records.txt").read_bytes()
        first_report = (tmp_path / "report.csv").read_bytes()
        assert main(["simulate", "--config", "tiny.cfg"]) == 0
        assert (tmp_path / "records.txt").read_bytes() == first_records
        assert (tmp_path / "report.csv").read_bytes() == first_report
