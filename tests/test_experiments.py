import math

import numpy as np
import pytest

from krrbounds.effdim import corrected_bound
from krrbounds.experiments import (
    RateExperimentRecord,
    RateSweepConfig,
    cell_seed,
    compare_with_theory,
    effdim_convergence_experiment,
    fit_power_law,
    rate_sweep,
    run_cell,
    write_records,
    write_report_csv,
)
from krrbounds.krr import gram_matrix
from krrbounds.rates import lambda_schedule
from krrbounds.synth import build_model, make_target


def small_config(**overrides):
    defaults = dict(
        b=2.0, c=2.0, beta=1.0, sigma=0.1,
        ell_grid=(32, 64, 128), repetitions=3, master_seed=11,
        n_modes=32, delta=0.1,
    )
    defaults.update(overrides)
    return RateSweepConfig(**defaults)


class TestRateSweep:
    def test_repeat_run_identical_records(self):
        config = small_config(repetitions=1)
        assert rate_sweep(config) == rate_sweep(config)

    def test_records_carry_schedule_lambda(self):
        for record in rate_sweep(small_config()):
            assert record.lam == lambda_schedule(2.0, 2.0, record.ell)

    def test_execution_order_independent(self):
        config = small_config()
        records = rate_sweep(config)
        model = build_model(config.beta, config.b, config.n_modes)
        from krrbounds.experiments import TARGET_RADIUS, _target_seed

        target = make_target(
            model, config.c, TARGET_RADIUS, config.delta, seed=_target_seed(config.master_seed)
        )
        cells = [(ell, rep) for ell in config.ell_grid for rep in range(config.repetitions)]
        scrambled = {
            (ell, rep): run_cell(config, model, target, ell, rep)
            for ell, rep in reversed(cells)
        }
        for record in records:
            assert scrambled[(record.ell, record.repetition)] == record

    def test_failed_cell_identified(self, monkeypatch):
        import krrbounds.experiments as exp_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(exp_mod.krr, "krr_fit_factored", boom)
        with pytest.raises(RuntimeError, match=r"cell \(ell=32, repetition=0\)"):
            rate_sweep(small_config())

    @pytest.mark.parametrize("ell", [16, 32, 128])
    def test_cell_evaluates_basis_once(self, ell, monkeypatch):
        # once, to draw the targets; the fit reads the dataset's features
        # and the risk needs none
        from krrbounds.synth import SpectralKernelModel

        config = small_config(ell_grid=(ell,))
        model = build_model(config.beta, config.b, config.n_modes)
        target = make_target(model, config.c, 1.0, config.delta, seed=1)
        rows = []
        original = SpectralKernelModel.basis

        def counting_basis(self, xs):
            result = original(self, xs)
            rows.append(result.shape[0])
            return result

        monkeypatch.setattr(SpectralKernelModel, "basis", counting_basis)
        run_cell(config, model, target, ell, 0)
        assert sum(rows) == ell

    def test_noiseless_c2_median_risk_nonincreasing(self):
        config = RateSweepConfig(
            b=2.0, c=2.0, beta=1.0, sigma=0.0,
            ell_grid=(64, 128, 256, 512, 1024), repetitions=20,
            master_seed=13, n_modes=64,
        )
        records = rate_sweep(config)
        comp = compare_with_theory(records, 2.0, 2.0, burn_in=0)
        medians = [risk for _, _, risk, _ in comp.rows]
        assert all(b <= a for a, b in zip(medians, medians[1:]))
        # strong per-repetition signal: largest ell beats smallest in every rep
        by_rep = {}
        for r in records:
            by_rep.setdefault(r.repetition, {})[r.ell] = r.excess_risk
        for risks in by_rep.values():
            assert risks[1024] < risks[64]


class TestCellSeeds:
    def test_distinct_across_cells(self):
        seeds = {cell_seed(1, ell, rep) for ell in (64, 128) for rep in range(50)}
        assert len(seeds) == 100

    def test_stable_values(self):
        assert cell_seed(1, 64, 0) == cell_seed(1, 64, 0)
        assert cell_seed(1, 64, 0) != cell_seed(2, 64, 0)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        ells = [10, 100, 1000, 10000]
        points = [(ell, 4.0 * ell**-0.8) for ell in ells]
        fit = fit_power_law(points)
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_two_points_exact_line(self):
        fit = fit_power_law([(10, 1.0), (1000, 0.01)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(31)
        ells = rng.uniform(10, 1e5, size=12)
        risks = rng.uniform(1e-4, 1.0, size=12)
        fit = fit_power_law(list(zip(ells, risks)))
        x = np.log(ells)
        y = np.log(risks)
        design = np.column_stack([x, np.ones_like(x)])
        slope, intercept = np.linalg.solve(design.T @ design, design.T @ y)
        assert fit.slope == pytest.approx(slope, abs=1e-10)
        assert fit.intercept == pytest.approx(intercept, abs=1e-10)

    def test_rejects_nonpositive_and_short_input(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([(10, 0.0), (20, 1.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([(10, math.nan), (20, 1.0), (40, 0.5)])
        with pytest.raises(ValueError, match="at least 2"):
            fit_power_law([(10, 1.0)])


class TestCompareWithTheory:
    def _records(self, slope, ells=(64, 128, 256, 512)):
        return [
            RateExperimentRecord(
                ell=ell, repetition=0, lam=lambda_schedule(2.0, 1.5, ell),
                excess_risk=2.0 * ell**slope, seed=0,
            )
            for ell in ells
        ]

    def test_exact_power_law_zero_difference(self):
        comp = compare_with_theory(self._records(-0.75), 2.0, 1.5, burn_in=0)
        assert comp.theoretical_slope == -0.75
        assert comp.fit.slope - comp.theoretical_slope == pytest.approx(0.0, abs=1e-12)

    def test_median_of_skewed_triple_is_middle_run(self):
        # skewed triple per ell: the median is the middle run, the mean would not be
        records = self._records(-0.75) + self._records(-0.6) + self._records(-0.9)
        comp = compare_with_theory(records, 2.0, 1.5, burn_in=0)
        assert comp.rows == compare_with_theory(self._records(-0.75), 2.0, 1.5, burn_in=0).rows
        assert comp.fit.slope - comp.theoretical_slope == pytest.approx(0.0, abs=1e-12)
        for ell, _, risk, _ in comp.rows:
            assert risk < np.mean([2.0 * ell**slope for slope in (-0.75, -0.6, -0.9)])

    def test_burn_in_marks_rows(self):
        comp = compare_with_theory(self._records(-0.75), 2.0, 1.5, burn_in=2)
        used = [used for *_, used in comp.rows]
        assert used == [False, False, True, True]
        assert comp.fit.n_points == 2

    def test_c_one_theoretical_slope(self):
        records = [
            RateExperimentRecord(
                ell=ell, repetition=0, lam=lambda_schedule(2.0, 1.0, ell),
                excess_risk=1.0 * ell**-0.5, seed=0,
            )
            for ell in (64, 128, 256)
        ]
        comp = compare_with_theory(records, 2.0, 1.0, burn_in=0)
        assert comp.theoretical_slope == pytest.approx(-2.0 / 3.0)


class TestEffDimConvergence:
    def test_columns_ordered_and_bounded(self):
        model = build_model(1.0, 2.0, 64)
        res = effdim_convergence_experiment(
            model, [0.02, 0.05, 0.2], ell=300, repetitions=3, seed=5
        )
        lams = [row[0] for row in res.rows]
        means = [row[1] for row in res.rows]
        exacts = [row[2] for row in res.rows]
        bounds = [row[3] for row in res.rows]
        assert lams == sorted(lams)
        # bound dominates the exact value on every row
        for exact, bound in zip(exacts, bounds):
            assert bound >= exact
        # all three columns nonincreasing in lambda
        for seq in (means, exacts, bounds):
            assert all(b <= a for a, b in zip(seq, seq[1:]))
        assert res.per_repetition.shape == (3, 3)

    @pytest.mark.parametrize("ell", [40, 300])
    def test_repetitions_match_gram_eigensolve(self, ell):
        model = build_model(1.0, 2.0, 64)
        lams = [0.02, 0.05, 0.2]
        res = effdim_convergence_experiment(model, lams, ell=ell, repetitions=3, seed=5)
        for rep in range(3):
            rng = np.random.Generator(np.random.Philox(key=cell_seed(5, ell, rep)))
            xs = rng.uniform(0.0, 1.0, size=ell)
            gram = gram_matrix(model.basis(xs), model.eigenvalues)
            mu = np.clip(np.linalg.eigvalsh(gram) / ell, 0.0, None)
            expected = [np.sum(mu / (mu + lam)) for lam in lams]
            np.testing.assert_allclose(res.per_repetition[rep], expected, rtol=1e-10)
        bounds = [corrected_bound(1.0, 2.0, lam) for lam in lams]
        assert np.all(res.per_repetition <= bounds)


class TestPersistence:
    def test_line_format_fixed_field_order(self, tmp_path):
        records = rate_sweep(small_config(repetitions=1))
        path = tmp_path / "records.txt"
        write_records(records, path)
        first = path.read_text().splitlines()[0].split(",")
        r = records[0]
        assert first[0] == str(r.ell)
        assert first[1] == str(r.repetition)
        assert first[2] == repr(r.lam)
        assert first[3] == repr(r.excess_risk)
        assert first[4] == str(r.seed)
        assert len(first) == 5

    def test_single_record_line_is_fixed(self, tmp_path):
        record = RateExperimentRecord(
            ell=64, repetition=3, lam=lambda_schedule(2.0, 2.0, 64),
            excess_risk=0.012345678901234567, seed=9007199254740993,
        )
        path = tmp_path / "records.txt"
        write_records([record], path)
        assert path.read_bytes() == b"64,3,0.18946457081379975,0.012345678901234567,9007199254740993\n"

    def test_report_csv_has_header(self, tmp_path):
        records = rate_sweep(small_config())
        comp = compare_with_theory(records, 2.0, 2.0, burn_in=0)
        path = tmp_path / "report.csv"
        write_report_csv(comp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ell,lambda,risk,aggregate,used_in_fit"
        assert len(lines) == 1 + 3

    def test_numpy_scalar_config_writes_plain_floats(self, tmp_path):
        plain = small_config(repetitions=2)
        floats = ("b", "c", "beta", "sigma", "delta")
        typed = small_config(
            repetitions=2, **{name: np.float64(getattr(plain, name)) for name in floats}
        )
        records = {}
        for name, config in (("plain", plain), ("typed", typed)):
            records[name] = rate_sweep(config)
            write_records(records[name], tmp_path / f"{name}.txt")
            comparison = compare_with_theory(records[name], config.b, config.c, burn_in=0)
            write_report_csv(comparison, tmp_path / f"{name}.csv")
        for suffix in ("txt", "csv"):
            typed_bytes = (tmp_path / f"typed.{suffix}").read_bytes()
            assert typed_bytes == (tmp_path / f"plain.{suffix}").read_bytes()
            assert b"np." not in typed_bytes
        assert records["typed"] == records["plain"]
