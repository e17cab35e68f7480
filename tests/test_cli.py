import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krrbounds
from krrbounds import effdim, experiments
from krrbounds.cli import RunConfig, _config_schema, load_config, main
from krrbounds.effdim import effective_dimension_exact
from krrbounds.experiments import RateSweepConfig
from krrbounds.spectral import polynomial_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_cell(*args):
    raise AssertionError("a sweep cell ran")


def write_config(path, **overrides):
    values = dict(
        beta=1.0, b=2.0, c=2.0, sigma=0.1, n_modes=16, delta=0.1,
        ell_grid="16,32,64", repetitions=2, seed=7,
        aggregate="median", burn_in=1,
        records_path="records.txt", report_path="report.csv",
    )
    values.update(overrides)
    lines = ["# test config"] + [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestEffdimCommand:
    def test_figure_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "effdim", "--beta", "0.1", "--b", "2", "--lambda", "1e-3"
        )
        assert code == 0
        values = {
            key: float(m.group(1))
            for key, m in {
                "exact": re.search(r"exact N\(lambda\)\s+= (\S+)", out),
                "corrected": re.search(r"corrected bound\s+= (\S+)", out),
                "claimed": re.search(r"claimed bound\s+= (\S+)", out),
            }.items()
        }
        assert values["exact"] == pytest.approx(15.208, abs=1e-3)
        assert values["corrected"] == pytest.approx(15.708, abs=1e-3)
        assert values["claimed"] == pytest.approx(6.325, abs=1e-3)
        assert "claimed < exact < corrected" in out

    def test_reports_terms_and_enclosure_width(self, capsys):
        code, out, _ = run_cli(
            capsys, "effdim", "--beta", "0.1", "--b", "2", "--lambda", "1e-3", "--tol", "1e-6"
        )
        assert code == 0
        terms = int(re.search(r"terms summed\s+= (\d+)", out).group(1))
        width = float(re.search(r"enclosure width\s+= (\S+)", out).group(1))
        result = effective_dimension_exact(polynomial_spectrum(0.1, 2.0, 1), 1e-3, tol=1e-6)
        assert terms == result.terms_summed >= 16
        assert width == result.truncation_error_bound
        assert 0.0 <= width <= 1e-6

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "effdim", "--beta", "0.1", "--b", "2", "--lambda", "1e-3", "--csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "lambda,exact,corrected,claimed,gap_corrected,gap_claimed"
        assert len(row.split(",")) == 6

    def test_zero_lambda_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "effdim", "--beta", "0.1", "--b", "2", "--lambda", "0")
        assert code == 2
        assert "lambda" in err

    def test_b_one_usage_error_names_constraint(self, capsys):
        code, _, err = run_cli(capsys, "effdim", "--beta", "0.1", "--b", "1", "--lambda", "1e-3")
        assert code == 2
        assert "b must be > 1" in err

    def test_infinite_beta_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "effdim", "--beta", "inf", "--b", "2", "--lambda", "1e-3")
        assert (code, out) == (2, "")
        assert err == "error: beta must be finite here, got inf\n"

    def test_direct_term_cap_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "effdim", "--beta", "1", "--b", "1.01", "--lambda", "1e-12"
        )
        assert (code, out) == (1, "")
        assert err.startswith("numerical failure: ")
        assert "needs more than 67108864 direct terms" in err

    def test_linalg_error_exits_1(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it is still a numerical failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(effdim, "bound_comparison_table", no_convergence)
        code, out, err = run_cli(capsys, "effdim", "--beta", "0.1", "--b", "2", "--lambda", "1e-3")
        assert (code, out) == (1, "")
        assert err == "numerical failure: SVD did not converge\n"


class TestBoundsFigureCommand:
    def test_default_grid_ordering_at_1e3(self, capsys, tmp_path):
        out_path = tmp_path / "figure.csv"
        code, _, _ = run_cli(capsys, "bounds-figure", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "lambda,exact,corrected,claimed"
        target = [ln for ln in lines[1:] if abs(float(ln.split(",")[0]) - 1e-3) < 1e-12]
        assert target, "default grid must contain lambda = 1e-3"
        lam, exact, corrected, claimed = map(float, target[0].split(","))
        assert claimed < exact < corrected

    def test_single_point(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys, "bounds-figure", "--points", "1", "--lambda-min", "1e-3",
            "--lambda-max", "1e-3", "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2

    def test_missing_output_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "absent" / "figure.csv"
        code, out, err = run_cli(capsys, "bounds-figure", "--points", "3", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file or directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_reversed_lambda_range_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "figure.csv"
        code, out, err = run_cli(
            capsys, "bounds-figure", "--lambda-min", "1", "--lambda-max", "0.1",
            "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "need 0 < --lambda-min <= --lambda-max" in err
        assert not out_path.exists()

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "bounds-figure", "--points", "11", "--out", str(a))
        run_cli(capsys, "bounds-figure", "--points", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRiskBoundCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-bound", "--b", "2", "--c", "1.5", "--beta", "1",
            "--alpha", "1", "--R", "1", "--kappa", "1", "--M", "1", "--Sigma", "1",
            "--lambda", "0.1", "--ell", "100", "--eta", "2.207276647028654",
        )
        assert code == 0
        assert re.search(r"total\s+= 8\.23432", out)
        assert "sample_size_ok   = False" in out
        assert "lambda_ok        = True" in out

    def test_infinite_b(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-bound", "--b", "inf", "--c", "1.5", "--beta", "0.7",
            "--alpha", "1", "--R", "1", "--kappa", "1", "--M", "1", "--Sigma", "2",
            "--lambda", "0.03", "--ell", "50", "--eta", "0.5",
        )
        assert code == 0
        effdim_term = float(re.search(r"term_effdim\s+= (\S+)", out).group(1))
        assert effdim_term == pytest.approx(4.0 * 0.7 / 50, rel=1e-12)


class TestScheduleCommand:
    def test_prints_schedule_and_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--b", "2", "--c", "1.5", "--ell", "256")
        assert code == 0
        assert re.search(r"lambda_ell\s+= 0\.0625", out)
        assert re.search(r"rate exponent\s+= 0\.75", out)

    def test_c_one_log_caveat(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--b", "2", "--c", "1", "--ell", "100")
        assert code == 0
        assert "log(ell)" in out


class TestCounterexampleCommand:
    def test_b2(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--b", "2")
        assert code == 0
        bisected = float(re.search(r"threshold \(bisection\)\s+= (\S+)", out).group(1))
        witness = float(re.search(r"witness beta\s+= (\S+)", out).group(1))
        gap = float(re.search(r"gap at witness\s+= (\S+)", out).group(1))
        assert bisected == pytest.approx(0.61685, abs=1e-5)
        assert witness == pytest.approx(0.1)
        assert gap == pytest.approx(2.967, abs=1e-3)

    def test_b_one_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--b", "1")
        assert code == 2
        assert "b must be > 1" in err


class TestSimulateCommand:
    def test_runs_and_writes_outputs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "run.cfg")
        Path("report.csv").write_text("old report\n", encoding="utf-8")
        os.chmod("report.csv", 0o640)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert (tmp_path / "records.txt").exists()
        assert (tmp_path / "report.csv").exists()
        assert "fitted slope" in out
        lines = (tmp_path / "records.txt").read_text().splitlines()
        assert len(lines) == 3 * 2  # 3 grid points x 2 repetitions
        # the modes open(path, "w") gives: a new file's from the umask, an old file's kept
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(os.stat("records.txt").st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(os.stat("report.csv").st_mode) == 0o640
        assert sorted(os.listdir()) == ["records.txt", "report.csv", "run.cfg"]

    def test_failed_write_keeps_neither_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "run.cfg")
        Path("records.txt").write_bytes(b"old records\n")

        def unwritable(*args):
            raise OSError("synthetic report failure")

        monkeypatch.setattr(experiments, "write_report_csv", unwritable)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: synthetic report failure\n"
        assert Path("records.txt").read_bytes() == b"old records\n"
        assert sorted(os.listdir()) == ["records.txt", "run.cfg"]

    def test_symlinked_output_is_written_through(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("out")
        os.symlink("out/records.txt", "records.txt")
        config = write_config(tmp_path / "run.cfg")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert os.path.islink("records.txt")
        assert len(Path("out/records.txt").read_text().splitlines()) == 3 * 2
        assert os.listdir("out") == ["records.txt"]

    def test_c_one_prints_log_factor_note(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "run.cfg", c=1)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert "note: c = 1 fit ignores the log(ell) factor in the schedule rate" in out

    # pyproject turns warnings into errors; a user's run only prints the overflow
    # warnings, so they are ignored here to let the cell reach the ridge solve's
    # residual check, which cannot be evaluated at this beta and so rejects the cell
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_risk_exits_1_without_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path / "run.cfg", beta=1e300, n_modes=8, ell_grid="4,8", repetitions=1, burn_in=0
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("numerical failure: ")
        assert "ridge solve residual" in err
        assert sorted(os.listdir()) == ["run.cfg"]

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "cannot read config" in err

    def test_invalid_c_names_field(self, capsys, tmp_path):
        config = write_config(tmp_path / "bad.cfg", c=3)
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "c must be in [1, 2]" in err

    def test_no_partial_output_on_validation_failure(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "bad.cfg", repetitions=0)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert not (tmp_path / "records.txt").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("aggregate", "max", "aggregate must be 'median' or 'mean'"),
            ("burn_in", -1, "burn_in must be nonnegative"),
        ],
    )
    def test_bad_aggregation_exits_2_before_any_output(
        self, capsys, tmp_path, monkeypatch, key, value, fragment
    ):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "bad.cfg", **{key: value})
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert fragment in err
        assert not (tmp_path / "records.txt").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"c": 1, "ell_grid": "1,16,32,64"}, "c = 1 schedule needs ell >= 2, got 1"),
            ({"burn_in": 2}, "burn_in=2 leaves 1 of 3 grid points; need at least 2 for a fit"),
            ({"records_path": "absent/records.txt"},
             "records_path directory 'absent' does not exist"),
            ({"report_path": "absent/report.csv"}, "report_path directory 'absent' does not exist"),
            ({"report_path": "."}, "report_path '.': Is a directory"),
            ({"report_path": "./records.txt"},
             "report_path './records.txt' is the same file as records_path 'records.txt'"),
            ({"beta": "inf"}, "beta must be finite here, got inf"),
            ({"sigma": "inf"}, "sigma must keep the noise range 2*sqrt(3)*sigma finite, got inf"),
        ],
        ids=[
            "c1-ell1", "burn-in", "records-dir", "report-dir", "report-is-dir", "same-file",
            "beta-inf", "sigma-inf",
        ],
    )
    def test_unrunnable_config_exits_2_before_any_cell(
        self, capsys, tmp_path, monkeypatch, overrides, fragment
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "run_cell", no_cell)
        config = write_config(tmp_path / "bad.cfg", **overrides)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and fragment in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("link", ["symlink", "dangling-symlink", "hardlink"])
    def test_report_linked_to_records_exits_2_before_any_cell(
        self, capsys, tmp_path, monkeypatch, link
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "run_cell", no_cell)
        files = ["bad.cfg", "link.csv"]
        if link != "dangling-symlink":
            Path("records.txt").write_text("kept\n", encoding="utf-8")
            files.append("records.txt")
        (os.link if link == "hardlink" else os.symlink)("records.txt", "link.csv")
        config = write_config(tmp_path / "bad.cfg", report_path="link.csv")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "report_path 'link.csv' is the same file as records_path 'records.txt'" in err
        assert sorted(os.listdir()) == files
        if link != "dangling-symlink":
            assert Path("records.txt").read_text(encoding="utf-8") == "kept\n"

    def test_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "run.cfg", records_path=".")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err
        assert not (tmp_path / "report.csv").exists()

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        config = write_config(tmp_path / "run.cfg")
        monkeypatch.setenv("EFFDIM_SEED", "12345")
        loaded = load_config(str(config))
        assert loaded.sweep.master_seed == 12345
        monkeypatch.delenv("EFFDIM_SEED")
        assert load_config(str(config)).sweep.master_seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beta = 1.0\nmystery = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("beta = 1.0\nb 2.0\n", "bad.cfg:2: expected 'key = value', got 'b 2.0'"),
            ("beta = 1.0\nbeta = 2.0\n", "bad.cfg:2: duplicate config key 'beta'"),
        ],
        ids=["no-equals", "duplicate"],
    )
    def test_malformed_line_rejected(self, tmp_path, text, fragment):
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(fragment)):
            load_config(str(path))

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "run.cfg")
        monkeypatch.setenv("EFFDIM_SEED", "seven")
        with pytest.raises(ValueError, match="EFFDIM_SEED must be an integer, got 'seven'"):
            load_config(str(config))


class TestConfigSchema:
    def test_accepted_keys(self):
        assert set(_config_schema()) == {
            "beta", "b", "c", "sigma", "n_modes", "delta", "ell_grid", "repetitions", "seed",
            "aggregate", "burn_in", "records_path", "report_path",
        }

    def test_optional_keys_take_dataclass_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EFFDIM_SEED", raising=False)
        path = write_config(tmp_path / "run.cfg", ell_grid="16,32,64,128")
        text = path.read_text(encoding="utf-8")
        for key in ("n_modes", "delta", "aggregate", "burn_in"):
            text = re.sub(rf"(?m)^{key} = .*\n", "", text)
        path.write_text(text, encoding="utf-8")
        loaded = load_config(str(path))
        assert loaded == RunConfig(
            sweep=RateSweepConfig(
                b=2.0, c=2.0, beta=1.0, sigma=0.1, ell_grid=(16, 32, 64, 128), repetitions=2,
                master_seed=7,
            ),
            records_path="records.txt",
            report_path="report.csv",
        )
        assert (loaded.sweep.n_modes, loaded.sweep.delta) == (512, 0.1)
        assert (loaded.aggregate, loaded.burn_in) == ("median", 2)
        monkeypatch.setenv("EFFDIM_SEED", "99")
        assert load_config(str(path)).sweep.master_seed == 99

    def test_bundled_desk_config(self, monkeypatch):
        monkeypatch.delenv("EFFDIM_SEED", raising=False)
        path = Path(krrbounds.__file__).parent / "configs" / "desk_b2c2.cfg"
        assert load_config(str(path)) == RunConfig(
            sweep=RateSweepConfig(
                b=2.0, c=2.0, beta=1.0, sigma=0.1, ell_grid=(64, 128, 256, 512, 1024, 2048),
                repetitions=20, master_seed=2025, n_modes=512, delta=0.1,
            ),
            records_path="desk_b2c2_records.txt",
            report_path="desk_b2c2_report.csv",
            aggregate="median",
            burn_in=2,
        )

    @pytest.mark.parametrize(
        "key",
        ["beta", "b", "c", "sigma", "ell_grid", "repetitions", "seed", "records_path",
         "report_path"],
    )
    def test_missing_required_key(self, tmp_path, key):
        path = write_config(tmp_path / "run.cfg")
        text = re.sub(rf"(?m)^{key} = .*\n", "", path.read_text(encoding="utf-8"))
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"missing required config key '{key}'"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "key, value", [("n_modes", "many"), ("ell_grid", "16,x"), ("burn_in", "1.5"),
                       ("beta", "one")],
    )
    def test_invalid_value(self, tmp_path, key, value):
        path = write_config(tmp_path / "run.cfg", **{key: value})
        with pytest.raises(ValueError, match=f"invalid value for '{key}'"):
            load_config(str(path))


def fresh_import(code):
    """stdout of ``code`` run in a new interpreter that imports krrbounds from this tree."""
    src = str(Path(krrbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize():
    out = fresh_import("import sys, krrbounds.cli; print('scipy.optimize' in sys.modules)")
    assert out == "False"


def test_package_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, krrbounds; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('krrbounds.')))"
    )
    assert fresh_import(code) == "[]"


def test_readme_quick_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert re.findall(r"# .*?(\d+\.\d+)\.\.\.", example) == ["15.20796", "15.70796"]
    namespace = {}
    exec(example, namespace)
    assert str(namespace["exact"].value).startswith("15.20796")
    assert str(namespace["bound"]).startswith("15.70796")
