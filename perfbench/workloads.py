"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

A pass is one user-level unit of work: one ``krrbounds simulate`` run, one
sweep with its comparison and files, one pass over the bounds grid, or one
convergence experiment.  Passes look up every package function on its
module at call time, so a ``Tracer`` installed around a pass sees them.
Checks run after the timed passes and use only ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import statistics
import time
from dataclasses import dataclass
from importlib import resources

# A sweep cell's risk and a repetition's empirical N pass at RISK_RTOL from
# the oracle's eigendecomposition; exact N(lambda) values are compared with
# the mpmath table at EFFDIM_RTOL (absolute below N = 1).
RISK_RTOL = 1e-8
EFFDIM_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-12
THRESHOLD_ATOL = 1e-6  # acceptance criterion 4
CONVERGENCE_RTOL = 0.10  # acceptance criterion 9


def pass_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Pass:
    seconds: float
    call_seconds: list
    ops: int
    output: object


@dataclass
class CheckResult:
    attempted: int
    failed: int
    max_rel_err: float


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)


# --------------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepParams:
    beta: float
    b: float
    c: float
    sigma: float
    n_modes: int
    delta: float
    ell_grid: tuple
    repetitions: int
    burn_in: int


def _parse_records(text: str) -> list[tuple]:
    """(ell, repetition, lambda, excess_risk, seed) per record line."""
    rows = []
    for line in text.splitlines():
        if line.strip():
            parts = line.split(",")
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]), int(parts[4])))
    return rows


def check_sweep(params: SweepParams, master_seed: int, records_text: str, slope: float | None):
    """(failed cells, max relative error) of one sweep against the oracle."""
    import oracle

    mu = oracle.eigenvalues(params.beta, params.b, params.n_modes)
    theta = oracle.target_theta(
        master_seed, params.beta, params.b, params.c, params.n_modes, params.delta
    )
    rows = _parse_records(records_text)
    expected = {(ell, rep) for ell in params.ell_grid for rep in range(params.repetitions)}
    seen, failed, worst = set(), 0, 0.0
    risks: dict[int, list[float]] = {}
    for ell, rep, lam, risk, seed in rows:
        ok = (ell, rep) in expected and (ell, rep) not in seen
        seen.add((ell, rep))
        ok = ok and seed == oracle.cell_seed(master_seed, ell, rep)
        ok = ok and _rel(lam, oracle.schedule(params.b, params.c, ell)) <= CLOSED_FORM_RTOL
        if ok:
            xs, ys = oracle.cell_data(seed, ell, params.sigma, theta)
            err = _rel(risk, oracle.ridge_risk(xs, ys, lam, mu, theta))
            worst = max(worst, err)
            ok = err <= RISK_RTOL
        failed += not ok
        risks.setdefault(ell, []).append(risk)
    failed += len(expected - seen)
    if slope is not None:
        fitted = sorted(risks)[params.burn_in:]
        expected_slope = oracle.fit_slope([(ell, statistics.median(risks[ell])) for ell in fitted])
        err = _rel(slope, expected_slope)
        worst = max(worst, err)
        if not err <= 1e-9:
            failed = len(expected)
    return failed, worst


class SweepDesk:
    """``krrbounds simulate`` on the bundled desk config, in-process."""

    name = "sweep-desk"

    def __init__(self, seed: int, size: str, workdir) -> None:
        from krrbounds import cli

        text = resources.files("krrbounds").joinpath("configs/desk_b2c2.cfg").read_text("utf-8")
        if size == "tiny":
            for key, value in (("n_modes", "16"), ("ell_grid", "16,32,64"),
                               ("repetitions", "2"), ("burn_in", "1")):
                text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        self.records_path = os.path.join(workdir, "desk_records.txt")
        self.report_path = os.path.join(workdir, "desk_report.csv")
        text = re.sub(r"(?m)^records_path\s*=.*$", f"records_path = {self.records_path}", text)
        text = re.sub(r"(?m)^report_path\s*=.*$", f"report_path = {self.report_path}", text)
        self.config_path = os.path.join(workdir, "desk_b2c2.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        config = cli.load_config(self.config_path)
        sweep = config.sweep
        self.params = SweepParams(
            sweep.beta, sweep.b, sweep.c, sweep.sigma, sweep.n_modes, sweep.delta,
            tuple(sweep.ell_grid), sweep.repetitions, config.burn_in,
        )
        self.ops_per_pass = len(sweep.ell_grid) * sweep.repetitions
        self.seed = seed
        self.cli = cli

    def run_pass(self, k: int) -> Pass:
        seed = pass_seed(self.seed, k)
        saved = os.environ.get("EFFDIM_SEED")
        os.environ["EFFDIM_SEED"] = str(seed)
        out = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(["simulate", "--config", self.config_path])
            seconds = time.perf_counter() - start
        finally:
            if saved is None:
                del os.environ["EFFDIM_SEED"]
            else:
                os.environ["EFFDIM_SEED"] = saved
        records = ""
        if code == 0:
            with open(self.records_path, encoding="utf-8") as fh:
                records = fh.read()
        return Pass(seconds, [seconds], self.ops_per_pass, (seed, code, out.getvalue(), records))

    def check(self, outputs) -> CheckResult:
        failed, worst = 0, 0.0
        for seed, code, stdout, records in outputs:
            match = re.search(r"fitted slope\s+=\s+(\S+)", stdout)
            if code != 0 or match is None:
                failed += self.ops_per_pass
                continue
            cell_failed, err = check_sweep(self.params, seed, records, float(match.group(1)))
            failed += cell_failed
            worst = max(worst, err)
        return CheckResult(self.ops_per_pass * len(outputs), failed, worst)


class SweepSmall:
    """rate_sweep + compare_with_theory + record files at b=1.5, c=1, every ell < n_modes."""

    name = "sweep-small"

    def __init__(self, seed: int, size: str, workdir) -> None:
        from krrbounds import experiments

        full = size == "full"
        self.params = SweepParams(
            beta=1.0, b=1.5, c=1.0, sigma=0.1,
            n_modes=512 if full else 16, delta=0.1,
            ell_grid=(16, 32, 64, 128, 256) if full else (16, 32, 64),
            repetitions=20 if full else 2,
            burn_in=experiments.DEFAULT_BURN_IN if full else 1,
        )
        self.ops_per_pass = len(self.params.ell_grid) * self.params.repetitions
        self.records_path = os.path.join(workdir, "small_records.txt")
        self.report_path = os.path.join(workdir, "small_report.csv")
        self.seed = seed
        self.experiments = experiments

    def run_pass(self, k: int) -> Pass:
        ex, p = self.experiments, self.params
        seed = pass_seed(self.seed, k)
        start = time.perf_counter()
        config = ex.RateSweepConfig(
            b=p.b, c=p.c, beta=p.beta, sigma=p.sigma, ell_grid=p.ell_grid,
            repetitions=p.repetitions, master_seed=seed, n_modes=p.n_modes, delta=p.delta,
        )
        records = ex.rate_sweep(config)
        comparison = ex.compare_with_theory(records, p.b, p.c, burn_in=p.burn_in)
        ex.write_records(records, self.records_path)
        ex.write_report_csv(comparison, self.report_path)
        seconds = time.perf_counter() - start
        with open(self.records_path, encoding="utf-8") as fh:
            text = fh.read()
        return Pass(seconds, [seconds], self.ops_per_pass, (seed, text, comparison.fit.slope))

    def check(self, outputs) -> CheckResult:
        failed, worst = 0, 0.0
        for seed, records, slope in outputs:
            cell_failed, err = check_sweep(self.params, seed, records, slope)
            failed += cell_failed
            worst = max(worst, err)
        return CheckResult(self.ops_per_pass * len(outputs), failed, worst)


# --------------------------------------------------------------------------- bounds grid

RISK_PARAMS = dict(b=1.5, c=1.5, beta=1.0, alpha=1.0, R=1.0, kappa=1.0, M=1.0, Sigma=1.0)
RISK_ETA = 0.05


class BoundsGrid:
    """Exact N(lambda) with both bounds, failure thresholds and risk-bound algebra.

    25 calls per pass: 16 (b, lambda) points, 4 thresholds, 4 risk bounds and
    one sample-size threshold.  With an odd count the per-call p50 and p90
    fall inside one call's cluster of timings, not between two.  The grid
    is seed-free; the seed shuffles the call order, afresh in every pass,
    because a call's time depends on what ran before it.
    """

    name = "bounds-grid"

    def __init__(self, seed: int, size: str, workdir) -> None:
        from krrbounds import effdim, rates
        from krrbounds.spectral import PriorParams

        full = size == "full"
        bs = (1.01, 1.1, 1.5, 2.0) if full else (2.0,)
        lams = (1e-8, 1e-6, 1e-4, 1e-2) if full else (1e-4, 1e-2)
        risk_grid = [(lam, ell) for lam in (1e-4, 1e-2) for ell in ((1e3, 1e6) if full else (1e3,))]
        params = PriorParams(**RISK_PARAMS)
        self.calls = (
            [(effdim, "bound_comparison_table", (1.0, b, [lam])) for b in bs for lam in lams]
            + [(effdim, "find_wrong_inequality_threshold", (b,)) for b in bs]
            + [(rates, "risk_bound", (params, lam, ell, RISK_ETA)) for lam, ell in risk_grid]
            + [(rates, "min_sample_size", (params, RISK_ETA))]
        )
        self.ops_per_pass = len(self.calls)
        self.seed = seed

    def run_pass(self, k: int) -> Pass:
        calls = random.Random(pass_seed(self.seed, k)).sample(self.calls, len(self.calls))
        results, latencies = [], []
        start = time.perf_counter()
        for module, attr, args in calls:
            t0 = time.perf_counter()
            results.append(getattr(module, attr)(*args))
            latencies.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
        return Pass(seconds, latencies, len(calls), list(zip(calls, results)))

    def _check_call(self, attr, args, result, reference) -> float | None:
        """Largest relative error of one call's output, None if a check fails."""
        import oracle

        if attr == "bound_comparison_table":
            beta, b, (lam,) = args
            row = result[0]
            ref = float(reference[(beta, b, lam)])
            errors = [
                abs(row.exact - ref) / max(1.0, ref),
                _rel(row.corrected, oracle.corrected_bound(beta, b, lam)),
                _rel(row.claimed, oracle.claimed_bound(beta, b, lam)),
            ]
            ok = (errors[0] <= EFFDIM_RTOL and max(errors[1:]) <= CLOSED_FORM_RTOL
                  and row.corrected - 1.0 <= row.exact <= row.corrected)
            return max(errors) if ok else None
        if attr == "find_wrong_inequality_threshold":
            closed = oracle.failure_threshold(args[0])
            return _rel(result, closed) if abs(result - closed) <= THRESHOLD_ATOL else None
        if attr == "risk_bound":
            _, lam, ell, eta = args
            err = _rel(result.total, oracle.risk_bound_total(RISK_PARAMS, lam, ell, eta))
        else:
            err = _rel(result, oracle.min_sample_size(RISK_PARAMS, args[1]))
        return err if err <= CLOSED_FORM_RTOL else None

    def check(self, outputs) -> CheckResult:
        import oracle

        reference = oracle.load_effdim_reference()
        failed, worst = 0, 0.0
        for results in outputs:
            for (_, attr, args), result in results:
                err = self._check_call(attr, args, result, reference)
                if err is None:
                    failed += 1
                else:
                    worst = max(worst, err)
        return CheckResult(len(self.calls) * len(outputs), failed, worst)


# --------------------------------------------------------------------------- empirical N

class EffdimEmpirical:
    """effdim_convergence_experiment at the scale of acceptance criterion 9."""

    name = "effdim-empirical"

    def __init__(self, seed: int, size: str, workdir) -> None:
        import numpy as np
        from krrbounds import experiments, synth

        full = size == "full"
        self.n_modes = 512 if full else 32
        self.ell = 2000 if full else 100
        self.repetitions = self.ops_per_pass = 10 if full else 2
        self.lams = np.geomspace(1e-4, 1e-1, 7)
        # criterion 9 compares the mean with the infinite-spectrum N(0.01); a
        # tiny model's truncation moves the mean too far for that check
        self.criterion_lam = 1e-2 if full else None
        self.model = synth.build_model(1.0, 2.0, self.n_modes)
        self.seed = seed
        self.experiments = experiments

    def run_pass(self, k: int) -> Pass:
        seed = pass_seed(self.seed, k)
        start = time.perf_counter()
        result = self.experiments.effdim_convergence_experiment(
            self.model, self.lams, ell=self.ell, repetitions=self.repetitions, seed=seed
        )
        seconds = time.perf_counter() - start
        return Pass(seconds, [seconds], self.repetitions, (seed, result))

    def check(self, outputs) -> CheckResult:
        import numpy as np
        import oracle

        reference = oracle.load_effdim_reference()
        mu = oracle.eigenvalues(1.0, 2.0, self.n_modes)
        bounds = np.array([oracle.corrected_bound(1.0, 2.0, lam) for lam in self.lams])
        failed, worst = 0, 0.0
        for seed, result in outputs:
            rows_ok = len(result.rows) == len(self.lams)
            for (lam, mean_emp, exact, bound), want_lam, want_bound in zip(result.rows, self.lams, bounds):
                ref = float(reference[(1.0, 2.0, float(want_lam))])
                exact_err = abs(exact - ref) / max(1.0, ref)
                worst = max(worst, exact_err)
                rows_ok = rows_ok and lam == want_lam and exact_err <= EFFDIM_RTOL
                rows_ok = rows_ok and _rel(bound, want_bound) <= CLOSED_FORM_RTOL
                if lam == self.criterion_lam:
                    rows_ok = rows_ok and abs(mean_emp - exact) <= CONVERGENCE_RTOL * exact
            for rep in range(self.repetitions):
                rng = np.random.Generator(np.random.Philox(key=oracle.cell_seed(seed, self.ell, rep)))
                xs = rng.uniform(0.0, 1.0, size=self.ell)
                expected = oracle.empirical_effdim(xs, mu, self.lams)
                got = result.per_repetition[rep]
                err = float(np.max(np.abs(got - expected) / expected))
                worst = max(worst, err)
                ok = rows_ok and err <= RISK_RTOL and bool(np.all(got <= bounds))
                failed += not ok
        return CheckResult(self.repetitions * len(outputs), failed, worst)


WORKLOADS = {w.name: w for w in (SweepDesk, SweepSmall, BoundsGrid, EffdimEmpirical)}
