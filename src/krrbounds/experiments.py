"""Monte Carlo rate verification and effective-dimension convergence.

A sweep draws datasets over a geometric grid of sample sizes, fits ridge
regression with the theory-driven schedule, and records the exact excess
risk of every (ell, repetition) cell.  The median risk at each ell is
fitted with a log-log least-squares line and compared against the
bc/(bc+1) rate exponent.  Cells are seeded independently from the master
seed, so a sweep is a pure function of its config and any execution order
gives the same records.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import _checks, krr, rates, synth
from .effdim import corrected_bound, effective_dimension_exact
from .spectral import polynomial_spectrum

__all__ = [
    "TARGET_RADIUS",
    "RateSweepConfig",
    "RateExperimentRecord",
    "PowerLawFit",
    "RateComparison",
    "EffDimConvergenceResult",
    "cell_seed",
    "rate_sweep",
    "fit_power_law",
    "compare_with_theory",
    "effdim_convergence_experiment",
    "write_records",
    "write_report_csv",
]

# Source-condition radius of every sweep's target; no config key sets it.
TARGET_RADIUS = 1.0

# Smallest grid points are excluded from slope fits by default: the rate
# statement is asymptotic and small ell sits in the pre-asymptotic regime.
DEFAULT_BURN_IN = 2


@dataclass(frozen=True)
class RateSweepConfig:
    b: float
    c: float
    beta: float
    sigma: float
    ell_grid: tuple[int, ...]
    repetitions: int
    master_seed: int
    n_modes: int = 512
    delta: float = synth.DEFAULT_TAIL_MARGIN

    def __post_init__(self) -> None:
        _checks.decay_model(self.beta, self.b)
        _checks.source_degree(self.c)
        _checks.noise_scale(self.sigma)
        if not self.ell_grid:
            raise ValueError("ell_grid must be nonempty")
        for ell in self.ell_grid:
            rates.lambda_schedule(self.b, self.c, _checks.count("ell", ell))
        if list(self.ell_grid) != sorted(set(self.ell_grid)):
            raise ValueError("ell_grid must be strictly increasing")
        _checks.count("repetitions", self.repetitions)
        _checks.count("n_modes", self.n_modes)
        _checks.positive("delta", self.delta)


@dataclass(frozen=True)
class RateExperimentRecord:
    """What one (ell, repetition) cell measured, flat enough to persist as a line.

    The sweep's parameters are not repeated here; they are those of the
    ``RateSweepConfig`` that produced the record.
    """

    ell: int
    repetition: int
    lam: float
    excess_risk: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.excess_risk < math.inf:
            raise ValueError(f"excess_risk must be nonnegative and finite, got {self.excess_risk}")


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class RateComparison:
    """Median sweep risk per ell, fitted against the theoretical rate.

    The slope gap is ``fit.slope - theoretical_slope``; at c = 1 the rate
    carries a log(ell) factor that the fit ignores.
    """

    rows: tuple[tuple[int, float, float, bool], ...]  # (ell, lambda, risk, used_in_fit)
    fit: PowerLawFit
    theoretical_slope: float


@dataclass(frozen=True)
class EffDimConvergenceResult:
    """Per-lambda empirical means next to the exact value and its upper bound."""

    rows: tuple[tuple[float, float, float, float], ...]  # (lam, mean_emp, exact, bound)
    per_repetition: np.ndarray  # shape (reps, len(lambda_grid))


def cell_seed(master_seed: int, ell: int, repetition: int) -> int:
    """Stable per-cell seed: 63-bit digest of (master_seed, ell, repetition)."""
    return _seed_digest(f"{master_seed}:{ell}:{repetition}")


def _target_seed(master_seed: int) -> int:
    return _seed_digest(f"{master_seed}:target")


def _seed_digest(key: str) -> int:
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def run_cell(
    config: RateSweepConfig,
    model: synth.SpectralKernelModel,
    theta: np.ndarray,
    ell: int,
    repetition: int,
) -> RateExperimentRecord:
    """Draw, fit, and score a single sweep cell; independent of all others."""
    seed = cell_seed(config.master_seed, ell, repetition)
    lam = rates.lambda_schedule(config.b, config.c, ell)
    dataset = synth.sample_dataset(model, theta, config.sigma, ell, seed)
    coefficients = krr.krr_fit_factored(dataset.features, model.eigenvalues, dataset.ys, lam)
    risk = synth.exact_excess_risk(theta, coefficients)
    return RateExperimentRecord(
        ell=ell, repetition=repetition, lam=lam, excess_risk=risk, seed=seed
    )


def rate_sweep(config: RateSweepConfig) -> list[RateExperimentRecord]:
    """All (ell, repetition) cells of the config, deterministic in the master seed."""
    model = synth.build_model(config.beta, config.b, config.n_modes)
    theta = synth.make_target(
        model, config.c, TARGET_RADIUS, config.delta, seed=_target_seed(config.master_seed)
    )
    records = []
    for ell in config.ell_grid:
        for repetition in range(config.repetitions):
            try:
                records.append(run_cell(config, model, theta, ell, repetition))
            except Exception as exc:
                raise RuntimeError(
                    f"sweep cell (ell={ell}, repetition={repetition}) failed: {exc}"
                ) from exc
    return records


def fit_power_law(points) -> PowerLawFit:
    """Least squares of log(risk) on log(ell)."""
    pts = [(float(ell), float(risk)) for ell, risk in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    if not all(0 < ell < math.inf and 0 < risk < math.inf for ell, risk in pts):
        raise ValueError("power-law fitting needs finite, strictly positive ell and risk")
    x = np.log([ell for ell, _ in pts])
    y = np.log([risk for _, risk in pts])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_points=len(pts),
    )


def compare_with_theory(
    records,
    b: float,
    c: float,
    burn_in: int = DEFAULT_BURN_IN,
) -> RateComparison:
    """Take the median risk per ell and fit the power law beside the rate -bc/(bc+1)."""
    by_ell: dict[int, list[float]] = {}
    lam_by_ell: dict[int, float] = {}
    for record in records:
        by_ell.setdefault(record.ell, []).append(record.excess_risk)
        lam_by_ell[record.ell] = record.lam
    _checks.fit_burn_in(burn_in, len(by_ell))
    ells = sorted(by_ell)
    fitted_ells = ells[burn_in:]
    rows = tuple(
        (ell, lam_by_ell[ell], float(statistics.median(by_ell[ell])), ell in set(fitted_ells))
        for ell in ells
    )
    fit = fit_power_law([(ell, risk) for ell, lam, risk, used in rows if used])
    return RateComparison(rows=rows, fit=fit, theoretical_slope=-rates.rate_exponent(b, c))


def effdim_convergence_experiment(
    model: synth.SpectralKernelModel,
    lambda_grid,
    ell: int,
    repetitions: int,
    seed: int,
) -> EffDimConvergenceResult:
    """Empirical effective dimension of sampled Gram matrices vs the exact value.

    Each repetition's eigensolve runs on an n_modes x n_modes matrix; see
    ``krr.empirical_effective_dimension_factored``.
    """
    lams = _checks.lambda_grid(lambda_grid)
    ell = _checks.count("ell", ell)
    repetitions = _checks.count("repetitions", repetitions)
    per_rep = np.empty((repetitions, len(lams)))
    for rep in range(repetitions):
        rng = np.random.Generator(np.random.Philox(key=cell_seed(seed, ell, rep)))
        xs = rng.uniform(0.0, 1.0, size=ell)
        per_rep[rep] = krr.empirical_effective_dimension_factored(
            model.basis(xs), model.eigenvalues, lams
        )
    spectrum = polynomial_spectrum(model.beta, model.b)
    rows = tuple(
        (
            lam,
            float(per_rep[:, j].mean()),
            effective_dimension_exact(spectrum, lam).value,
            corrected_bound(model.beta, model.b, lam),
        )
        for j, lam in enumerate(lams)
    )
    return EffDimConvergenceResult(rows=rows, per_repetition=per_rep)


def write_records(records, path) -> None:
    """One record per line, comma-separated fields in declaration order, full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(dataclasses.astuple(r) for r in records)


def write_report_csv(comparison: RateComparison, path) -> None:
    """Median risk per ell with the fit metadata, under one header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ell", "lambda", "risk", "aggregate", "used_in_fit"])
        writer.writerows((ell, lam, risk, "median", used)
                         for ell, lam, risk, used in comparison.rows)
