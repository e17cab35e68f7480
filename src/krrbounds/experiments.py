"""Monte Carlo rate verification and effective-dimension convergence.

A sweep draws datasets over a geometric grid of sample sizes, fits ridge
regression with the theory-driven schedule, and records the exact excess
risk of every (ell, repetition) cell.  Aggregated risks are fitted with a
log-log least-squares line and compared against the bc/(bc+1) rate
exponent.  Cells are seeded independently from the master seed, so a sweep
is a pure function of its config and any execution order gives the same
records.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import statistics
import typing
from dataclasses import dataclass

import numpy as np

from . import _checks, krr, rates, synth
from .effdim import corrected_bound, effective_dimension_exact
from .spectral import polynomial_spectrum

__all__ = [
    "TARGET_RADIUS",
    "RECORD_FIELDS",
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
    "read_records",
    "write_report_csv",
]

# Source-condition radius used by every sweep; the record schema does not
# carry it, so it stays fixed rather than silently configurable.
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
        _checks.decay_exponent(self.b, finite=True)
        _checks.source_degree(self.c)
        _checks.positive("beta", self.beta)
        _checks.noise_scale(self.sigma)
        if not self.ell_grid:
            raise ValueError("ell_grid must be nonempty")
        for ell in self.ell_grid:
            rates.lambda_schedule(self.b, self.c, ell)
        if list(self.ell_grid) != sorted(set(self.ell_grid)):
            raise ValueError("ell_grid must be strictly increasing")
        _checks.at_least_one("repetitions", self.repetitions)
        _checks.at_least_one("n_modes", self.n_modes)
        _checks.positive("delta", self.delta)


@dataclass(frozen=True)
class RateExperimentRecord:
    """One (ell, repetition) measurement, flat enough to persist as a line."""

    ell: int
    repetition: int
    lam: float
    excess_risk: float
    seed: int
    b: float
    c: float
    beta: float
    sigma: float
    n_modes: int
    delta: float

    def __post_init__(self) -> None:
        scheduled = rates.lambda_schedule(self.b, self.c, self.ell)
        if not math.isclose(self.lam, scheduled, rel_tol=1e-12):
            raise ValueError(
                f"lambda {self.lam!r} does not match the schedule value "
                f"{scheduled!r} for ell={self.ell}"
            )
        if not 0 <= self.excess_risk < math.inf:
            raise ValueError(f"excess_risk must be nonnegative and finite, got {self.excess_risk}")


# Record lines hold the fields in declaration order; each is parsed back by
# its annotated type.
_RECORD_TYPES = typing.get_type_hints(RateExperimentRecord)
_RECORD_ATTRS = tuple(f.name for f in dataclasses.fields(RateExperimentRecord))
RECORD_FIELDS = tuple("lambda" if name == "lam" else name for name in _RECORD_ATTRS)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class RateComparison:
    """Aggregated sweep risks fitted against the theoretical rate."""

    aggregate: str
    rows: tuple[tuple[int, float, float, bool], ...]  # (ell, lambda, risk, used_in_fit)
    fit: PowerLawFit
    theoretical_slope: float
    difference: float
    log_factor_caveat: bool


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
        ell=ell,
        repetition=repetition,
        lam=lam,
        excess_risk=risk,
        seed=seed,
        b=config.b,
        c=config.c,
        beta=config.beta,
        sigma=config.sigma,
        n_modes=config.n_modes,
        delta=config.delta,
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
    aggregate: str = "median",
    burn_in: int = DEFAULT_BURN_IN,
) -> RateComparison:
    """Aggregate risks per ell, fit the power law, and report the slope gap."""
    by_ell: dict[int, list[float]] = {}
    lam_by_ell: dict[int, float] = {}
    for record in records:
        by_ell.setdefault(record.ell, []).append(record.excess_risk)
        lam_by_ell[record.ell] = record.lam
    _checks.aggregation(aggregate, burn_in, len(by_ell))
    reducer = statistics.median if aggregate == "median" else statistics.fmean
    ells = sorted(by_ell)
    fitted_ells = ells[burn_in:]
    rows = tuple(
        (ell, lam_by_ell[ell], float(reducer(by_ell[ell])), ell in set(fitted_ells))
        for ell in ells
    )
    fit = fit_power_law([(ell, risk) for ell, lam, risk, used in rows if used])
    theoretical_slope = -rates.rate_exponent(b, c)
    return RateComparison(
        aggregate=aggregate,
        rows=rows,
        fit=fit,
        theoretical_slope=theoretical_slope,
        difference=fit.slope - theoretical_slope,
        log_factor_caveat=(c == 1.0),
    )


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
    _checks.at_least_one("ell", ell)
    _checks.at_least_one("repetitions", repetitions)
    per_rep = np.empty((repetitions, len(lams)))
    for rep in range(repetitions):
        rng = np.random.Generator(np.random.Philox(key=cell_seed(seed, ell, rep)))
        xs = rng.uniform(0.0, 1.0, size=ell)
        per_rep[rep] = krr.empirical_effective_dimension_factored(
            model.basis(xs), model.eigenvalues, lams
        )
    spectrum = polynomial_spectrum(model.beta, model.b, 1)
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
    """One record per line, comma-separated in RECORD_FIELDS order, full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(dataclasses.astuple(r) for r in records)


def read_records(path) -> list[RateExperimentRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for parts in csv.reader(fh):
            if not "".join(parts).strip():
                continue
            if len(parts) != len(RECORD_FIELDS):
                raise ValueError(
                    f"record line has {len(parts)} fields, expected {len(RECORD_FIELDS)}"
                )
            records.append(
                RateExperimentRecord(
                    **{name: _RECORD_TYPES[name](part) for name, part in zip(_RECORD_ATTRS, parts)}
                )
            )
    return records


def write_report_csv(comparison: RateComparison, path) -> None:
    """Aggregated per-ell risks with the fit metadata, one header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ell", "lambda", "risk", "aggregate", "used_in_fit"])
        writer.writerows((ell, lam, risk, comparison.aggregate, used)
                         for ell, lam, risk, used in comparison.rows)
