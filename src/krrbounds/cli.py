"""Command-line surface for every computation in the package.

Subcommands print human-readable summaries and emit plot-ready CSV; no
rendering happens here so outputs stay diffable.  Exit codes: 0 success,
2 usage, validation or I/O problem, 1 internal numerical failure.  The env var
EFFDIM_SEED overrides the seed of any simulation config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import typing

import numpy as np

from . import _checks, effdim, experiments, rates
from .spectral import PriorParams

__all__ = ["RunConfig", "load_config", "build_parser", "main"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated simulation configuration (flat key = value text file).

    The config keys are the fields of ``RateSweepConfig`` (``seed`` for
    ``master_seed``) and the fields below ``sweep``; a field with a default
    is an optional key.  Both output paths must lie in existing directories.
    """

    sweep: experiments.RateSweepConfig
    records_path: str
    report_path: str
    aggregate: str = "median"
    burn_in: int = experiments.DEFAULT_BURN_IN

    def __post_init__(self) -> None:
        _checks.aggregation(self.aggregate, self.burn_in, len(self.sweep.ell_grid))
        for name in ("records_path", "report_path"):
            directory = os.path.dirname(getattr(self, name)) or "."
            if not os.path.isdir(directory):
                raise ValueError(f"{name} directory {directory!r} does not exist")


def _config_schema() -> dict[str, tuple[type, str, object, bool]]:
    """Config key -> (dataclass, field name, type, required) for every key."""
    schema = {}
    for cls in (experiments.RateSweepConfig, RunConfig):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if field.name != "sweep":
                key = "seed" if field.name == "master_seed" else field.name
                required = field.default is dataclasses.MISSING
                schema[key] = (cls, field.name, hints[field.name], required)
    return schema


def _parse_value(text: str, kind):
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(part) for part in text.split(",") if part.strip())
    return kind(text)


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a config file before any work starts.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    Relative output paths are resolved against the working directory.
    EFFDIM_SEED in the environment overrides the seed key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc

    schema = _config_schema()
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()

    # Keyword arguments of each dataclass; an absent optional key keeps its default.
    values: dict[type, dict[str, object]] = {experiments.RateSweepConfig: {}, RunConfig: {}}
    for key, (cls, name, kind, required) in schema.items():
        if key not in raw:
            if required:
                raise ValueError(f"{path}: missing required config key {key!r}")
            continue
        try:
            values[cls][name] = _parse_value(raw[key], kind)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid value for {key!r}: {raw[key]!r}") from exc

    env_seed = os.environ.get("EFFDIM_SEED")
    if env_seed is not None:
        try:
            values[experiments.RateSweepConfig]["master_seed"] = int(env_seed)
        except ValueError as exc:
            raise ValueError(f"EFFDIM_SEED must be an integer, got {env_seed!r}") from exc

    try:
        sweep = experiments.RateSweepConfig(**values[experiments.RateSweepConfig])
        return RunConfig(sweep=sweep, **values[RunConfig])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fmt(value: float) -> str:
    return repr(float(value))


def _cmd_effdim(args) -> int:
    rows = effdim.bound_comparison_table(args.beta, args.b, [args.lam], tol=args.tol)
    row = rows[0]
    gap_corrected = row.corrected - row.exact
    gap_claimed = row.claimed - row.exact
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["lambda", "exact", "corrected", "claimed", "gap_corrected", "gap_claimed"])
        writer.writerow(
            [row.lam, row.exact, row.corrected, row.claimed, gap_corrected, gap_claimed]
        )
        return 0
    names = {"exact": row.exact, "corrected": row.corrected, "claimed": row.claimed}
    ordering = " < ".join(sorted(names, key=names.get))
    print(f"effective dimension at beta={args.beta} b={args.b} lambda={args.lam}")
    print(f"  exact N(lambda)  = {_fmt(row.exact)}")
    print(f"  terms summed     = {row.terms_summed}")
    print(
        f"  enclosure width  = {_fmt(row.truncation_error_bound)}"
        "   (N(lambda) in [exact, exact + width])"
    )
    print(f"  corrected bound  = {_fmt(row.corrected)}   gap = {_fmt(gap_corrected)}")
    print(f"  claimed bound    = {_fmt(row.claimed)}   gap = {_fmt(gap_claimed)}")
    print(f"  ordering: {ordering}")
    return 0


def _cmd_bounds_figure(args) -> int:
    _checks.at_least_one("--points", args.points)
    if not 0 < args.lambda_min <= args.lambda_max:
        raise ValueError("need 0 < --lambda-min <= --lambda-max")
    grid = np.geomspace(args.lambda_min, args.lambda_max, args.points)
    rows = effdim.bound_comparison_table(args.beta, args.b, grid, tol=args.tol)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "exact", "corrected", "claimed"])
        writer.writerows((row.lam, row.exact, row.corrected, row.claimed) for row in rows)
    print(
        f"wrote {len(rows)} rows to {args.out} "
        f"(beta={args.beta}, b={args.b}; b defaults to 2 for figure reproduction)"
    )
    return 0


def _cmd_risk_bound(args) -> int:
    params = PriorParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(PriorParams)})
    breakdown = rates.risk_bound(params, args.lam, args.ell, args.eta)
    required = rates.min_ell_for_condition(params, args.lam, args.eta)
    print(f"risk bound at lambda={args.lam} ell={args.ell} eta={args.eta}")
    print(f"  c_eta            = {_fmt(breakdown.c_eta)}")
    print(f"  term_approx      = {_fmt(breakdown.term_approx)}")
    print(f"  term_b           = {_fmt(breakdown.term_b)}")
    print(f"  term_a           = {_fmt(breakdown.term_a)}")
    print(f"  term_noise_m     = {_fmt(breakdown.term_noise_m)}")
    print(f"  term_effdim      = {_fmt(breakdown.term_effdim)}")
    print(f"  total            = {_fmt(breakdown.total)}")
    print(f"  sample_size_ok   = {breakdown.sample_size_ok} (required ell >= {_fmt(required)})")
    print(f"  lambda_ok        = {breakdown.lambda_ok} (lambda <= alpha = {args.alpha})")
    return 0


def _cmd_schedule(args) -> int:
    lam = rates.lambda_schedule(args.b, args.c, args.ell)
    exponent = rates.rate_exponent(args.b, args.c)
    params = PriorParams(
        b=args.b, c=args.c, beta=args.beta, alpha=1.0,
        R=1.0, kappa=args.kappa, M=1.0, Sigma=1.0,
    )
    threshold = rates.min_sample_size(params, args.eta)
    required = rates.min_ell_for_condition(params, lam, args.eta)
    ok = args.ell >= required
    print(f"schedule at b={args.b} c={args.c} ell={args.ell}")
    print(f"  lambda_ell       = {_fmt(lam)}")
    print(f"  rate exponent    = {_fmt(exponent)} (excess risk ~ ell^-{_fmt(exponent)})")
    print(f"  ell_eta          = {_fmt(threshold)} (eta={args.eta}, kappa={args.kappa}, beta={args.beta})")
    print(f"  sample_size_ok   = {ok} (required ell >= {_fmt(required)})")
    if args.c == 1.0:
        print("  note: c = 1 rate carries an unresolved log(ell) factor")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    records = experiments.rate_sweep(config.sweep)
    comparison = experiments.compare_with_theory(
        records,
        config.sweep.b,
        config.sweep.c,
        aggregate=config.aggregate,
        burn_in=config.burn_in,
    )
    experiments.write_records(records, config.records_path)
    experiments.write_report_csv(comparison, config.report_path)
    print(f"wrote {len(records)} records to {config.records_path}")
    print(f"wrote report to {config.report_path}")
    print(f"  fitted slope     = {_fmt(comparison.fit.slope)} (r^2 = {_fmt(comparison.fit.r_squared)})")
    print(f"  theoretical      = {_fmt(comparison.theoretical_slope)}")
    print(f"  difference       = {_fmt(comparison.difference)}")
    if comparison.log_factor_caveat:
        print("  note: c = 1 fit ignores the log(ell) factor in the schedule rate")
    return 0


def _cmd_counterexample(args) -> int:
    bisected = effdim.find_wrong_inequality_threshold(args.b)
    closed = effdim.wrong_inequality_threshold(args.b)
    witness = min(0.1, bisected / 2.0)
    gap = effdim.wrong_inequality_gap(witness, args.b)
    print(f"integral bound failure threshold at b={args.b}")
    print(f"  threshold (bisection)   = {_fmt(bisected)}")
    print(f"  threshold (closed form) = {_fmt(closed)}")
    print(f"  agreement               = {_fmt(abs(bisected - closed) / closed)} relative")
    print(f"  witness beta            = {_fmt(witness)}")
    print(f"  gap at witness          = {_fmt(gap)} (positive means b/(b-1) is exceeded)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krrbounds",
        description="Effective-dimension bounds and rate checks for kernel ridge regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("effdim", help="exact N(lambda) vs the corrected and claimed bounds")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=effdim.DEFAULT_TOL)
    p.add_argument("--csv", action="store_true", help="emit a CSV header + row instead of text")
    p.set_defaults(func=_cmd_effdim)

    p = sub.add_parser("bounds-figure", help="CSV of (lambda, exact, corrected, claimed) on a log grid")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--lambda-min", type=float, default=1e-4)
    p.add_argument("--lambda-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=61)
    p.add_argument("--tol", type=float, default=effdim.DEFAULT_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds_figure)

    p = sub.add_parser("risk-bound", help="five-term risk bound with validity flags")
    for field in dataclasses.fields(PriorParams):
        p.add_argument(f"--{field.name}", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(func=_cmd_risk_bound)

    p = sub.add_parser("schedule", help="lambda schedule, rate exponent, and thresholds")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="rate sweep from a config file; writes records + report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("counterexample", help="beta threshold below which the b/(b-1) bound fails")
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
