"""Range rules on parameters that several modules accept.

Each rule raises ValueError with one message that names the parameter.
The comparisons are written so that NaN fails every rule.  A rule that
only one module needs stays in that module.
"""

from __future__ import annotations

import math


def positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def nonnegative(name: str, value: float) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def at_least_one(name: str, value: float) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def decay_exponent(b: float, finite: bool = False) -> None:
    """b > 1 makes the spectrum summable; b = math.inf is allowed unless ``finite``."""
    if not b > 1:
        raise ValueError(f"b must be > 1, got {b}")
    if finite and not math.isfinite(b):
        raise ValueError(f"b must be finite here, got {b}")


def source_degree(c: float) -> None:
    if not 1.0 <= c <= 2.0:
        raise ValueError(f"c must be in [1, 2], got {c}")


def lambda_grid(lambdas) -> list[float]:
    """The grid as a nonempty list of positive floats."""
    lams = [float(lam) for lam in lambdas]
    if not lams:
        raise ValueError("lambda_grid must be nonempty")
    for lam in lams:
        positive("every lambda in lambda_grid", lam)
    return lams


def aggregation(aggregate: str, burn_in: int) -> None:
    """How a sweep's risks are reduced per ell, and how many grid points the fit skips."""
    if aggregate not in ("median", "mean"):
        raise ValueError(f"aggregate must be 'median' or 'mean', got {aggregate!r}")
    nonnegative("burn_in", burn_in)
