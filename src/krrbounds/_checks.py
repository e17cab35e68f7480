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


def noise_scale(sigma: float) -> None:
    """sigma >= 0, and the noise range [-sigma*sqrt(3), sigma*sqrt(3)] has a finite width.

    The width is formed as numpy's uniform sampler forms high - low, so the
    two agree at the boundary.
    """
    nonnegative("sigma", sigma)
    bound = float(sigma) * math.sqrt(3.0)
    if not math.isfinite(bound - (-bound)):
        raise ValueError(f"sigma must keep the noise range 2*sqrt(3)*sigma finite, got {sigma}")


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


def aggregation(aggregate: str, burn_in: int, grid_points: int) -> None:
    """How a sweep's risks are reduced per ell, and how many grid points the fit skips.

    The fit needs at least 2 of the sweep's ``grid_points`` distinct ells after the burn-in.
    """
    if aggregate not in ("median", "mean"):
        raise ValueError(f"aggregate must be 'median' or 'mean', got {aggregate!r}")
    nonnegative("burn_in", burn_in)
    fitted = max(grid_points - burn_in, 0)
    if fitted < 2:
        raise ValueError(
            f"burn_in={burn_in} leaves {fitted} of {grid_points} grid points; "
            "need at least 2 for a fit"
        )
