"""Regenerate perfbench/reference.json: high-precision N(lambda) values.

    python3 perfbench/make_reference.py

N(lambda) = sum_{n>=1} beta / (beta + lambda n**b) is evaluated with mpmath
at 50 digits as a direct head sum over n < M plus an Euler-Maclaurin tail:

    sum_{n>=M} f(n) = int_M^inf f + f(M)/2 - sum_k B_2k/(2k)! f^(2k-1)(M).

The integral is an incomplete beta function and the derivatives come from
the exact power series of f around M.  Every value is computed at two cut
points M and must agree to 30 digits before it is written.  The grid is the
bounds-grid workload's (b, lambda) product plus the effdim-empirical lambda
grid at b = 2; lambda values are the float64 numbers the workloads pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

BETA = 1.0
GRID_B = (1.01, 1.1, 1.5, 2.0)
GRID_LAMBDA = (1e-8, 1e-6, 1e-4, 1e-2)
EMPIRICAL_B = 2.0
EMPIRICAL_LAMBDAS = tuple(float(lam) for lam in np.geomspace(1e-4, 1e-1, 7))

_EM_TERMS = 12


def _taylor_coefficients(beta, b, lam, m, order):
    """Coefficients c_k of f(m + h) = sum_k c_k h**k for f(x) = beta/(beta + lam x**b)."""
    a = [lam * m**b * mpmath.binomial(b, j) / m**j for j in range(order + 1)]
    a[0] += beta
    c = [beta / a[0]]
    for n in range(1, order + 1):
        c.append(-mpmath.fsum(a[j] * c[n - j] for j in range(1, n + 1)) / a[0])
    return c


def effective_dimension(beta, b, lam, m):
    beta, b, lam = mpmath.mpf(beta), mpmath.mpf(b), mpmath.mpf(lam)
    f = lambda x: beta / (beta + lam * mpmath.mpf(x) ** b)  # noqa: E731
    head = mpmath.fsum(f(n) for n in range(1, m))
    t0 = beta / (beta + lam * mpmath.mpf(m) ** b)
    integral = (beta / lam) ** (1 / b) / b * mpmath.betainc(1 - 1 / b, 1 / b, 0, t0)
    c = _taylor_coefficients(beta, b, lam, mpmath.mpf(m), 2 * _EM_TERMS)
    correction = mpmath.fsum(
        mpmath.bernoulli(2 * k) * c[2 * k - 1] / (2 * k) for k in range(1, _EM_TERMS + 1)
    )
    return head + integral + f(m) / 2 - correction


def reference_value(b, lam):
    first = effective_dimension(BETA, b, lam, 1000)
    second = effective_dimension(BETA, b, lam, 2000)
    if abs(first - second) > mpmath.mpf(10) ** -30 * abs(first):
        raise RuntimeError(f"cut points disagree at b={b} lambda={lam}: {first} vs {second}")
    return mpmath.nstr(first, 35)


def main() -> None:
    mpmath.mp.dps = 50
    points = [(b, lam) for b in GRID_B for lam in GRID_LAMBDA]
    points += [(EMPIRICAL_B, lam) for lam in EMPIRICAL_LAMBDAS if (EMPIRICAL_B, lam) not in points]
    entries = [
        {"beta": BETA, "b": b, "lambda": lam, "N": reference_value(b, lam)}
        for b, lam in points
    ]
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"effective_dimension": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} reference values to {out}")


if __name__ == "__main__":
    main()
