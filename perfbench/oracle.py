"""Independent references for the benchmark's output checks.

Nothing here calls krrbounds.  Sweep cells are redrawn from their recorded
seeds and solved through a symmetric eigendecomposition, an algebra
different from the program's Cholesky solve.  Empirical effective dimensions come from the
eigenvalues of the feature-space matrix instead of the Gram matrix.  Exact
N(lambda) values come from the mpmath table in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def cell_seed(master_seed: int, ell: int, repetition: int) -> int:
    """63-bit blake2b digest of 'master:ell:repetition', as documented for sweeps."""
    digest = hashlib.blake2b(f"{master_seed}:{ell}:{repetition}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def target_seed(master_seed: int) -> int:
    digest = hashlib.blake2b(f"{master_seed}:target".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def eigenvalues(beta: float, b: float, n_modes: int) -> np.ndarray:
    return beta * np.arange(1, n_modes + 1, dtype=float) ** -b


def basis(xs, n_modes: int) -> np.ndarray:
    """sqrt(2) cos(n pi x), shape (len(xs), n_modes)."""
    n = np.arange(1, n_modes + 1, dtype=float)
    return math.sqrt(2.0) * np.cos(math.pi * np.outer(np.asarray(xs, dtype=float), n))


def target_theta(master_seed, beta, b, c, n_modes, delta, radius=1.0) -> np.ndarray:
    """theta_n = s mu_n^(c/2) n^(-(1+delta)/2) sign_n with source norm exactly radius."""
    n = np.arange(1, n_modes + 1, dtype=float)
    tail = n ** -(1.0 + delta)
    rng = np.random.Generator(np.random.Philox(key=target_seed(master_seed)))
    signs = rng.integers(0, 2, size=n_modes) * 2 - 1
    return math.sqrt(radius / float(np.sum(tail))) * eigenvalues(beta, b, n_modes) ** (c / 2) * np.sqrt(tail) * signs


def cell_data(seed: int, ell: int, sigma: float, theta: np.ndarray):
    """Uniform inputs on [0, 1] and y = f(x) + uniform noise of variance sigma**2."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = rng.uniform(0.0, 1.0, size=ell)
    bound = sigma * math.sqrt(3.0)
    noise = rng.uniform(-bound, bound, size=ell)
    return xs, basis(xs, theta.size) @ theta + noise


def schedule(b: float, c: float, ell: int) -> float:
    if c == 1.0:
        return (math.log(ell) / ell) ** (b / (b + 1.0))
    return ell ** (-b / (b * c + 1.0))


def ridge_risk(xs, ys, lam: float, mu: np.ndarray, theta: np.ndarray) -> float:
    """Excess risk of kernel ridge regression by a symmetric eigendecomposition.

    With A = Phi W^(1/2) the fitted coefficients are
    c = W^(1/2) A^T (A A^T + s I)^(-1) y = W^(1/2) (A^T A + s I)^(-1) A^T y,
    s = ell lam; the smaller of the two matrices is diagonalised, so no
    Cholesky factorisation is involved on either side of ell = n_modes.
    """
    ell = len(xs)
    root = np.sqrt(mu)
    a = basis(xs, mu.size) * root
    if ell < mu.size:
        values, vectors = np.linalg.eigh(a @ a.T)
        coeffs = root * (a.T @ (vectors @ ((vectors.T @ ys) / (values + ell * lam))))
    else:
        values, vectors = np.linalg.eigh(a.T @ a)
        coeffs = root * (vectors @ ((vectors.T @ (a.T @ ys)) / (values + ell * lam)))
    return float(np.sum((coeffs - theta) ** 2))


def empirical_effdim(xs, mu: np.ndarray, lams) -> np.ndarray:
    """Tr[(K/ell)(K/ell + lam)^-1] from the eigenvalues of A^T A / ell."""
    a = basis(xs, mu.size) * np.sqrt(mu)
    spectrum = np.clip(np.linalg.eigvalsh(a.T @ a / len(xs)), 0.0, None)
    return np.array([float(np.sum(spectrum / (spectrum + lam))) for lam in lams])


def fit_slope(points) -> float:
    """Least-squares slope of log(risk) on log(ell)."""
    x = [math.log(ell) for ell, _ in points]
    y = [math.log(risk) for _, risk in points]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def corrected_bound(beta: float, b: float, lam: float) -> float:
    return beta ** (1.0 / b) * (math.pi / b) / math.sin(math.pi / b) * lam ** (-1.0 / b)


def claimed_bound(beta: float, b: float, lam: float) -> float:
    return beta * b / (b - 1.0) * lam ** (-1.0 / b)


def failure_threshold(b: float) -> float:
    """beta below which b/(b-1) stops bounding the integral (closed form)."""
    return ((b - 1.0) / b * (math.pi / b) / math.sin(math.pi / b)) ** (b / (b - 1.0))


def risk_bound_total(p: dict, lam: float, ell: float, eta: float) -> float:
    b, c = p["b"], p["c"]
    q = p["beta"] ** (1.0 / b) * (math.pi / b) / math.sin(math.pi / b)
    terms = (
        p["R"] * lam**c
        + p["kappa"] ** 2 * p["R"] * lam ** (c - 2.0) / ell**2
        + p["kappa"] * p["R"] * lam ** (c - 1.0) / ell
        + p["kappa"] * p["M"] ** 2 / (lam * ell**2)
        + p["Sigma"] ** 2 * q * lam ** (-1.0 / b) / ell
    )
    return 96.0 * math.log(6.0 / eta) ** 2 * terms


def min_sample_size(p: dict, eta: float) -> float:
    b, c = p["b"], p["c"]
    q = p["beta"] ** (1.0 / b) * (math.pi / b) / math.sin(math.pi / b)
    base = 2.0 * 96.0 * math.log(6.0 / eta) ** 2 * p["kappa"] * q
    return base ** ((b * c + 1.0) / (b * (c - 1.0)))


def load_effdim_reference() -> dict[tuple[float, float, float], Decimal]:
    """(beta, b, lambda) -> N(lambda) to 35 digits."""
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {
        (float(e["beta"]), float(e["b"]), float(e["lambda"])): Decimal(e["N"])
        for e in data["effective_dimension"]
    }


def outside_enclosure(reference: Decimal, value: float, width: float) -> bool:
    """True when the reference lies outside [value, value + width], compared exactly."""
    low = Decimal(value)
    return reference < low or reference > low + Decimal(width)
