"""Independent oracles that more than one test module compares against."""

from scipy import integrate


def quad_integral(beta, b):
    """Adaptive quadrature of int_0^inf dt/(beta + t**b), independent of the closed form.

    Substituting t = beta**(1/b) u reduces to int_0^inf du/(1+u**b); the
    range [1, inf) maps onto a smooth integral over (0, 1] via w = u**(1-b),
    so both pieces are bounded and adaptive quadrature converges cleanly.
    """
    head, _ = integrate.quad(lambda u: 1.0 / (1.0 + u**b), 0.0, 1.0,
                             epsabs=1e-14, epsrel=1e-13)
    q = b / (b - 1.0)
    tail, _ = integrate.quad(lambda w: (1.0 / (b - 1.0)) / (1.0 + w**q), 0.0, 1.0,
                             epsabs=1e-14, epsrel=1e-13)
    return beta ** ((1.0 - b) / b) * (head + tail)
