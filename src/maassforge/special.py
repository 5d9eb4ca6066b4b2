"""K-Bessel functions, their Mellin moments, and smoothing weights.

The theta forms of class characters need only K_0, taken vectorized from
scipy; the test suite cross-checks it against mpmath and against trapezoidal
quadrature of the cosine-transform integral.  The Mellin moments are closed
Gamma products, stated for imaginary order it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import k0 as _scipy_k0
from scipy.special import loggamma


def bessel_k0_array(y: np.ndarray) -> np.ndarray:
    """Vectorized K_0 for the coefficient-weighted sums (order zero only)."""
    return _scipy_k0(y)


def mellin_k(t: float, s: complex) -> complex:
    """int_0^inf K_{it}(y) y^s dy/y = 2^(s-2) Gamma((s+it)/2) Gamma((s-it)/2)."""
    return 2.0 ** (s - 2) * np.exp(
        loggamma((s + 1j * t) / 2) + loggamma((s - 1j * t) / 2)
    )


def mellin_k_squared(t: float, s: complex) -> complex:
    """int_0^inf |K_{it}(y)|^2 y^s dy/y, by the closed Gamma-product form.

    Equals (2^(s-3)/Gamma(s)) Gamma((s+2it)/2) Gamma(s/2)^2 Gamma((s-2it)/2);
    at t=0, s=1 this is pi^2/4 and at t=0, s=2 it is 1/2, matching direct
    quadrature of the left-hand side.
    """
    lg = (
        loggamma((s + 2j * t) / 2)
        + 2 * loggamma(s / 2)
        + loggamma((s - 2j * t) / 2)
        - loggamma(s)
    )
    return 2.0 ** (s - 3) * np.exp(lg)


def incomplete_k_mellin(s: float, x: float) -> float:
    """G_s(x) = int_x^inf K_0(u) u^(s-1) du, the incomplete Mellin transform."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0 and s <= 0:
        raise ValueError("integral diverges at 0 for s <= 0")
    upper = max(x + 60.0, 60.0)
    val, _ = quad(lambda u: _scipy_k0(u) * u ** (s - 1), x, upper, limit=200)
    return val


def smoothing_weight(s: float, x: float) -> float:
    """Normalized incomplete-Mellin cutoff: G_s(x) / G_s(0), decaying ~ e^-x."""
    full = 2.0 ** (s - 2) * math.exp(2 * math.lgamma(s / 2))
    return incomplete_k_mellin(s, x) / full
