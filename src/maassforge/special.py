"""K_0 and its incomplete Mellin transform.

The theta forms of class characters need only K_0, taken vectorised from
scipy; the test suite cross-checks it against mpmath and against trapezoidal
quadrature of the cosine-transform integral.  The approximate functional
equation for L(1) weighs its terms by the incomplete Mellin transform
G_s(x) = int_x^oo K_0(u) u^(s-1) du, computed here by one fixed pair of
Gauss rules.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0 as _scipy_k0
from scipy.special import k0e

# G_s is split at u = SPLIT.  Above it, K_0(u) = e^(-u) k0e(u) with k0e
# smooth and slowly varying, which Gauss-Laguerre integrates against e^(-u);
# below it, K_0(e^v) e^(sv) is smooth in v = ln u down to v = -oo, which
# Gauss-Legendre integrates on [ln x, ln SPLIT].  With 40 nodes each, both
# rules agree with adaptive quadrature to 4e-14 relative for s in {0, 1, 2}
# and x in [1e-4, 45].
SPLIT = 2.5
_LAGUERRE = np.polynomial.laguerre.laggauss(40)
_LEGENDRE = np.polynomial.legendre.leggauss(40)


def bessel_k0_array(y: np.ndarray) -> np.ndarray:
    """Vectorized K_0 for the coefficient-weighted sums (order zero only)."""
    return _scipy_k0(y)


def incomplete_k_mellin(s: float, x) -> np.ndarray:
    """G_s(x) = int_x^oo K_0(u) u^(s-1) du for s >= 0, elementwise over x > 0.

    The tail from a = max(x, SPLIT) is e^(-a) int_0^oo e^(-t) k0e(a + t)
    (a + t)^(s-1) dt, a Gauss-Laguerre sum; the head from x to SPLIT, empty
    when x >= SPLIT, is int_{ln x}^{ln SPLIT} K_0(e^v) e^(sv) dv, a
    Gauss-Legendre sum."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("x must be > 0")
    t, wt = _LAGUERRE
    a = np.maximum(x, SPLIT)[..., None]
    u = a + t
    tail = np.exp(-a[..., 0]) * ((k0e(u) * u ** (s - 1)) @ wt)
    r, wr = _LEGENDRE
    lo = np.log(np.minimum(x, SPLIT))[..., None]
    half = (math.log(SPLIT) - lo) / 2
    v = lo + half * (r + 1)
    head = half[..., 0] * ((_scipy_k0(np.exp(v)) * np.exp(s * v)) @ wr)
    return tail + head
