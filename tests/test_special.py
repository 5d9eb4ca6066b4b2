import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from maassforge.special import (
    bessel_k0_array,
    incomplete_k_mellin,
    mellin_k,
    mellin_k_squared,
    smoothing_weight,
)


def bessel_k(t: float, y: float, rtol: float = 1e-13) -> float:
    """K_{it}(y) for real t (t = 0 gives K_0), real-valued, y > 0: the oracle
    for scipy's K_0 and for the Mellin moments of K_{it}.

    Trapezoidal quadrature, with step halving, of the cosine-transform integral
    K_{it}(y) = int_0^inf exp(-y*cosh(u)) cos(t*u) du; the integrand is even
    with all odd derivatives vanishing at 0 and decays double-exponentially,
    so the trapezoid rule converges geometrically."""
    if y <= 0:
        raise ValueError("y must be positive")
    # choose u_max so exp(-y*cosh(u_max)) is negligible against K's size ~ exp(-y)
    target = y + 50.0
    u_max = math.acosh(max(target / y, 2.0)) + 1.0
    n = 64
    prev = _trapezoid_k(t, y, u_max, n)
    for _ in range(12):
        n *= 2
        cur = _trapezoid_k(t, y, u_max, n)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def _trapezoid_k(t: float, y: float, u_max: float, n: int) -> float:
    u = np.linspace(0.0, u_max, n + 1)
    w = np.exp(-y * np.cosh(u)) * np.cos(t * u)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w.sum() * (u_max / n))


@pytest.mark.parametrize("y", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0])
def test_bessel_k0_against_mpmath(y):
    ref = float(mp.besselk(0, y))
    assert abs(bessel_k(0.0, y) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "t,y",
    [(0.5, 1e-3), (1.0, 0.01), (2.5, 0.5), (5.0, 1.0), (1.3, 10.0), (9.0, 2.0)],
)
def test_bessel_k_imaginary_order_against_mpmath(t, y):
    ref = complex(mp.besselk(1j * t, y))
    assert abs(ref.imag) < 1e-12 * max(abs(ref), 1)
    assert abs(bessel_k(t, y) - ref.real) <= 1e-11 * abs(ref.real) + 1e-16


def test_bessel_k_quadrature_oracle():
    # independent adaptive quadrature of the defining integral
    for t, y in [(0.0, 1.0), (2.0, 0.7), (4.5, 3.0)]:
        ref, err = quad(lambda u: math.exp(-y * math.cosh(u)) * math.cos(t * u), 0, 25, limit=300)
        assert abs(bessel_k(t, y) - ref) < 1e-11


def test_bessel_k0_array_matches_scalar():
    ys = np.array([0.01, 0.3, 1.7, 9.0])
    arr = bessel_k0_array(ys)
    for y, v in zip(ys, arr):
        assert abs(v - bessel_k(0.0, float(y))) < 1e-12 * abs(v)


def test_bessel_exponential_bound():
    for y in (1.5, 3.0, 10.0):
        assert abs(bessel_k(0.0, y)) <= math.exp(-y)
        assert abs(bessel_k(3.0, y)) <= math.exp(-y)


def test_bessel_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        bessel_k(0.0, 0.0)


def test_mellin_k_closed_form():
    # nu=0, s=1: 2^(-1) Gamma(1/2)^2 = pi/2
    assert abs(mellin_k(0.0, 1.0) - math.pi / 2) < 1e-12
    # quadrature oracle
    val, _ = quad(lambda y: k0(y) * y**0.7, 0, 80, limit=300)
    assert abs(mellin_k(0.0, 1.7) - val) < 1e-9


def test_mellin_k_squared_pinned_values():
    assert abs(mellin_k_squared(0.0, 1.0) - math.pi**2 / 4) < 1e-12
    assert abs(mellin_k_squared(0.0, 2.0) - 0.5) < 1e-12


def test_mellin_k_squared_quadrature_oracle():
    for t, s in [(0.0, 1.3), (1.7, 1.5), (3.0, 2.0)]:
        val, _ = quad(lambda y: bessel_k(t, y) ** 2 * y ** (s - 1), 1e-10, 80, limit=400)
        assert abs(mellin_k_squared(t, s).real - val) < 1e-8


def test_incomplete_k_mellin_limits():
    full = mellin_k(0.0, 1.0).real
    assert abs(incomplete_k_mellin(1.0, 1e-12) - full) < 1e-9
    assert incomplete_k_mellin(1.0, 40.0) < 1e-15


def test_smoothing_weight_properties():
    assert abs(smoothing_weight(1.0, 1e-12) - 1.0) < 1e-9
    xs = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    ws = [smoothing_weight(1.0, x) for x in xs]
    assert all(w1 > w2 for w1, w2 in zip(ws, ws[1:]))
    assert ws[-1] < math.exp(-xs[-1])  # decays at least like e^-x
