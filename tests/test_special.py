import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from maassforge.special import bessel_k0_array, incomplete_k_mellin


def bessel_k(t: float, y: float, rtol: float = 1e-13) -> float:
    """K_{it}(y) for real t (t = 0 gives K_0), real-valued, y > 0: the oracle
    for scipy's K_0 and for K_{it} at imaginary order.

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


def _incomplete_k_mellin_quad(s: float, x: float) -> float:
    """G_s(x) by adaptive quadrature, with breakpoints so that each piece
    spans at most one scale of K_0: near 0 it behaves like -ln u, beyond 1 like
    e^(-u)/sqrt(u)."""
    breaks = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0)
    edges = [x, *(e for e in breaks if e > x), max(x, 80.0) + 80.0]
    return sum(
        quad(lambda u: k0(u) * u ** (s - 1), a, b, epsabs=0, epsrel=1e-13, limit=400)[0]
        for a, b in zip(edges, edges[1:])
    )


def test_incomplete_k_mellin_against_quad():
    xs = np.geomspace(1e-4, 45.0, 31)
    for s in (0.0, 1.0, 2.0):
        got = incomplete_k_mellin(s, xs)
        ref = np.array([_incomplete_k_mellin_quad(s, float(x)) for x in xs])
        assert np.max(np.abs(got / ref - 1)) <= 1e-13, s


def test_incomplete_k_mellin_limits():
    # G_s(0) = int_0^oo K_0(u) u^(s-1) du = 2^(s-2) Gamma(s/2)^2
    for s in (1.0, 2.0, 3.0):
        full = 2.0 ** (s - 2) * math.gamma(s / 2) ** 2
        assert abs(incomplete_k_mellin(s, 1e-12) / full - 1) < 1e-9, s
    assert incomplete_k_mellin(1.0, 40.0) < 1e-15
    # decreasing in x, and no larger than e^(-x) G_1(0) = e^(-x) pi/2
    xs = np.array([0.1, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0])
    ws = incomplete_k_mellin(1.0, xs)
    assert np.all(np.diff(ws) < 0)
    assert np.all(ws < np.exp(-xs) * math.pi / 2)


def test_incomplete_k_mellin_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        incomplete_k_mellin(1.0, np.array([1.0, 0.0]))
