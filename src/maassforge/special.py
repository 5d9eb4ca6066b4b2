"""K_0, e^t K_0 and the incomplete Mellin transform of K_0, in numpy.

The theta forms of class characters need only K_0.  Below t = 2 it is the
power series

    K_0(t) = -ln(t/2) I_0(t) + sum_k (H_k - gamma) q^k / (k!)^2,  q = t^2/4,

with I_0(t) = sum_k q^k / (k!)^2 and H_k the harmonic numbers; 16 terms of
each leave less than 3e-27 at t = 2.  From t = 2 on, substituting s = w^2 in
K_0(t) = e^(-t) int_0^oo e^(-s) (s (s + 2t))^(-1/2) ds gives

    e^t K_0(t) = int_-oo^oo e^(-w^2) (2t + w^2)^(-1/2) dw,

a Gauss-Hermite sum.  Its integrand has poles at w = +-i sqrt(2t), nearest
the real axis at t = 2, where 60 nodes are needed (40 agree with mpmath only
to 1.1e-14).  As the poles recede, fewer nodes do, so each t takes the rule
of its band.  The arrays of t come ascending (Theta's 2 pi y n, and the
AFE's nodes once sorted), so one searchsorted of the band edges cuts an
array into the series part and each band as contiguous slices.  The
largest relative error of e^t K_0 against mpmath on 600 points of each
band and its lower edge, where the rule is weakest:

    t        [2, 5)   [5, 8)   [8, 12)  [12, 20)  [20, 700]
    nodes    60       24       20       16        14
    error    1.0e-15  1.0e-15  4.4e-16  5.6e-16   6.7e-16

The test suite checks both routes against mpmath and scipy on [1e-8, 700]
and at each band's lower edge and the float below it.

The approximate functional equation for L(1) weighs its terms by the
incomplete Mellin transform G_s(x) = int_x^oo K_0(u) u^(s-1) du, computed
here by one fixed pair of Gauss rules.

Every Gauss rule is read from gauss_rules.json, the float reprs of the rules
of numpy.polynomial's hermgauss, laggauss and leggauss, so that import runs
no eigensolver; the test suite recomputes them.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .quadfield import SIEVE_CHUNK

EULER_GAMMA = 0.5772156649015329

# K_0 is the power series below K0_SPLIT and the Hermite sum from it on
K0_SPLIT = 2.0
_SERIES_TERMS = 16
_FACTORIAL_SQ = [math.factorial(k) ** 2 for k in range(_SERIES_TERMS)]
_HARMONIC = [sum(Fraction(1, j) for j in range(1, k + 1)) for k in range(_SERIES_TERMS)]
_I0_COEFFS = [1.0 / f for f in _FACTORIAL_SQ]
_K0_COEFFS = [float(h - Fraction(EULER_GAMMA)) / f for h, f in zip(_HARMONIC, _FACTORIAL_SQ)]
# (lower edge of a band of t, nodes of the Gauss-Hermite rule used in it)
K0_HERMITE_BANDS = ((K0_SPLIT, 60), (5.0, 24), (8.0, 20), (12.0, 16), (20.0, 14))
_EDGES = np.array([edge for edge, _ in K0_HERMITE_BANDS])
_RULES = json.loads(Path(__file__).with_name("gauss_rules.json").read_text())
# each Hermite rule is symmetric, so it keeps the pair of nodes +-w once, as
# (w^2, 2 weight), and "hermite" holds those two lists by the rule's nodes
_HERMITE = [list(zip(*_RULES["hermite"][str(nodes)])) for _, nodes in K0_HERMITE_BANDS]

# G_s is split at u = SPLIT.  Above it, K_0(u) = e^(-u) (e^u K_0(u)) with
# e^u K_0(u) smooth and slowly varying, which Gauss-Laguerre integrates
# against e^(-u); below it, K_0(e^v) e^(sv) is smooth in v = ln u down to
# v = -oo, which Gauss-Legendre integrates on [ln x, ln SPLIT].  With 40
# nodes each, both rules agree with adaptive quadrature to 4e-14 relative
# for s in {0, 1, 2} and x in [1e-4, 45].
SPLIT = 2.5
_LAGUERRE = tuple(np.array(v) for v in _RULES["laguerre"])  # (nodes, weights)
_LEGENDRE = tuple(np.array(v) for v in _RULES["legendre"])


def _horner(coeffs: list[float], q: np.ndarray) -> np.ndarray:
    acc = np.full_like(q, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= q
        acc += c
    return acc


def _k0_series(t: np.ndarray) -> np.ndarray:
    """K_0(t) for 0 < t < K0_SPLIT."""
    q = t * t / 4
    return _horner(_K0_COEFFS, q) - np.log(t / 2) * _horner(_I0_COEFFS, q)


def _hermite_sum(t: np.ndarray, rule: list[tuple[float, float]]) -> np.ndarray:
    two_t = 2 * t
    acc = np.zeros_like(t)
    tmp = np.empty_like(t)
    for w2, wt in rule:  # in place: one pass and no temporary per node
        np.add(two_t, w2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.divide(wt, tmp, out=tmp)
        acc += tmp
    return acc


def _banded(t, series, hermite) -> np.ndarray:
    """series(u) on the u of ascending t below K0_SPLIT, and hermite(u, rule)
    on each Hermite band with its rule: one searchsorted of the band edges
    cuts t into contiguous slices of one output array, each filled
    SIEVE_CHUNK entries at a time, so that the temporaries of the rules
    stay the size of one block."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.ravel()
    if np.any(flat[1:] < flat[:-1]):
        raise ValueError("t must be ascending")
    cuts = [0, *np.searchsorted(flat, _EDGES).tolist(), flat.size]
    out = np.empty_like(flat)
    fills = [series, *(functools.partial(hermite, rule=rule) for rule in _HERMITE)]
    for lo, hi, fill in zip(cuts, cuts[1:], fills):
        for a in range(lo, hi, SIEVE_CHUNK):
            b = min(a + SIEVE_CHUNK, hi)
            out[a:b] = fill(flat[a:b])
    return out.reshape(t.shape)


def bessel_k0_array(t) -> np.ndarray:
    """K_0(t), elementwise over ascending t > 0."""
    return _banded(t, _k0_series, lambda u, rule: np.exp(-u) * _hermite_sum(u, rule))


def bessel_k0e_array(t) -> np.ndarray:
    """e^t K_0(t), elementwise over ascending t > 0."""
    return _banded(t, lambda u: np.exp(u) * _k0_series(u), _hermite_sum)


def incomplete_k_mellin(s: float, x) -> np.ndarray:
    """G_s(x) = int_x^oo K_0(u) u^(s-1) du for s >= 0, elementwise over x > 0.

    The tail from a = max(x, SPLIT) is e^(-a) int_0^oo e^(-t) e^(a+t)
    K_0(a + t) (a + t)^(s-1) dt, a Gauss-Laguerre sum; the head from x to
    SPLIT, empty when x >= SPLIT, is int_{ln x}^{ln SPLIT} K_0(e^v) e^(sv) dv,
    a Gauss-Legendre sum; SIEVE_CHUNK nodes of the two rules a block."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("x must be > 0")
    (t, wt), (r, wr) = _LAGUERRE, _LEGENDRE
    flat, out = x.ravel(), np.empty(x.size)
    step = SIEVE_CHUNK // (t.size + r.size)
    for i in range(0, x.size, step):
        a = np.maximum(flat[i : i + step, None], SPLIT)
        u = a + t
        lo = np.log(np.minimum(flat[i : i + step, None], SPLIT))
        half = (math.log(SPLIT) - lo) / 2
        v = lo + half * (r + 1)
        w = np.exp(v)
        # e^u K_0(u) at the nodes of both rules, through one sort of them
        nodes = np.concatenate([u.ravel(), w.ravel()])
        order = np.argsort(nodes)
        k0e = np.empty_like(nodes)
        k0e[order] = bessel_k0e_array(nodes[order])
        tail = np.exp(-a[:, 0]) * ((k0e[: u.size].reshape(u.shape) * u ** (s - 1)) @ wt)
        head = half[:, 0] * ((k0e[u.size :].reshape(w.shape) * np.exp(s * v - w)) @ wr)
        out[i : i + step] = tail + head
    return out.reshape(x.shape)
