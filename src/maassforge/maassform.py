"""The theta cusp form of a class character: evaluation and verification.

Theta(z) = sum over ideals of psi(a) sqrt(y) K_0(2 pi N(a) y) cos(2 pi N(a) x)
(cosine for even sign exponent, sine for odd; see HeckeCharacter.epsilon),
collected by norm:

    Theta(z) = sum_{n>=1} a'(n) sqrt(y) K_0(2 pi n y) cos(2 pi n x)

with a'(n) the Hecke L-coefficients.  It is an eigenfunction of the
hyperbolic Laplacian with eigenvalue 1/4 on Gamma_0(D) with nebentypus
chi_D, and satisfies Theta_psi(z) = T(psi) Theta_psibar(-1/(Dz)) with
T(psi) = (-1)^epsilon, where Theta_psibar = Theta_psi.

Verification is numerical: automorphy and functional-equation residuals,
a finite-difference eigenvalue check with Richardson ratio, and decay at
the cusps.  Theta is evaluated at any height y > 0, as a real sum over
the real a'(n) != 0 of lseries.support: about 7.2/y coefficient rows, under
lseries.ROW_BUDGET.  They are few: 2,325 of the n <= 11,100 that
check-automorphy --samples 2 reads for D = 229, index 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import BudgetError
from .heckechar import HeckeCharacter, NormInducedError
from .lseries import support
from .quadfield import SIEVE_CHUNK, _xgcd
from .special import bessel_k0_array

TRUNCATION_EXPONENT = 45.0  # keep terms with 2 pi n y <= this
EIGENVALUE = 0.25  # 1/4 - nu^2 with spectral parameter nu = 0
EIGENVALUE_STEP = 0.04  # the largest of check_eigenvalue's three stencil steps
SAMPLE_C_MULTIPLES = 3  # gamma0_matrices takes c = level, 2 level, 3 level in turn
# check-automorphy's points on each isometric circle; the lowest, sin(0.3)/|c|,
# sets the rows: 45 |c| / (2 pi sin 0.3) = 24.2 |c|, 72.7 D at c = 3D
ISOMETRIC_ANGLES = (0.3, 0.5, 0.7, 0.9, 1.2)
PHASE_BITS = 10  # eval reads cos(2 pi x n) from tables of 2^10 and n/2^10 entries


class ThetaForm:
    """Maass cusp form attached to a non-norm-induced class character;
    a norm-induced one raises NormInducedError."""

    def __init__(self, character: HeckeCharacter):
        if character.is_norm_induced():
            raise NormInducedError(character)
        self.character = character
        self.level = character.field.D  # conductor (1): level D * N(f) = D

    # -- evaluation -----------------------------------------------------

    def truncation_index(self, y: float) -> int:
        return max(2, int(TRUNCATION_EXPONENT / (2 * math.pi * y)) + 1)

    def tail_bound(self, y: float, n_cut: int) -> float:
        """Crude bound sum_{n>n_cut} d(n) sqrt(y) e^(-2 pi n y) for the
        dropped terms, using d(n) <= n and K_0(t) <= sqrt(pi/(2t)) e^-t <= e^-t
        for t >= pi/2 (not for all t > 1: K_0(1.2) = 0.318 > e^-1.2 = 0.301).
        With n_cut = truncation_index(y) the dropped terms have
        t = 2 pi n y > TRUNCATION_EXPONENT = 45."""
        q = math.exp(-2 * math.pi * y)
        # sum n q^n from n_cut+1: q^(n+1) ((n+1)(1-q) + q)/(1-q)^2
        n = n_cut + 1
        return math.sqrt(y) * q**n * ((n * (1 - q) + q) / (1 - q) ** 2)

    def eval(self, x, y):
        """Theta at the points z = x + iy, x and y scalars or arrays that
        broadcast together, by truncated Fourier expansion summed over the
        support of a': a float at a scalar point, else an array of the points'
        shape.  Each distinct height takes its support once, the lowest first,
        so that the first builds the table at the size all of them need, and
        walks it one SIEVE_CHUNK block at a time: K_0 of the block once, then
        each point's (K_0 phase) a', whose np.sum joins the point's running
        sum, its phase tables held meanwhile.  No array over the whole support
        is made, and a support of one block is summed as one np.sum.

        K_0 is shared per height, not made per point, because the automorphy
        check's heights repeat: its points lie on isometric circles, where
        z = -d/c + e^(i phi)/|c| and gamma z both sit at sin(phi)/|c| (gamma z
        to within a rounding that varies with d), so matrices of equal c share
        the heights of z, and often those of gamma z (--samples 100 on
        D = 229 evaluates 1,000 points at 355 heights).  One buffer with K_0
        made per point, heights in the same order, gave the same bytes and
        tied at --samples 2 (0.017 vs 0.015 s in process), but took 0.29-0.31 s
        against 0.15-0.17 s at --samples 100 (medians of 15, 2-core Xeon)."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
        xs, ys = x.ravel().tolist(), y.ravel().tolist()
        if any(v <= 0 for v in ys):
            raise ValueError("y must be positive")
        out = np.empty(len(ys))
        at = {}  # height -> its points, in order, found in one pass
        for i, v in enumerate(ys):
            at.setdefault(v, []).append(i)
        for h, points in sorted(at.items()):
            n, a = support(self.character, self.truncation_index(h))
            # Theta has period 1 in x, and x - round(x) is exact, while the
            # cosine of a huge x keeps no digits
            tables = [_phase_tables(xs[i] - round(xs[i]), int(n[-1])) for i in points]
            sums = [-0.0] * len(points)  # -0.0 + s is s for every float s, -0.0 too
            for lo in range(0, n.size, SIEVE_CHUNK):
                block = slice(lo, lo + SIEVE_CHUNK)
                k0 = bessel_k0_array(2 * math.pi * h * n[block])
                for j, t in enumerate(tables):
                    kv = k0 * _phase(t, n[block], odd=self.character.epsilon == 1)
                    kv *= a[block]
                    sums[j] += np.sum(kv)
            out[points] = [math.sqrt(h) * s for s in sums]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def truncation_report(self, ys) -> dict:
        """What evaluations at the heights ys used, each the worst over them:
        the largest truncation N, the terms summed up to it, and the largest
        tail bound."""
        cuts = [self.truncation_index(y) for y in ys]
        n_cut = max(cuts)
        return {
            "truncation": n_cut,
            "terms": len(support(self.character, n_cut)[0]),
            "tail_bound": max(self.tail_bound(y, c) for y, c in zip(ys, cuts)),
        }

    # -- verifications --------------------------------------------------

    def check_automorphy(self, checks) -> "CheckReport":
        """max |Theta(gamma z) - chi_D(d) Theta(z)| over the (gamma, points)
        pairs of checks, gamma in Gamma_0(D), and the points z of each; the
        details add the truncation_report of every evaluation.  Raises
        BudgetError, before any row is built, if the evaluations need more
        than lseries.ROW_BUDGET coefficient rows, or a gamma z is too low for
        float64 to count its rows."""
        points, ds = [], []  # gamma z then z, for each z; d mod D of its gamma
        for (a, b, c, d), zs in checks:
            if a * d - b * c != 1 or c % self.level != 0:
                raise ValueError(f"({a},{b},{c},{d}) is not in Gamma_0({self.level})")
            for x, y in zs:
                # (az + b)/(cz + d) cancels near x = -d/c; a/c - 1/(c (cz + d)), with
                # Re(cz + d) from the exact x, keeps Im(gamma z) = y/|cz + d|^2 to rounding
                if c:
                    try:
                        w = a / c - 1 / (c * complex(c * Fraction(x) + d, c * y))
                    except OverflowError:  # |cz + d| past float64: Im(gamma z) rounds to 0
                        w = complex(a / c, 0.0)
                else:
                    w = (a * (x + 1j * y) + b) / d
                points += [(w.real, w.imag), (x, y)]
                ds.append(d % self.level)  # an int64 for chi, however long d is
        ys = [y for _, y in points]
        # a huge c or d/c can put Im(gamma z) below every float64 height whose
        # row count 45/(2 pi y) is finite, let alone under the row budget
        if not all(v > 0 and TRUNCATION_EXPONENT / (2 * math.pi * v) < math.inf for v in ys):
            raise BudgetError("a point gamma z lies below every height of finite row count")
        v = self.eval(*np.reshape(points, (-1, 2)).T)
        chis = self.character.field.chi(np.array(ds, dtype=np.int64))
        residuals = np.abs(v[0::2] - chis * v[1::2])
        return CheckReport(
            "automorphy", float(residuals.max()), {"count": len(ds), **self.truncation_report(ys)}
        )

    def check_eigenvalue(self, x: float, y: float) -> "CheckReport":
        """-y^2 (five-point Laplacian) vs 1/4; Richardson ratio of
        successive halvings should be ~4 for the O(h^2) stencil."""

        hs = [EIGENVALUE_STEP / 2**k for k in range(3)]
        f0, *f = self.eval(
            [x] + [v for hh in hs for v in (x + hh, x - hh, x, x)],
            [y] + [v for hh in hs for v in (y, y, y + hh, y - hh)],
        ).tolist()
        e1, e2, e3 = (
            -y * y * ((f[j] + f[j + 1] + f[j + 2] + f[j + 3] - 4 * f0) / (hh * hh)) / f0
            for j, hh in zip(range(0, 12, 4), hs)
        )
        ratio = (e1 - e2) / (e2 - e3)
        err = abs(e3 - EIGENVALUE)
        return CheckReport(
            "eigenvalue",
            err,
            {"richardson_ratio": ratio, "fd_values": [e1, e2, e3], "target": EIGENVALUE},
        )

    def check_functional_equation(self, points) -> "CheckReport":
        """max over z = x + iy of |Theta_psi(z) - T Theta_psibar(-1/(D z))|.

        Theta_psibar is Theta_psi bit for bit, so self stands on both sides:
        psibar has t' = -t mod h at every prime, lseries._sin_pi reduces 2t'
        and 2t to exactly negated angles, and np.sin is odd, so every local
        factor, and hence every a'(n), is the same float64.  Points off the
        imaginary axis are needed for odd psi: the sine series vanishes on it."""
        T = self.character.root_number()
        ws = [-1.0 / (self.level * complex(x, y)) for x, y in points]
        v = self.eval(*np.reshape(list(points) + [(w.real, w.imag) for w in ws], (-1, 2)).T)
        res = np.abs(v[: len(ws)] - T * v[len(ws) :])
        return CheckReport(
            "functional_equation", float(res.max()), {"points": list(points), "root_number": T}
        )

    def check_cuspidal_decay(self, ys) -> "CheckReport":
        """Verify |Theta(iy)| <= C e^(-2 pi y) at the cusp at infinity and,
        via the Fricke relation, at the cusp 0."""
        worst, data = 0.0, {}
        for y, v in zip(ys, np.abs(self.eval(0.0, ys)).tolist()):
            bound = 2.0 * math.sqrt(y) * math.exp(-2 * math.pi * y)
            data[y] = (v, bound)
            worst = max(worst, v / bound if bound > 0 else math.inf)
        return CheckReport("cuspidal_decay", worst, {"ratio_vs_bound": data})


def _turns(x: float, m: np.ndarray) -> np.ndarray:
    """x m mod 1 in [-1/2, 1/2], within 5u (u = 2^-53), for |x| <= 1/2 and
    int64 0 <= m < 2^22.

    x = k 2^-20 + r exactly, with k = round(x 2^20) and |r| <= 2^-21: the
    first part is (k m mod 2^20) 2^-20 in exact integer arithmetic, and
    r m, at most 2 in size, is rounded once (2u), as is the sum (3u)."""
    k = round(x * 2**20)
    t = (k * m) % (1 << 20) / 2**20 + (x - k / 2**20) * m
    return t - np.round(t)


def _phase_tables(x: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """e^(2 pi i x l) for 0 <= l < 2^PHASE_BITS, l <= n_max, and
    e^(2 pi i x 2^PHASE_BITS j) for 2^PHASE_BITS j <= n_max, with the angles
    from _turns: the two short tables _phase reads, for |x| <= 1/2 and
    n_max < 2^22.  eval holds those of every point of a height at once."""
    lo = np.exp(2j * np.pi * _turns(x, np.arange(min(1 << PHASE_BITS, n_max + 1))))
    hi = np.exp(2j * np.pi * _turns(x, np.arange((n_max >> PHASE_BITS) + 1) << PHASE_BITS))
    return lo, hi


def _phase(tables: tuple[np.ndarray, np.ndarray], n: np.ndarray, odd: bool) -> np.ndarray:
    """cos(2 pi x n), or sin(2 pi x n) when odd, for an int64 array of n up
    to the n_max of the _phase_tables of x (lseries.ROW_BUDGET is below
    2^22).

    With n = 2^PHASE_BITS j + l, 0 <= l < 2^PHASE_BITS, e^(2 pi i x n) is the
    product of e^(2 pi i x l) and e^(2 pi i x 2^PHASE_BITS j), read from the
    two tables.  Each angle is then within 12 pi u of the exact one (5u
    turns, and u pi each for 2 pi and the product, as |2 pi t| <= pi), and
    numpy's e^(ia) has the parts cos a and sin a, each within 2u of the
    exact ones at the float a, so both parts of every table entry are within
    d = (12 pi + 2)u.  The parts of the product, cos a cos b - sin a sin b
    and sin a cos b + cos a sin b of entries of size at most 1, are then
    within 4d + 3u = (48 pi + 11)u < 162u < 1.8e-14 of the exact values.
    Taken directly, cos(2 pi x n) rounds 2 pi x and then the angle, each by
    up to 2 pi |x| n u: 7e-10 in all at n = 10^6 and x = 1/2."""
    lo, hi = tables
    e = hi.take(n >> PHASE_BITS)
    e *= lo.take(n & ((1 << PHASE_BITS) - 1))
    return e.imag if odd else e.real


@dataclass
class CheckReport:
    name: str
    residual: float
    details: dict


def isometric_circle_points(c: int, d: int) -> list[tuple[float, float]]:
    """The points z = -d/c + e^(i phi)/|c|, phi in ISOMETRIC_ANGLES, on the
    isometric circle |cz + d| = 1 of the matrices with bottom row (c, d),
    c != 0.  There Im(gamma z) = Im(z)/|cz + d|^2 = Im(z) = sin(phi)/|c|, so
    z and gamma z need the same 45 |c| / (2 pi sin phi) rows, linear in c.
    Each coordinate is one correctly rounded quotient of integers, from the
    exact ratios of the float cos(phi) and sin(phi), so that no c or d is
    converted to a float: a c past the float64 range gives height 0."""
    sign = 1 if c > 0 else -1
    points = []
    for phi in ISOMETRIC_ANGLES:
        (p, q), (r, t) = math.cos(phi).as_integer_ratio(), math.sin(phi).as_integer_ratio()
        points.append(((p - q * sign * d) / (q * abs(c)), r / (t * abs(c))))
    return points


def gamma0_matrix(c: int, d: int) -> tuple[int, int, int, int]:
    """The matrix (a, b, c, d) of determinant 1 with bottom row (c, d), for
    gcd(c, d) = 1: it lies in Gamma_0(D) when D | c."""
    _, a, mb = _xgcd(d, c)  # a*d + mb*c = 1
    return a, -mb, c, d


def gamma0_matrices(level: int, count: int) -> list[tuple[int, int, int, int]]:
    """Deterministic sample of count matrices in Gamma_0(level), with
    |c| <= SAMPLE_C_MULTIPLES * level."""
    out: list[tuple[int, int, int, int]] = []
    i = 0
    while len(out) < count:
        c = (i % SAMPLE_C_MULTIPLES + 1) * level
        d = 2 + i  # varies the bottom-right entry deterministically
        i += 1
        if math.gcd(c, d) == 1:
            out.append(gamma0_matrix(c, d))
    return out
