"""Hecke L-series of class characters: the coefficients a'(n) and L(1).

a'(n), the sum of psi over the ideals of norm n, is multiplicative, and
a'(p^e) has a closed form in chi_D(p) and psi(P) for a prime P above p
(_local_factor).  A coefficient table keeps only what every character of a
field shares: for each odd n, p^e || n for the smallest prime p of n (for
even n it is the lowest set bit of n), and chi_D(p) and the class of a
prime above p for each prime p, found for arrays of primes
(ClassGroup.prime_classes, on QuadField.prime_roots) with no Python call per
prime, for any narrow class group.  A character's coefficients are read from
it by one route, support(): it takes psi(P) from the character's exponent t
at the class of P, fills b(n) = b(n/p^e) a'(p^e) in passes, with the
a'(n) = 0 exactly 0.0, keeps each pass's others, and holds a dense float64
row only over the odd n <= n_max/2 that are read as cofactors.  A table is
built once, at the size asked for; a request for more rows builds a new one
in its place.

L(1) is computed two independent ways: an approximate functional equation
whose terms are weighted by incomplete K_0-Mellin transforms, summed as
arrays over the support (exact for any choice of the split point, which
provides an internal consistency dial), and Zagier's Kronecker limit formula
over the cycles of reduced forms of each class, which reads no coefficient.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from . import BudgetError, SplitPointError
from .classforms import ClassGroup
from .heckechar import HeckeCharacter
from .quadfield import SIEVE_CHUNK, _primes_up_to
from .special import EULER_GAMMA, incomplete_k_mellin


# Largest coefficient table ClassCountTable builds.  For D = 229 (h = 3) the
# peak RSS of check-automorphy is about 31 MB plus 9-12 bytes per row: 31.6 MB
# at its default of 3 matrices (16,650 rows), and for the one matrix of bottom
# row (229 k, 1), 34.7 MB at 3.1e5 rows, 43.5 at 1.22e6, 56.8 at 2.75e6 and
# 68.2 at 4.0e6 (medians of 3 cold runs): the table keeps 2 bytes per row,
# the index of p^e || n for the smallest prime p of each odd row, a
# character's dense row takes 2 more while it is filled, over the odd
# n <= n_max/2, and the rest is its support and temporaries of one
# SIEVE_CHUNK block, Theta's evaluations among them.
# D = 3305 (h = 12) peaked at 70.5 MB on 3.9e6 rows (c = 49 D).
# Below the budget every prime p of a table has p^2 < 2^62, so the int64
# arithmetic of ClassGroup.prime_classes cannot overflow, and every n is
# below the 2^22 of maassform._phase.
ROW_BUDGET = 4_000_000


class ClassCountTable:
    """What every class character of a field shares for its coefficients
    a'(n), n <= n_max.  q lists the primes p <= n_max, ascending, then the
    p^e <= n_max with e >= 2 of the primes up to sqrt(n_max); primes is its
    prefix.  For odd n >= 3, at[(n - 3)//2] is the index in q of p^e || n for
    the smallest prime p of n.  For even n that prime power is 2^e = n & -n,
    the lowest set bit of n, whose index in q is _two[e - 1], so at keeps no
    even row.  chi_D(p) and the class of a prime above p (0 for inert p) of
    every prime come from one ClassGroup.prime_classes call.  support()
    fills and keeps each character's nonzero coefficients."""

    def __init__(self, classgroup: ClassGroup, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {n_max}")
        if n_max > ROW_BUDGET:
            raise BudgetError(f"a'(n) up to n = {n_max} is over the budget of {ROW_BUDGET} rows")
        self.h = classgroup.h_narrow
        self.n_max = n_max
        # character index -> (n with b(n) != 0, those b(n))
        self._supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the odd primes up to sqrt(n_max) mark their odd multiples, the
        # smallest last, and each then the odd multiples of its p^e in
        # ascending e, as -2 - (the place of p^e among the higher powers)
        # until the primes are counted.  The odd rows none marks are the
        # primes above sqrt(n_max).  2 marks nothing, so it heads small from
        # n_max = 2 on, and its powers come last.
        small = _primes_up_to(max(math.isqrt(n_max), min(n_max, 2)))
        self.at = np.full(max((n_max - 1) // 2, 0), -1, dtype=np.int32)
        high = []  # (index of p, e) of each higher power p^e, as marked
        for j in range(small.size - 1, 0, -1):
            p = int(small[j])
            self.at[(p - 3) // 2 :: p] = j
            e = 2
            while p**e <= n_max:
                self.at[(p**e - 3) // 2 :: p**e] = -2 - len(high)
                high.append((j, e))
                e += 1
        odd_powers = len(high)
        high += [(0, e) for e in range(2, n_max.bit_length())]
        new = np.flatnonzero(self.at == -1)
        self.at[new] = np.arange(small.size, small.size + new.size)
        count = small.size + new.size
        np.subtract(count - 2, self.at, out=self.at, where=self.at < 0)
        self._two = [0, *range(count + odd_powers, count + len(high))]
        self._base, self._e = np.array(high, dtype=np.int64).reshape(-1, 2).T
        self.q = np.concatenate([small, 2 * new + 3, small[self._base] ** self._e])
        self.primes = self.q[:count]
        self.chi, self.classes = classgroup.prime_classes(self.primes)

    def support(self, character: HeckeCharacter, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The n <= n_max with b(n) != 0, ascending, and those b(n), as
        read-only float64 arrays.  The first call for a character fills its
        support over the whole table (_row), where b(n) is exactly 0.0 when a
        local factor is, and keeps it; every call cuts it at n_max."""
        if n_max > self.n_max:
            raise ValueError("table too small")
        if character.index not in self._supports:
            n, b = self._row(character)
            n.flags.writeable = b.flags.writeable = False
            self._supports[character.index] = n, b
        n, b = self._supports[character.index]
        cut = np.searchsorted(n, n_max, side="right")
        return n[:cut], b[:cut]

    def _row(self, character: HeckeCharacter) -> tuple[np.ndarray, np.ndarray]:
        """The n <= n_max with b(n) != 0 and those b(n): b(1) = 1 and
        b(n) = b(n/q) a'(q) for the table's q = p^e || n, SIEVE_CHUNK rows a
        pass, the local factors from _local_factor.  Every cofactor n/q is
        odd: for even n it is n/2^e, and for odd n a divisor of n.  It is
        also at most n/2, so the dense float64 row keeps b(m) at m >> 1 for
        the odd m <= n_max/2 alone, and each pass keeps its own nonzero rows.
        The even n = 2^e m of a pass, for each e, are one stride-2^(e+1)
        slice, and their odd m one run of consecutive m >> 1."""
        t = character.t[self.classes]
        # a'(q) of every entry of q: the primes at e = 1, then the higher powers
        f = _local_factor(self.h, self.chi, t, 1)
        f = np.concatenate([f, _local_factor(self.h, self.chi[self._base], t[self._base], self._e)])
        del t  # one array fewer at the fill's peak
        half = self.n_max // 2
        b = np.zeros((half + 1) // 2)
        b[:1] = 1.0  # the unit ideal
        one = min(self.n_max, 1)  # its row, when the table has one
        ns, bs = [np.ones(one, dtype=np.int64)], [np.ones(one)]
        lo = 1
        while lo < self.n_max:
            # n/q <= n/2 <= lo, so every row a pass reads is already filled
            hi = min(self.n_max, 2 * lo, lo + SIEVE_CHUNK)
            v = np.empty(hi - lo)  # b(n), n = lo + 1..hi
            # the odd n from first on: q | n < 2^53, so the float quotient is exact
            first = (lo + 1) | 1
            at = self.at[(first - 3) // 2 : (hi - 1) // 2]
            m = np.arange(first, hi + 1, 2.0)
            m /= self.q.take(at)
            odd = b.take(m.astype(np.intp) >> 1) * f.take(at)
            v[first - lo - 1 :: 2] = odd
            if first <= half:
                end = (min(hi, half) + 1) // 2
                b[first >> 1 : end] = odd[: end - (first >> 1)]
            for e in range(1, hi.bit_length()):
                # the n = 2^e m, m odd, from the first n0 = 2^e mod 2^(e+1)
                n0 = lo + 1 + ((1 << e) - lo - 1) % (2 << e)
                rows = v[n0 - lo - 1 :: 2 << e]
                np.multiply(b[n0 >> (e + 1) :][: rows.size], f[self._two[e - 1]], out=rows)
            keep = np.flatnonzero(v != 0)  # a bool pass: 3x faster on float64
            ns.append(keep + (lo + 1))
            bs.append(v[keep])
            lo = hi
        del b
        return np.concatenate(ns), np.concatenate(bs)


def _sin_pi(u: np.ndarray, h: int) -> np.ndarray:
    """sin(pi u/h) for an int64 array u, the angle first reduced exactly to
    [-pi/2, pi/2]: x = 2u mod 4h is taken in [-h, 3h), and sin(pi x/2h) =
    sin(pi (2h - x)/2h) folds x > h below h.  The sine is exactly 0.0 when
    h | u, and otherwise within 2.5 eps of the exact value relative to it
    (eps = 2^-52): the angle is within 1.5 eps of the exact one (pi, the
    product and the quotient each round by eps/2), which moves sin a by at
    most |a cot a| <= 1 times as much at |a| <= pi/2, and numpy's sine is
    within an ulp, eps."""
    x = (2 * u + h) % (4 * h) - h
    return np.sin(np.pi * np.minimum(x, 2 * h - x) / (2 * h))


def _local_factor(h: int, chi: np.ndarray, t: np.ndarray, e: np.ndarray | int) -> np.ndarray:
    """a'(p^e), the sum of psi over the ideals of norm p^e, for arrays of
    chi_D(p), e >= 1 (or one e) and t, where psi(P) = exp(i theta),
    theta = 2 pi t/h, for the prime P above p and t the character's
    exponent at its class.

    Split p: (p) = P P' with P' = sigma(P), and P P' = (p) is principal and
    totally positive, so psi(P') = exp(-i theta).  The ideals of norm p^e
    are P^j P'^(e-j), j = 0..e, and a'(p^e) = sum_j exp(i (2j - e) theta) =
    sin((e+1) theta)/sin theta, a geometric sum, or (e + 1) psi(P)^e where
    sin theta = 0, that is psi(P) = +-1 and 2t = 0 mod h.  Otherwise it is
    0 exactly when 2(e + 1)t = 0 mod h, and _sin_pi gives exactly 0.0 there.
    Ramified p: (p) = P^2 is principal and totally positive, so
    psi(P) = +-1 (2t = 0 mod h), and P^e is the one ideal of norm p^e:
    a'(p^e) = psi(P)^e.  Inert p: (p) is prime, of norm p^2, principal and
    totally positive, so a'(p^e) is 1 at even e and 0 at odd e.

    a'(n) is therefore real, and it is an integer when 6t or 4t = 0 mod h,
    which holds at every p for a character of order 1, 2, 3, 4 or 6: theta
    is then a multiple of pi/3 or pi/2, so |sin((e+1) theta)| is 0 or
    |sin theta|.  _sin_pi reduces both angles to the same integer over 2h,
    and with np.sin(-a) = -np.sin(a) the quotient is exactly 0 or +-1, so
    such a character gets exact integer a'(n).  Any other factor is a
    quotient of two sines within 5.5 eps of its value; b(n) multiplies at
    most 7 factors (n <= ROW_BUDGET < 2 3 5 7 11 13 17 19), so it is within
    7 * 5.5 eps + 6 eps/2 = 41.5 eps, 9.3e-15, of |b(n)|."""
    pm = np.where(t == 0, 1.0, -1.0) ** e  # psi(P)^e where psi(P) = +-1
    out = np.where(chi == 0, pm, (e + 1) % 2)  # ramified, then inert p
    # the split branch on the split primes alone
    split = np.flatnonzero(chi == 1)
    t, e = t[split], np.broadcast_to(e, chi.shape)[split]
    sin_theta = _sin_pi(2 * t, h)
    out[split] = np.divide(_sin_pi(2 * (e + 1) * t, h), sin_theta, out=(e + 1) * pm[split], where=sin_theta != 0)
    return out


def support(character: HeckeCharacter, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The n <= n_max with a'(n) != 0 for the class character, ascending,
    and those real a'(n) (ClassCountTable.support), from its class group's
    table if that has at least n_max rows, else from a new table of exactly
    n_max rows, which replaces it.  The old table is dropped first, so the
    two are never held together."""
    cg = character.classgroup
    if cg.count_table is None or cg.count_table.n_max < n_max:
        cg.count_table = None
        cg.count_table = ClassCountTable(cg, n_max)
    return cg.count_table.support(character, n_max)


# -- L(1) ----------------------------------------------------------------


SPLIT_POINT_TOL = 1e-9  # largest difference of the AFE's L(1) at split points 1 and 2
# largest difference of the AFE's L(1) and the reduced cycles': 8.9e-15 was
# the most measured over 15 characters with D up to 40009, 4.7e-14 at D = 78327121
ORACLE_TOL = 1e-11


def l_value_at_1_afe(character: HeckeCharacter, cutoff: float = 1.0) -> float:
    """L(1, psi) by the completed-L split-integral identity.

    With G_s(x) = int_x^oo K_0(u) u^(s-1) du the incomplete K_0-Mellin
    transform, epsilon the sign exponent of psi and Y' = 1/(D Y), for any
    split point Y > 0:

        L(1) = c [sum_n b(n) G_(1+eps)(2 pi n Y)/(2 pi n)
                  + D^(-1/2) sum_n b(n) G_eps(2 pi n Y')],

    with c = 4 for even psi and c = 2 pi for odd psi.  For odd psi that is
    sum b(n) G_2(2 pi n Y)/n + (2 pi/sqrt(D)) sum b(n) G_1(2 pi n Y').
    Both sums run over the support of b, up to the n1 and n2 at which
    2 pi n Y and 2 pi n Y' pass 55.

    The coefficients of psibar are conj(b(n)) = b(n), as b(n) is real
    (_local_factor), so psi and psibar share them below.

    Even psi: F(y) = Theta(iy)/sqrt(y) = sum b(n) K_0(2 pi n y) has Mellin
    transform (2 pi)^(-s) 2^(s-2) Gamma(s/2)^2 L(s, psi), which is L(1)/4 at
    s = 1.  The Fricke relation with T = 1 gives F_psi(y) =
    (D y^2)^(-1/2) F_psibar(1/(D y)), so int_Y^oo F dy =
    sum b(n) G_1(2 pi n Y)/(2 pi n) and int_0^Y F dy =
    D^(-1/2) int_Y'^oo F_psibar(t) dt/t = D^(-1/2) sum b(n) G_0(2 pi n Y').

    Odd psi: the sine series vanishes on the imaginary axis, so take
    F(y) = d_x Theta(iy)/(2 pi sqrt(y)) = sum n b(n) K_0(2 pi n y), whose
    Mellin transform at s + 1 is (2 pi)^(-s-1) 2^(s-1) Gamma((s+1)/2)^2
    L(s, psi): at s = 1 that is L(1)/(4 pi^2).  Differentiating
    Theta_psi(z) = T Theta_psibar(-1/(D z)) in x at z = iy, where the map
    has real derivative -1/(D y^2), gives with T = -1
    F_psi(y) = D^(-3/2) y^(-3) F_psibar(1/(D y)).  Hence int_Y^oo F y dy =
    sum b(n) G_2(2 pi n Y)/(2 pi n)^2 and int_0^Y F y dy =
    D^(-1/2) int_Y'^oo F_psibar dy = D^(-1/2) sum b(n) G_1(2 pi n Y')/(2 pi).

    cutoff rescales Y = cutoff/sqrt(D); the value is cutoff-independent.
    """
    if character.is_trivial():
        raise ValueError("L(s, trivial) has a pole at s = 1")
    eps = character.epsilon
    D = character.field.D
    Y = cutoff / math.sqrt(D)
    Yp = 1.0 / (D * Y)
    tail = 55.0
    n1 = max(4, int(tail / (2 * math.pi * Y)) + 1)
    n2 = max(4, int(tail / (2 * math.pi * Yp)) + 1)
    n, b = support(character, max(n1, n2))
    k1, k2 = np.searchsorted(n, [n1, n2], side="right")
    x = 2 * math.pi * n
    total = np.sum(b[:k1] * incomplete_k_mellin(1.0 + eps, x[:k1] * Y) / x[:k1])
    dual = np.sum(b[:k2] * incomplete_k_mellin(float(eps), x[:k2] * Yp))
    return float((2 * math.pi if eps else 4) * (total + dual / math.sqrt(D)))


# phi(t) = psi_0(t) - log t ~ sum c t^-k as t -> oo, as (k, c): -1/(2t) and
# the seven Bernoulli terms -B_2j/(2j t^2j); at t >= 10 the first left out,
# B_16/(16 t^16), is below 5e-17
_PHI_SERIES = ((1, -1 / 2), (2, -1 / 12), (4, 1 / 120), (6, -1 / 252), (8, 1 / 240),
               (10, -1 / 132), (12, 691 / 32760), (14, -1 / 12))
_EM_SERIES = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)
F_TERMS = 40  # F(x), x >= 1, sums its first F_TERMS terms, the rest by series
_N = np.arange(1.0, F_TERMS + 1)
# phi's series summed over n > F_TERMS, as (k, c zeta(k + 1, A)) with
# A = F_TERMS + 1: each Hurwitz zeta by Euler-Maclaurin, A^-k/k + A^(-k-1)/2
# + sum_j B_2j/(2j)! (k + 1)_(2j-1) A^(-k-2j) with _EM_SERIES the B_2j/(2j)!,
# j = 1..4, whose first term left out moves F by below 1e-19
_A = F_TERMS + 1.0
_F_TAIL = [
    (k, c * (_A**-k / k + _A ** (-k - 1) / 2
             + sum(b * math.prod(range(k + 1, k + 2 * j)) * _A ** (-k - 2 * j) for j, b in enumerate(_EM_SERIES, 1))))
    for k, c in _PHI_SERIES
]
# F(1) = -gamma^2/2 - pi^2/12 - gamma_1, Stieltjes' gamma_1 = -0.0728158...
F_ONE = -EULER_GAMMA**2 / 2 - math.pi**2 / 12 + 0.07281584548367672486


def _phi(t: np.ndarray) -> np.ndarray:
    """psi_0(t) - log t for a float64 array t > 0: its asymptotic series at
    t >= 10, and below 10 at t + 10, by psi_0(t) = psi_0(t + 10) -
    sum_{j<10} 1/(t + j)."""
    low = t < 10
    u = np.where(low, t + 10, t)
    r2 = 1 / (u * u)
    out = np.zeros_like(u)
    for _, c in _PHI_SERIES[:0:-1]:  # Horner in 1/u^2
        out = (out + c) * r2
    out -= 0.5 / u
    t = t[low]
    out[low] += np.log1p(10 / t) - sum(1 / (t + j) for j in range(10))
    return out


def _li2(z: np.ndarray) -> np.ndarray:
    """The dilogarithm Li_2(z) for a float64 array 0 < z < 1: sum z^k/k^2 to
    k = 48 at z <= 1/2, where the terms left out sum to below 2 z^49/49^2 <
    1.6e-18, and Li_2(z) = pi^2/6 - log z log(1 - z) - Li_2(1 - z) above."""
    high = z > 0.5
    x = np.where(high, 1 - z, z)
    out = np.zeros_like(x)
    for k in range(48, 0, -1):
        out = (out + 1 / (k * k)) * x
    return np.where(high, math.pi**2 / 6 - np.log(z) * np.log1p(-z) - out, out)


def _f_series(x: np.ndarray) -> np.ndarray:
    """F(x) = sum_{n>=1} phi(n x)/n, phi(t) = psi_0(t) - log t, for a float64
    array x >= 1 (below 1, _f_reflected).  The first F_TERMS terms are one
    _phi of the products n x, n = 1..F_TERMS, SIEVE_CHUNK // F_TERMS
    arguments a block; beyond them n x > 40, where phi's series holds, and
    they are _F_TAIL."""
    out = np.empty_like(x)
    step = SIEVE_CHUNK // F_TERMS
    for lo in range(0, x.size, step):
        out[lo : lo + step] = _phi(np.multiply.outer(x[lo : lo + step], _N)) @ (1 / _N)
    for k, c in _F_TAIL:
        out += c * x**-k
    return out


def _f_reflected(y: np.ndarray) -> np.ndarray:
    """F(1/y) for a float64 array y >= 1 by F's reflection (S. Radchenko and
    D. Zagier, "Arithmetic properties of the Herglotz function"):
    F(x) + F(1/x) = 2 F(1) + log(x)^2/2 - (pi^2/6)(x + 1/x - 2)."""
    return 2 * F_ONE + 0.5 * np.log(y) ** 2 - math.pi**2 / 6 * (y + 1 / y - 2) - _f_series(y)


def _cycles(classgroup: ClassGroup) -> tuple[np.ndarray, np.ndarray]:
    """The forms (a, b, c) of the cycle of Zagier-reduced forms of every
    narrow class, as a (3, forms) float64 array, and the class of each.

    Each class's orbit starts from its class_ideals form (a, b, c), a > 0,
    and steps (a, b, c) -> (a n^2 - b n + c, 2 a n - b, a), n = floor(w) + 1
    = floor((b + isqrt(D))/2a) + 1, in Python ints: that is w -> 1/(n - w),
    a matrix of SL_2(Z), so the class is kept, and a stays positive.  Every
    orbit reaches the reduced forms (c > 0 and b > a + c), and the step
    permutes them (D. Zagier, "Zetafunktionen und quadratische Koerper",
    13), so the orbit's first reduced form lies on its cycle, which is
    walked until it returns there, its forms collected in one int64
    array("q"), 24 bytes a form.  A cycle's forms have
    a, c < b < D, as D = (b - a - c)(b + a + c) + (a - c)^2 > b, so they are
    exact in float64."""
    D = classgroup.field.D
    r, s = math.isqrt(D), classgroup.field.s

    def step(a: int, b: int, c: int) -> tuple[int, int, int]:
        n = (b + r) // (2 * a) + 1
        return a * n * n - b * n + c, 2 * a * n - b, a

    forms, sizes = array("q"), []
    for I in classgroup.class_ideals:
        b = 2 * I.b + s
        form = (I.a, b, (b * b - D) // (4 * I.a))
        while form[2] <= 0 or form[1] <= form[0] + form[2]:
            form = step(*form)
        start, size = form, len(forms)
        while True:
            forms.extend(form)
            form = step(*form)
            if form == start:
                break
        sizes.append((len(forms) - size) // 3)
    cycle = np.frombuffer(forms, dtype=np.int64).reshape(-1, 3).T.astype(float)
    return cycle, np.repeat(np.arange(len(sizes)), sizes)


def _cycle_sums(classgroup: ClassGroup) -> np.ndarray:
    """The sum of P(w, w') over each narrow class's cycle (_cycles), by
    class: see l_value_at_1_direct.  w' = 2c/(b + sqrt(D)) < 1, its inverse,
    w - w' = sqrt(D)/a and w/w' = (b + sqrt(D))^2/4ac lose no digits, where
    (b - sqrt(D))/2a would cancel; F(w') comes from F(1/w') (_f_reflected)."""
    (a, b, c), classes = _cycles(classgroup)
    D = classgroup.field.D
    sqrt_d = math.sqrt(D)
    w, wp = (b + sqrt_d) / (2 * a), 2 * c / (b + sqrt_d)
    log_q = np.log(w / wp)
    p = (_f_series(w) - _f_reflected((b + sqrt_d) / (2 * c)) + _li2(wp / w) - math.pi**2 / 6
         + log_q * (EULER_GAMMA - 0.5 * (0.5 * math.log(D) - np.log(a)) + 0.25 * log_q))
    return np.bincount(classes, p, minlength=classgroup.h_narrow)


def l_value_at_1_direct(character: HeckeCharacter) -> float:
    """L(1, psi) from the reduced cycles, by Zagier's Kronecker limit formula
    (D. Zagier, "A Kronecker limit formula for real quadratic fields", Math.
    Ann. 213 (1975)): no coefficient, no K_0 and no AFE, only the class group.

    For a form [a, b, c] with a, c > 0 and b > a + c put w = (b + sqrt(D))/2a
    and w' = (b - sqrt(D))/2a, so that w > 1 > w' > 0.  The partial zeta
    function of a narrow class B is then

        D^(s/2) zeta(s, B) = log eps_+/(s - 1) + sum P(w, w') + O(s - 1),

        P(x, y) = F(x) - F(y) + Li_2(y/x) - pi^2/6
                  + log(x/y) (gamma - log(x - y)/2 + log(x/y)/4),

    eps_+ the totally positive fundamental unit, the sum over the cycle of B
    (_cycle_sums) and F as in _f_series.  L(s, psi) = sum_B psi(B) zeta(s, B),
    the poles cancel as sum_B psi(B) = 0, and L(1, psi) is real (a'(n) is):

        L(1, psi) = D^(-1/2) sum_B cos(2 pi t[B]/h) sum P(w, w').

    t is HeckeCharacter.t.  The cycle of B is that of its class_ideals form, whose a > 0: the form
    with -a lies in B times the class of (sqrt(D)), which flips the sign of
    an odd psi."""
    if character.is_trivial():
        raise ValueError("L(s, trivial) has a pole at s = 1")
    cg = character.classgroup
    cos = np.cos(2 * np.pi * (character.t / character.h))
    return float(cos @ _cycle_sums(cg)) / math.sqrt(cg.field.D)


def l_value_at_1(character: HeckeCharacter) -> dict:
    """L(1, psi) by the AFE, checked twice: at split points 1 and 2
    (cutoff_agreement), and against the reduced cycles (direct_oracle,
    oracle_agreement), a route that shares only the class group with it.
    Either over its tolerance is a SplitPointError.  The split points are
    compared first, so that refusal costs only the AFE's rows.  Split point 2
    is evaluated first: its dual sum needs the most rows, about
    2 * 55 sqrt(D)/2 pi, so the one table it builds covers split point 1's,
    and a row's b(n) does not depend on the size of its table."""
    v2 = l_value_at_1_afe(character, cutoff=2.0)
    v1 = l_value_at_1_afe(character, cutoff=1.0)
    if abs(v1 - v2) > SPLIT_POINT_TOL:
        raise SplitPointError(f"split-point instability in L(1): {v1!r} vs {v2!r}")
    oracle = l_value_at_1_direct(character)
    if abs(v1 - oracle) > ORACLE_TOL:
        raise SplitPointError(f"the AFE and the reduced cycles disagree on L(1): {v1!r} vs {oracle!r}")
    return {
        "value": v1,
        "cutoff_agreement": abs(v1 - v2),
        "direct_oracle": oracle,
        "oracle_agreement": abs(v1 - oracle),
    }
