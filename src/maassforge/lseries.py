"""Hecke L-series of class characters: the coefficient table and L(1).

Coefficients are computed exactly first: for each n the vector of counts of
ideals of norm n per narrow class is a group-ring element, given by the
Hecke recursion at the smallest prime factor p of n from the splitting type
and the class of a prime above p.  The table's sieve finds those for arrays
of primes (ClassGroup.prime_classes, on QuadField.prime_roots), with no
Python call per prime.  A character's coefficients are read from these
integer vectors by one route, support(): it decides exactly which a'(n)
vanish and realises the others as real numbers, so every character of the
same field shares one table.  A table is built once, at the size asked for;
a request for more rows builds a new one in its place.

L(1) is computed two independent ways: an approximate functional equation
whose terms are weighted by incomplete K_0-Mellin transforms, summed as
arrays (exact for any choice of the split point, which provides an internal
consistency dial), and an Abel-smoothed direct sum accelerated by Richardson
extrapolation.
"""

from __future__ import annotations

import math

import numpy as np

from .classforms import ClassGroup
from .heckechar import HeckeCharacter
from .quadfield import BudgetError, _primes_up_to, prime_factors
from .special import incomplete_k_mellin


# rows sieved or realised per pass: bounds the temporaries of either
SIEVE_CHUNK = 1 << 14
# Largest coefficient table ClassCountTable builds.  For D = 229 (h = 3) the
# peak RSS of check-automorphy is about 33 MB plus 22 bytes per row (40 MB at
# 3.1e5 rows, 59 MB at 1.22e6, 91 MB at 2.75e6, its default of 3 matrices);
# 2 h of those bytes are the int16 table, and its build holds 4 more per
# row, the index of each row's smallest prime factor.  D = 3305 (h = 12)
# peaked at 0.20 GB evaluating Theta once on 4.0e6 rows.  Below the budget
# every prime p of a table has p^2 < 2^62, so the int64 arithmetic of
# ClassGroup.prime_classes cannot overflow, and every n is below the 2^22
# of maassform._phase.
ROW_BUDGET = 4_000_000


class ClassCountTable:
    """counts[n, j] = number of integral ideals of norm n in narrow class j,
    for n <= n_max.

    Row n is filled by the Hecke recursion at its smallest prime factor p,
    row(n) = v_p * row(n/p) - chi_D(p) row(n/p^2) in the group ring, the last
    term only when p^2 | n: v_p is [k] + [-k] at split p, [k] at ramified p
    and 0 at inert p, for k the class of a prime above p, and (p) is
    principal and totally positive.  A table is built once, at the size
    asked for: it classifies all of its primes in one
    ClassGroup.prime_classes call and finds the smallest prime factor of
    every row once: the primes up to sqrt(n_max) mark their multiples, and
    the rows left are the other primes.  support() keeps each character's
    nonzero coefficients.

    The counts are int16.  Row n sums to the number of ideals of norm n,
    sum_{d | n} chi_D(d) <= d(n), and d(n) <= 1600 for n < 2^31 (the most,
    at n = 2095133040).  The largest value a pass holds, v_p * row(n/p) at
    split p before row(n/p^2) is taken off, is at most 2 d(n/p) <= 3200,
    far below 2^15."""

    def __init__(self, classgroup: ClassGroup, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {n_max}")
        if n_max > ROW_BUDGET:
            raise BudgetError(f"a'(n) up to n = {n_max} is over the budget of {ROW_BUDGET} rows")
        self.classgroup = classgroup
        self.h = classgroup.h_narrow
        self.n_max = n_max
        self.counts = np.zeros((n_max + 1, self.h), dtype=np.int16)
        # character index -> (n with b(n) != 0, those b(n))
        self._supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if n_max == 0:
            return
        self.counts[1, 0] = 1  # the unit ideal
        # at[n - 2] = where the smallest prime factor of row n is in primes:
        # the primes up to sqrt(n_max) mark their multiples, the smallest
        # last, and the rows none marks are the primes above sqrt(n_max),
        # which follow those in primes
        small = _primes_up_to(math.isqrt(n_max))
        at = np.full(n_max - 1, -1, dtype=np.int32)
        for j in range(small.size - 1, -1, -1):
            q = int(small[j])
            at[-2 % q :: q] = j
        new = np.flatnonzero(at < 0)
        at[new] = np.arange(small.size, small.size + new.size)
        primes = np.concatenate([small, new + 2])
        chi, k = classgroup.prime_classes(primes)
        lo = 1
        while lo < n_max:
            # n/p <= n/2 <= lo, so every row a pass reads is already filled
            hi = min(n_max, 2 * lo, lo + SIEVE_CHUNK)
            self._sieve(lo + 1, hi, at[lo - 1 : hi - 1], primes, chi, k)
            lo = hi

    def _sieve(
        self, a: int, b: int, at: np.ndarray, primes: np.ndarray, chi: np.ndarray, k: np.ndarray
    ) -> None:
        """Fill rows a..b from rows below a (requires b <= 2(a - 1)), given
        for each row the index at of its smallest prime factor in primes,
        and chi_D and the class log of each prime.

        A term that does not apply to a row reads row 0, which is zero, so
        each term is one gather over the whole pass."""
        h = self.h
        p, chi, k = primes.take(at), chi.take(at), k.take(at)
        m = np.arange(a, b + 1, dtype=np.int64) // p
        # n/p^2 where p^2 | n, else 0
        m_over_p, r = np.divmod(m, p)
        m_over_p[r != 0] = 0
        del p, r  # a pass's memory peaks at the gathers below
        mh = np.multiply(m, h, out=m)
        # adding class s to row m moves count j to class j + s: out[n, j] +=
        # counts[m, (j - s) % h], gathered from the flat table
        cols = np.arange(h)
        shifted = (cols - cols[:, None]) % h  # shifted[s, j] = (j - s) % h
        unshifted = (cols + cols[:, None]) % h  # the same for -s
        flat = self.counts.reshape(-1)
        # [k] row(n/p) at split and ramified p, and at inert p, where k = 0,
        # + row(n/p^2) when p^2 | n
        idx = shifted.take(k, axis=0)
        idx += np.where(chi >= 0, mh, m_over_p * h)[:, None]
        out = flat.take(idx)
        # [-k] row(n/p) - row(n/p^2) at split p, the last when p^2 | n
        idx = unshifted.take(k, axis=0)
        idx += np.where(chi == 1, mh, 0)[:, None]
        out += flat.take(idx)
        out -= self.counts.take(np.where(chi == 1, m_over_p, 0), axis=0)
        self.counts[a : b + 1] = out

    # -- realizations ---------------------------------------------------

    def _realise(self, index: int, rows: np.ndarray) -> np.ndarray:
        """b(n) for the rows n of one pass, an index array, in float64.

        b(n) = sum_j c_j rho^j with rho = exp(2 pi i index/h) and c_j the
        count of row n in class j.  The conjugate sigma(a) of an ideal of
        norm n lies in class -j when a lies in class j, as a sigma(a) = (n)
        is principal and totally positive, so c_j = c_(-j).  The sine parts
        c_j sin(2 pi index j/h) of j and -j then cancel, and sin is 0 at
        j = 0 and j = h/2: b(n) = sum_j c_j cos(2 pi index j/h) exactly.
        The angle is taken at index j mod h, below 2 pi, and each row is
        summed on its own, so b(n) does not depend on the rows realised
        with it; the temporary is at most SIEVE_CHUNK x h values."""
        h = self.h
        return (self.counts[rows] * np.cos(2 * np.pi * (index * np.arange(h) % h) / h)).sum(axis=1)

    def support(self, index: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The n <= n_max with b(n) != 0, ascending, and those b(n), as
        read-only float64 arrays.  The first call for a character decides
        over the whole table which b(n) vanish, exactly, on the counts
        (_vanishing), and realises the other rows once; every call cuts
        that support at n_max."""
        if n_max > self.n_max:
            raise ValueError("table too small")
        if index not in self._supports:
            remainders = _vanishing(self.h, index)
            live = np.zeros(self.n_max + 1, dtype=bool)  # row 0 is zero
            for a in range(0, self.n_max + 1, SIEVE_CHUNK):
                counts = self.counts[a : a + SIEVE_CHUNK]
                for w in remainders.T:
                    live[a : a + SIEVE_CHUNK] |= sum(w[j] * counts[:, j] for j in np.flatnonzero(w)) != 0
            n = np.flatnonzero(live)
            del live
            b = np.empty(n.size)
            for i in range(0, n.size, SIEVE_CHUNK):
                b[i : i + SIEVE_CHUNK] = self._realise(index, n[i : i + SIEVE_CHUNK])
            n.flags.writeable = b.flags.writeable = False
            self._supports[index] = n, b
        n, b = self._supports[index]
        cut = np.searchsorted(n, n_max, side="right")
        return n[:cut], b[:cut]


def _cyclotomic(m: int) -> list[int]:
    """The coefficients of the m-th cyclotomic polynomial, constant term
    first: the product over the d | m with m/d squarefree of
    (X^d - 1)^mu(m/d), the Moebius inversion of X^m - 1 = prod_{d | m} Phi_d."""
    primes = prime_factors(m)
    poly, divisors = [1], []
    for mask in range(1 << len(primes)):
        sub = [p for i, p in enumerate(primes) if mask >> i & 1]
        d = m // math.prod(sub)
        if len(sub) % 2:
            divisors.append(d)
        else:  # times X^d - 1
            poly = [u - v for u, v in zip([0] * d + poly, poly + [0] * d)]
    for d in divisors:  # exactly divided by X^d - 1: p[i] = q[i - d] - q[i]
        q: list[int] = []
        for i in range(len(poly) - d):
            q.append((q[i - d] if i >= d else 0) - poly[i])
        poly = q
    return poly


def _vanishing(h: int, index: int) -> np.ndarray:
    """The int64 matrix W (h x phi(order)) with counts[n] @ W = 0 exactly
    when b(n) = 0, for the character of the given index, of order
    order = h / gcd(h, index).

    b(n) = sum_j c_j rho^j with rho = exp(2 pi i index/h), a primitive
    order-th root of unity whose minimal polynomial is Phi_order, so b(n) = 0
    exactly when Phi_order divides sum_j c_j X^(j mod order).  Row j of W
    holds X^(j mod order) mod Phi_order.  For order 3 that is c_0 = c_1 = c_2."""
    order = h // math.gcd(h, index)
    phi = _cyclotomic(order)
    x, rows = [1] + [0] * (len(phi) - 2), []
    for _ in range(order):
        rows.append(x)
        # times X, with X^deg = -sum_{i < deg} phi[i] X^i for the monic phi
        x = [u - x[-1] * c for u, c in zip([0] + x[:-1], phi)]
    return np.array(rows, dtype=np.int64)[np.arange(h) % order]


def get_table(classgroup: ClassGroup, n_max: int) -> ClassCountTable:
    """The class group's coefficient table if it has at least n_max rows,
    else a new table of exactly n_max rows, which replaces it.  The old
    table is dropped first, so the two are never held together."""
    if classgroup.count_table is None or classgroup.count_table.n_max < n_max:
        classgroup.count_table = None
        classgroup.count_table = ClassCountTable(classgroup, n_max)
    return classgroup.count_table


def support(character: HeckeCharacter, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The n <= n_max with a'(n) != 0 for the class character, ascending,
    and those real a'(n), from its class group's table of at least n_max
    rows (ClassCountTable.support)."""
    return get_table(character.classgroup, n_max).support(character.index, n_max)


# -- L(1) ----------------------------------------------------------------


SPLIT_POINT_TOL = 1e-9  # largest difference of the AFE's L(1) at split points 1 and 2
# the direct oracle's Abel scale A.  Its error terms L(1 - k)/k! A^(-k) grow
# like (sqrt(D) k/(2 pi e A))^k: a fixed A loses agreement as D grows.
ABEL_SCALE = 600.0


class SplitPointError(ArithmeticError):
    """The approximate functional equation gave different L(1) at two split
    points: the CLI exits 1."""


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
    (ClassCountTable._realise), so psi and psibar share them below.

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


def l_value_at_1_direct(character: HeckeCharacter) -> float:
    """Independent oracle: Abel-smoothed partial sums sum b(n) e^(-n/A) / n
    at A, 2A, 4A, 8A for A = ABEL_SCALE, Richardson-extrapolated in 1/A."""
    if character.is_trivial():
        raise ValueError("L(s, trivial) has a pole at s = 1")
    scales = [ABEL_SCALE * 2**k for k in range(4)]
    n_max = int(36 * scales[-1])
    n, b = support(character, n_max)
    bn = b / n
    vals = [float(np.sum(bn * np.exp(-n / A))) for A in scales]
    # Neville elimination of the 1/A, 1/A^2, 1/A^3 error terms
    xs = [1.0 / A for A in scales]
    table = list(vals)
    for lvl in range(1, len(xs)):
        for i in range(len(xs) - lvl):
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * xs[i + lvl] / (
                xs[i] - xs[i + lvl]
            )
    return table[0]


def l_value_at_1(character: HeckeCharacter) -> dict:
    """L(1, psi) with the dual-route consistency report.  The split points
    are compared first, so a SplitPointError costs only the AFE's rows."""
    v1 = l_value_at_1_afe(character, cutoff=1.0)
    v2 = l_value_at_1_afe(character, cutoff=2.0)
    if abs(v1 - v2) > SPLIT_POINT_TOL:
        raise SplitPointError(
            f"split-point instability in L(1): {v1!r} vs {v2!r}"
        )
    oracle = l_value_at_1_direct(character)
    return {
        "value": v1,
        "cutoff_agreement": abs(v1 - v2),
        "direct_oracle": oracle,
        "oracle_agreement": abs(v1 - oracle),
    }

