"""Independent references for the tests: routes to each quantity that share no
code with the route maassforge takes, beyond the field or class group they are
given and the primes of primes_up_to.  One line per quantity: its reference,
and the tests that use it.

chi_D(n): kronecker, the Jacobi reciprocity loop; at primes, Euler's criterion by pow (test_quadfield, test_lseries).
Prime ideals and ideals: tonelli_shanks, prime_roots, split_prime, enumerate_ideals, one prime at a time (test_quadfield, test_lseries).
Ideal counts: ideal_count, the divisor sum of chi_D (test_quadfield).
Class group: IndefiniteForm, ideal_to_form, scalar_cycles, the scalar rho-reduction and its cycles (test_classforms, test_lseries).
Character values on ideals: dlog and exponent, exact through ClassGroup.logs, one ideal at a time (test_classforms, test_heckechar, test_lseries).
a'(n) per class: ReferenceCountTable, the Hecke recursion in the group ring in passes of SIEVE_CHUNK rows, read by row (test_lseries, test_maassform, test_cli).
The support of a'(n): exact_zeros and cancelling_rows, exact zero tests on the reference counts (test_lseries, test_maassform).
a'(n) as numbers: dense_coefficients, the complex product of every row, zeros included (test_lseries, test_maassform, test_cli).
Hecke relations: prime_power_vector, convolve, hecke_recursion_residual, multiplicativity_failures, exact in the group ring (test_lseries, test_acceptance).
Euler products: euler_factor, against the library's a'(n) scattered by coefficients (test_lseries).
Rankin-Selberg: rankin_local_factor, rankin_residue, rankin_euler_identity_residual, rankin_euler_identity_residual_corrected, on rankin_coeffs (test_lseries, test_acceptance).
Principal and conjugate ideals: principal_ideal, from the inverse of y mod N(x + y omega), and ideal_conj (test_quadfield, test_classforms).
Sign exponent: epsilon_by_ideal, psi((sqrt D)) by ideal arithmetic (test_heckechar).
Norm-induced characters: is_norm_induced, psi against psi o sigma class by class (test_heckechar).
Gauss sums: check_gauss_twisting, a closed form (test_heckechar, test_acceptance).
Printed floats: report_floats, every float of a CLI report (test_cli, test_cli_fuzz).
K_0 and G_s: mpmath, and scipy's k0 and quad (test_special).
Theta: dense_theta in test_maassform, every n up to the truncation on dense_coefficients (test_maassform, test_cli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np
from scipy.special import exp1

from maassforge.classforms import ClassGroup
from maassforge.heckechar import (
    DirichletCharacterModP,
    HeckeCharacter,
    gauss_sum_rational,
)
from maassforge.lseries import l_value_at_1_afe, support
from maassforge.quadfield import QfIdeal, QuadField, prime_factors, primes_up_to


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n, by the Jacobi
    reciprocity loop, one symbol at a time: the reference QuadField.chi and
    prime_roots are tested against."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # (a|2) factor: 0 if a even, else depends on a mod 8
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0 by quadratic reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def tonelli_shanks(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p, or None if none exists."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def prime_roots(F: QuadField, p: int) -> list[int]:
    """The roots b mod p of N(b + omega) = 0, ascending, for p split or
    ramified: (-s +- sqrt(D))/2 for odd p, by trial for p = 2."""
    if p == 2:
        roots = [b for b in (0, 1) if F.elt_norm(b, 1) % 2 == 0]
        return roots[:1] if kronecker(F.D, 2) == 0 else roots
    if F.D % p == 0:
        return [(-F.s * pow(2, p - 2, p)) % p]
    r = tonelli_shanks(F.D % p, p)
    if r is None:
        raise ArithmeticError(f"{p} is inert; no root exists")
    inv2 = pow(2, p - 2, p)
    return sorted({(-F.s + r) * inv2 % p, (-F.s - r) * inv2 % p})


def split_prime(F: QuadField, p: int) -> tuple[int, tuple[QfIdeal, ...]]:
    """chi_D(p) and the prime ideals above p: (p) when inert, (p, b) for each
    root b when split or ramified."""
    chi = kronecker(F.D, p)
    if chi == -1:
        return chi, (QfIdeal.make(F, p, 1, 0),)
    return chi, tuple(QfIdeal.make(F, 1, p, b) for b in prime_roots(F, p))


def enumerate_ideals(F: QuadField, max_norm: int) -> list[QfIdeal]:
    """All integral ideals of norm <= max_norm from split_prime, one rational
    prime at a time, sorted by (norm, k, a, b)."""
    if max_norm < 1:
        return []
    primes = primes_up_to(max_norm).tolist()
    splits = [split_prime(F, p) for p in primes]
    out: list[QfIdeal] = []

    def rec(idx: int, cur: QfIdeal, cur_norm: int) -> None:
        out.append(cur)
        for j in range(idx, len(primes)):
            p = primes[j]
            if cur_norm * p > max_norm:
                break
            chi, ideals = splits[j]
            if chi == -1:
                q = p * p
                I, n = cur, cur_norm
                while n * q <= max_norm:
                    I = F.ideal_mul(I, ideals[0])
                    n *= q
                    rec(j + 1, I, n)
            elif chi == 0:
                I, n = cur, cur_norm
                while n * p <= max_norm:
                    I = F.ideal_mul(I, ideals[0])
                    n *= p
                    rec(j + 1, I, n)
            else:
                P1, P2 = ideals
                I1, n1 = cur, cur_norm
                while n1 * p <= max_norm:
                    I1 = F.ideal_mul(I1, P1)
                    n1 *= p
                    I2, n2 = I1, n1
                    rec(j + 1, I2, n2)
                    while n2 * p <= max_norm:
                        I2 = F.ideal_mul(I2, P2)
                        n2 *= p
                        rec(j + 1, I2, n2)
                # pure powers of P2
                I2, n2 = cur, cur_norm
                while n2 * p <= max_norm:
                    I2 = F.ideal_mul(I2, P2)
                    n2 *= p
                    rec(j + 1, I2, n2)

    rec(0, F.unit_ideal(), 1)
    out.sort(key=lambda I: (I.norm(), I.k, I.a, I.b))
    return out


@dataclass(frozen=True)
class IndefiniteForm:
    """Binary quadratic form A*x^2 + B*x*y + C*y^2 with B^2 - 4AC > 0."""

    A: int
    B: int
    C: int

    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def is_reduced(self) -> bool:
        """0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B, exactly."""
        D = self.disc()
        B, t = self.B, 2 * abs(self.A)
        if B <= 0 or B * B >= D:
            return False
        # t > sqrt(D) - B  <=>  (t + B)^2 > D
        if (t + B) ** 2 <= D:
            return False
        # t < sqrt(D) + B  <=>  t <= B or (t - B)^2 < D
        return t <= self.B or (t - B) ** 2 < D

    def rho(self) -> "IndefiniteForm":
        """One reduction step: (A,B,C) -> (C,B',C') with B' = -B mod 2|C|
        placed in the window (sqrt(D) - 2|C|, sqrt(D))."""
        D = self.disc()
        r = isqrt(D)
        ca = abs(self.C)
        c2 = 2 * ca
        m = (-self.B) % c2
        if ca > r:
            # not yet in the reduced range: take the minimal residue -|C| < B' <= |C|
            Bp = m if m <= ca else m - c2
        else:
            Bp = m + c2 * ((r - m) // c2)
        Cp = (Bp * Bp - D) // (4 * self.C)
        return IndefiniteForm(self.C, Bp, Cp)

    def reduce(self) -> "IndefiniteForm":
        f = self
        for _ in range(10 * len(str(self.disc())) + 64):
            if f.is_reduced():
                return f
            f = f.rho()
        raise ArithmeticError(f"reduction of {self} did not terminate")

    def cycle(self) -> list["IndefiniteForm"]:
        """The rho-cycle through the reduction of this form."""
        f0 = self.reduce()
        out = [f0]
        f = f0.rho()
        while f != f0:
            out.append(f)
            f = f.rho()
        return out


def ideal_to_form(F: QuadField, I: QfIdeal) -> IndefiniteForm:
    """Form of the primitive part of I: (a, 2b + s, N(b + omega)/a)."""
    a, b = I.a, I.b
    return IndefiniteForm(a, 2 * b + F.s, F.elt_norm(b, 1) // a)


def scalar_cycles(D: int) -> list[list[IndefiniteForm]]:
    """The rho-cycles of the reduced forms of discriminant D, numbered as
    ClassGroup numbers its classes: every candidate A <= (sqrt(D) + B)/2 is
    tried for every B, the cycles are sorted by their least (A, B, C), and
    the cycle of the principal form (1, b, (b^2 - D)/4) is swapped with
    cycle 0."""
    r = isqrt(D)
    seen: set[IndefiniteForm] = set()
    cycles: list[list[IndefiniteForm]] = []
    for B in range(1, r + 1):
        if (B - D) % 2 != 0:
            continue
        M = (B * B - D) // 4  # = A*C < 0
        for A in range(1, (r + B) // 2 + 1):
            if M % A != 0:
                continue
            C = M // A
            for f in (IndefiniteForm(A, B, C), IndefiniteForm(-A, B, -C)):
                if f in seen or not f.is_reduced():
                    continue
                cyc = f.cycle()
                seen.update(cyc)
                cycles.append(cyc)
    cycles.sort(key=lambda cyc: min((f.A, f.B, f.C) for f in cyc))
    b = r if (r - D) % 2 == 0 else r - 1
    principal = IndefiniteForm(1, b, (b * b - D) // 4).reduce()
    ident = next(i for i, cyc in enumerate(cycles) if principal in cyc)
    cycles[0], cycles[ident] = cycles[ident], cycles[0]
    return cycles


def ideal_count(F: QuadField, n: int) -> int:
    """Number of integral ideals of norm n, via the sum of chi_D over the
    divisors of n."""
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += kronecker(F.D, d)
            if d != n // d:
                count += kronecker(F.D, n // d)
        d += 1
    return count


def principal_ideal(F: QuadField, x: int, y: int) -> QfIdeal:
    """The ideal generated by x + y omega, not 0: g = gcd(x, y) times the
    ideal of the primitive element x' + y' omega, (x, y) = g (x', y'), which
    is primitive, of norm a = |N(x' + y' omega)|.  Its elements u + v omega
    have u = b v mod a, so b = x' y'^-1 mod a; y' is prime to a, since a
    common factor would divide x' too."""
    g = math.gcd(x, y)
    if g == 0:
        raise ValueError("zero element generates no ideal")
    x, y = x // g, y // g
    a = abs(F.elt_norm(x, y))
    return QfIdeal.make(F, g, a, x * pow(y, -1, a))


def ideal_conj(I: QfIdeal) -> QfIdeal:
    """The image of I under the nontrivial automorphism: b + omega maps to
    (b + s) - omega, so Z a + Z (b + omega) maps to Z a + Z (b' + omega),
    b' = -(b + s) mod a."""
    return QfIdeal.make(I.field, I.k, I.a, -(I.b + I.field.s) % I.a)


def dlog(classgroup: ClassGroup, I: QfIdeal) -> int:
    """Discrete log of the narrow class of I w.r.t. the generator of
    ClassGroup.logs."""
    return int(classgroup.logs[classgroup.class_index(I)])


def exponent(character: HeckeCharacter, I: QfIdeal) -> Fraction:
    """Exact exponent j/h with psi(I) = e^(2*pi*i*j/h), j = index * dlog(I)."""
    return Fraction(character.index * dlog(character.classgroup, I), character.h)


def epsilon_by_ideal(character: HeckeCharacter) -> int:
    """The sign exponent by ideal arithmetic: 1 if psi((sqrt(D))) = -1, with
    sqrt(D) = 2 omega - s and its class's discrete log, else 0."""
    F = character.field
    sqrt_d = principal_ideal(F, -F.s, 2)
    return 1 if exponent(character, sqrt_d) % 1 == Fraction(1, 2) else 0


def report_floats(value):
    """Every float in a parsed JSON report, at any depth."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from report_floats(v)


def is_norm_induced(character: HeckeCharacter) -> bool:
    """psi(I) == psi(sigma I) on a representative of every narrow class."""
    cg = character.classgroup
    for i in range(character.h):
        I = cg.class_ideals[i]
        if exponent(character, I) % 1 != exponent(character, ideal_conj(I)) % 1:
            return False
    return True


def check_gauss_twisting(p: int, kp: int, q: int, kq: int) -> float:
    """Residual of tau(chi1*chi2) = chi1(q) chi2(p) tau(chi1) tau(chi2)
    for primitive chi1 mod p, chi2 mod q with p != q prime."""
    chi1 = DirichletCharacterModP(p, kp)
    chi2 = DirichletCharacterModP(q, kq)

    def prod(x: int) -> complex:
        return chi1(x) * chi2(x)

    lhs = gauss_sum_rational(prod, p * q)
    rhs = chi1(q) * chi2(p) * gauss_sum_rational(chi1, p) * gauss_sum_rational(chi2, q)
    return abs(lhs - rhs)


# -- the reference count table and its exact group-ring checks ----------

SIEVE_CHUNK = 1 << 14  # rows sieved per pass: bounds the temporaries of one


class ReferenceCountTable:
    """counts[n, j] = number of integral ideals of norm n in the narrow class
    of discrete log j (ClassGroup.logs), for n <= n_max: the tests' reference
    for the coefficients that lseries.ClassCountTable.support finds by
    multiplicativity.

    Row n is filled by the Hecke recursion at its smallest prime factor p,
    row(n) = v_p * row(n/p) - chi_D(p) row(n/p^2) in the group ring, the last
    term only when p^2 | n: v_p is [k] + [-k] at split p, [k] at ramified p
    and 0 at inert p, for k the log of the class of a prime above p, and (p)
    is principal and totally positive.  The primes are classified in one
    ClassGroup.prime_classes call, and the smallest prime factor of every
    row is found once: the primes up to sqrt(n_max) mark their multiples,
    and the rows left are the other primes.

    The counts are int16.  Row n sums to the number of ideals of norm n,
    sum_{d | n} chi_D(d) <= d(n), and d(n) <= 1600 for n < 2^31 (the most,
    at n = 2095133040).  The largest value a pass holds, v_p * row(n/p) at
    split p before row(n/p^2) is taken off, is at most 2 d(n/p) <= 3200,
    far below 2^15."""

    def __init__(self, classgroup: ClassGroup, n_max: int):
        self.classgroup = classgroup
        self.h = classgroup.h_narrow
        self.n_max = n_max
        self.counts = np.zeros((n_max + 1, self.h), dtype=np.int16)
        # p -> (chi_D(p), class log of a prime above p), for prime_power_vector
        self.prime_class: dict[int, tuple[int, int]] = {}
        if n_max == 0:
            return
        self.counts[1, 0] = 1  # the unit ideal
        # at[n - 2] = where the smallest prime factor of row n is in primes:
        # the primes up to sqrt(n_max) mark their multiples, the smallest
        # last, and the rows none marks are the primes above sqrt(n_max),
        # which follow those in primes
        small = primes_up_to(math.isqrt(n_max))
        at = np.full(n_max - 1, -1, dtype=np.int32)
        for j in range(small.size - 1, -1, -1):
            q = int(small[j])
            at[-2 % q :: q] = j
        new = np.flatnonzero(at < 0)
        at[new] = np.arange(small.size, small.size + new.size)
        primes = np.concatenate([small, new + 2])
        chi, cls = classgroup.prime_classes(primes)
        k = classgroup.logs[cls]
        self.prime_class = dict(zip(primes.tolist(), zip(chi.tolist(), k.tolist())))
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


def exact_zeros(table: ReferenceCountTable, index: int, n_max: int) -> np.ndarray:
    """The n <= n_max whose b(n) = sum_j c_j rho^j is exactly 0,
    rho = exp(2 pi i index/h), decided on the counts: counts[n] @ W = 0 for
    the W of _vanishing.  The product is taken in float64, SIEVE_CHUNK rows
    at a time, where it is exact: each of its h terms is an integer below
    2^15 |W|, so every partial sum is an integer far below 2^53."""
    W = _vanishing(table.h, index).astype(np.float64)
    assert table.h * 2**15 * np.abs(W).max() < 2**53
    rows = table.counts[1 : n_max + 1]
    zero = [~(rows[lo : lo + SIEVE_CHUNK] @ W).any(axis=1) for lo in range(0, n_max, SIEVE_CHUNK)]
    return 1 + np.flatnonzero(np.concatenate([np.zeros(0, dtype=bool), *zero]))


def prime_power_vector(table: ReferenceCountTable, p: int, e: int) -> tuple[int, ...]:
    """Group-ring element of ideals of norm p^e supported at powers of p."""
    h = table.h
    v = [0] * h
    if p not in table.prime_class:  # a prime past the table's rows
        chi, cls = table.classgroup.prime_classes(np.array([p], dtype=np.int64))
        table.prime_class[p] = int(chi[0]), int(table.classgroup.logs[cls[0]])
    chi, k = table.prime_class[p]
    if chi == -1:
        if e % 2 == 0:
            # (p)^(e/2) is principal and totally positive
            v[0] = 1
    elif chi == 0:
        v[(k * e) % h] = 1
    else:
        # the two primes above p lie in inverse classes
        for j in range(e + 1):
            v[(k * (2 * j - e)) % h] += 1
    return tuple(v)


def convolve(table: ReferenceCountTable, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The product of u and v in the group ring of the table's class group."""
    h = table.h
    out = [0] * h
    for j, uj in enumerate(u):
        if uj:
            for k, vk in enumerate(v):
                if vk:
                    out[(j + k) % h] += uj * vk
    return tuple(out)


def row(table: ReferenceCountTable, n: int) -> tuple[int, ...]:
    """Counts of the ideals of norm n per class, as exact integers."""
    return tuple(table.counts[n].tolist())


def dense_coefficients(table: ReferenceCountTable, index: int, n_max: int) -> np.ndarray:
    """The complex array b with b[n] = sum_j c_j rho^j for every n <= n_max,
    rho = exp(2 pi i index/h): one product over the whole table, zeros
    included.  It realises the rows whose classes cancel as rounding noise,
    and the others with an imaginary part at rounding level, where
    ClassCountTable.support keeps only the real b(n) != 0."""
    h = table.h
    return table.counts[: n_max + 1] @ np.exp(2j * np.pi * index * np.arange(h) / h)


def cancelling_rows(table: ReferenceCountTable, index: int, n_max: int) -> np.ndarray:
    """The n <= n_max whose b(n) = sum_j c_j rho^j is exactly 0, for a
    character of prime-power order q^k, rho = exp(2 pi i index/h).  The
    vanishing sums of q^k-th roots of unity are sums of rotated regular
    q-gons, so with C_r the class sums over j = r mod q^k, b(n) = 0 exactly
    when C_(a + i q^(k-1)) is the same for i < q, for every a < q^(k-1)."""
    h = table.h
    order = h // math.gcd(h, index)
    (q,) = prime_factors(order)
    sums = table.counts[1 : n_max + 1].astype(np.int64).reshape(n_max, h // order, order).sum(axis=1)
    gons = sums.reshape(n_max, q, order // q)
    return 1 + np.flatnonzero((gons == gons[:, :1]).all(axis=(1, 2)))


def hecke_recursion_residual(character: HeckeCharacter, p: int, r_max: int = 4) -> int:
    """Exact check of a'(p^(r+1)) = a'(p) a'(p^r) - chi_D(p) a'(p^(r-1)) for
    p coprime to the level, in the group ring (returns number of failures)."""
    field = character.field
    if field.D % p == 0:
        raise ValueError("p must not divide the level")
    table = ReferenceCountTable(character.classgroup, 1)
    vecs = [prime_power_vector(table, p, e) for e in range(r_max + 2)]
    chi = kronecker(field.D, p)
    fails = 0
    for r in range(1, r_max + 1):
        lhs = vecs[r + 1]
        prod = convolve(table, vecs[1], vecs[r])
        rhs = tuple(a - chi * b for a, b in zip(prod, vecs[r - 1]))
        if lhs != rhs:
            fails += 1
    return fails


def multiplicativity_failures(character: HeckeCharacter, n_max: int = 200) -> int:
    """Exact check of a'(mn) = a'(m) a'(n) for coprime m, n (group ring)."""
    table = ReferenceCountTable(character.classgroup, n_max)
    fails = 0
    for m in range(2, n_max):
        for n in range(2, n_max // m + 1):
            if math.gcd(m, n) != 1:
                continue
            if row(table, m * n) != convolve(table, row(table, m), row(table, n)):
                fails += 1
    return fails


# -- Euler factors -------------------------------------------------------


def coefficients(character: HeckeCharacter, n_max: int) -> np.ndarray:
    """a'(n) for every n <= n_max, the support of lseries.support scattered
    into zeros, as the coeffs command prints them."""
    n, a = support(character, n_max)
    b = np.zeros(n_max + 1)
    b[n] = a
    return b


def rankin_coeffs(character: HeckeCharacter, n_max: int) -> np.ndarray:
    """|a'(n)|^2 for the doubled coefficients a'(n) of the theta form."""
    return coefficients(character, n_max) ** 2


def _prime_values(character: HeckeCharacter, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi_D(p), and psi(P) for the prime ideal P = (p, b) above each p of an
    int64 array of primes; psi((p)) = 1 for inert p, as (p) is principal and
    totally positive.  At split p the other prime P' has psi(P') = conj psi(P),
    since P P' = (p)."""
    cg = character.classgroup
    chi, cls = cg.prime_classes(p)
    h = character.h
    return chi, np.exp(2j * np.pi * (character.index * cg.logs[cls] % h) / h)


def euler_factor(character: HeckeCharacter, p: np.ndarray, s: complex) -> np.ndarray:
    """Local factors of L(s, psi) at an int64 array of primes p."""
    chi, a = _prime_values(character, p)
    x = p.astype(np.float64) ** (-s)
    return np.where(
        chi == 1,
        1.0 / ((1 - a * x) * (1 - a.conj() * x)),
        np.where(chi == 0, 1.0 / (1 - a * x), 1.0 / (1 - x * x)),
    )


# -- Rankin-Selberg identity ---------------------------------------------


def rankin_local_factor(character: HeckeCharacter, p: np.ndarray, s: float) -> np.ndarray:
    """Local factors at an int64 array of primes p of sum |a'(n)|^2 n^(-s),
    for conductor (1)."""
    chi, a = _prime_values(character, p)
    x = p.astype(np.float64) ** (-s)
    # alpha = psi(P) conj(psi(P')) = psi(P)^2 at split p
    split = (1 - x * x) / ((1 - x) ** 2 * np.abs(1 - a * a * x) ** 2)
    return np.where(chi == 1, split, np.where(chi == 0, 1.0 / (1 - x), 1.0 / (1 - x * x)))


def _rankin_partials(character: HeckeCharacter, s: float, X: int) -> tuple[float, float]:
    """(sum_{n<=X} |a'(n)|^2 n^(-s), prod_{p<=X} local factor)."""
    b2 = rankin_coeffs(character, X)
    n = np.arange(X + 1, dtype=np.float64)
    n[0] = 1.0
    partial_sum = float(np.sum(b2[1:] / n[1:] ** s))
    primes = primes_up_to(X)
    return partial_sum, float(np.prod(rankin_local_factor(character, primes, s)))


def rankin_euler_identity_residual(character: HeckeCharacter, s: float, X: int) -> float:
    """| sum_{n<=X} |a'(n)|^2 n^(-s)  -  prod_{p<=X} (local factor) |.

    This equals the sum of |a'(n)|^2 n^(-s) over X-smooth n > X: the sum's
    tail ~ kappa X^(1-s)/(s-1) less the product's tail, so it decays only like
    X^(1-s); rankin_euler_identity_residual_corrected adds both tails back."""
    partial_sum, partial_prod = _rankin_partials(character, s, X)
    return abs(partial_sum - partial_prod)


def rankin_residue(character: HeckeCharacter) -> float:
    """kappa = Res_{s=1} sum |a'(n)|^2 n^(-s), in closed form.

    The local factors of rankin_local_factor multiply to

        F(s) = zeta(s) L(s, chi_D) L(s, psi^2) zeta(2s)^(-1) prod_{p|D} (1 + p^(-s))^(-1):

    at split p, alpha = psi(P) conj(psi(P')) = psi^2(P) and
    (1 - x^2)/((1 - x)^2 |1 - alpha x|^2) is the zeta(s) L(s, chi_D),
    L(s, psi^2) and zeta(2s)^(-1) factors; at inert p, 1/(1 - x^2) is
    1/(1 - x^2) * 1/(1 - x^2) * (1 - x^2), since (p) is principal and totally
    positive; at ramified p, psi^2(P) = psi((p)) = 1 so the three factors give
    (1 + x)/(1 - x), and 1/(1 - x) needs the extra (1 + x)^(-1).  With
    Res zeta = 1, zeta(2) = pi^2/6 and L(1, chi_D) = Res zeta_F:

        kappa = L(1, chi_D) L(1, psi^2) (6/pi^2) prod_{p|D} p/(p + 1).

    Requires psi^2 nontrivial; otherwise L(s, psi^2) = zeta(s) and F has a
    double pole."""
    if character.power(2).is_trivial():
        raise ValueError(
            "psi^2 is trivial (psi trivial or norm-induced): the Rankin-Selberg "
            "series has a double pole at s = 1"
        )
    local = 1.0
    for p in prime_factors(character.field.D):
        local *= p / (p + 1)
    l_chi_d = character.classgroup.residue_zeta()
    l_psi2 = l_value_at_1_afe(character.power(2))
    return l_chi_d * l_psi2 * 6 / math.pi**2 * local


def rankin_euler_identity_residual_corrected(
    character: HeckeCharacter, s: float, X: int
) -> float:
    """Tail-corrected Rankin-Selberg residual, for s > 1 and psi^2 nontrivial:

        | (sum_{n<=X} + kappa X^(1-s)/(s-1))
          - prod_{p<=X} * (1 + expm1(E_1((s-1) ln X))) |.

    The sum's tail sum_{n>X} |a'(n)|^2 n^(-s) ~ integral_X^oo kappa t^(-s) dt
    with kappa = rankin_residue(psi).  The product's tail is
    exp(sum_{p>X} |a'(p)|^2 p^(-s)) to first order; |a'(p)|^2 = 2 + 2 Re psi^2(P)
    at split p and 0 at inert p has mean 1 over primes when psi^2 is
    nontrivial, and by the prime number theorem
    sum_{p>X} p^(-s) ~ integral_X^oo t^(-s)/ln t dt = E_1((s-1) ln X)."""
    if not s > 1:
        raise ValueError(f"the tail correction needs s > 1, got s = {s!r}")
    kappa = rankin_residue(character)
    partial_sum, partial_prod = _rankin_partials(character, s, X)
    sum_tail = kappa * X ** (1 - s) / (s - 1)
    prod_tail = math.expm1(float(exp1((s - 1) * math.log(X))))
    return abs(partial_sum + sum_tail - partial_prod * (1 + prod_tail))
