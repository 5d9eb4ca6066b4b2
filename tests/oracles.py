"""Scalar oracles for the array routes: one prime at a time, in plain Python.

QuadField.prime_roots splits arrays of rational primes with numpy; these
functions split one prime at a time by the older scalar route, and enumerate
ideals from that split, so that the tests can compare the two.  ideal_count
and gauss_abs_sq_residual are closed forms the tests check the library
against.
"""

from __future__ import annotations

from maassforge.heckechar import GaussSumResult
from maassforge.quadfield import QfIdeal, QuadField, _primes_up_to


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
        roots = [b for b in (0, 1) if F.omega_image_norm(b) % 2 == 0]
        return roots[:1] if F.chi(2) == 0 else roots
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
    chi = F.chi(p)
    if chi == -1:
        return chi, (QfIdeal.make(F, p, 1, 0),)
    return chi, tuple(QfIdeal.make(F, 1, p, b) for b in prime_roots(F, p))


def enumerate_ideals(F: QuadField, max_norm: int) -> list[QfIdeal]:
    """All integral ideals of norm <= max_norm from split_prime, one rational
    prime at a time, sorted by (norm, k, a, b)."""
    primes = _primes_up_to(max_norm).tolist()
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


def ideal_count(F: QuadField, n: int) -> int:
    """Number of integral ideals of norm n, via the sum of chi_D over the
    divisors of n."""
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += F.chi(d)
            if d != n // d:
                count += F.chi(n // d)
        d += 1
    return count


def gauss_abs_sq_residual(res: GaussSumResult) -> float:
    """| |tau|^2 - N(f) |, which vanishes for primitive characters."""
    return abs(abs(res.value) ** 2 - res.modulus_norm)
