"""Real quadratic fields, integral ideals in Hermite normal form, prime splitting.

A field is Q(sqrt(D)) for a fundamental discriminant D > 0.  The ring of
integers is Z[omega] with omega = (s + sqrt(D))/2 and s = D mod 2 (so
omega = (1+sqrt(D))/2 when D is odd and sqrt(D)/2 when 4 | D).

An integral ideal is stored as a triple (k, a, b) meaning

    k * ( Z*a + Z*(b + omega) ),   0 <= b < a,   a | N(b + omega),

whose norm is k^2 * a.  This is the column Hermite normal form of the ideal
as a Z-module in the basis (1, omega).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
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


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))


def is_fundamental_discriminant(D: int) -> bool:
    """True for D > 1 that is the discriminant of a real quadratic field."""
    if D <= 1 or isqrt(D) ** 2 == D:
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


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


class QuadField:
    """Q(sqrt(D)) for a fundamental discriminant D > 0."""

    def __init__(self, D: int):
        if not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental discriminant of a real quadratic field")
        self.D = D
        self.s = D % 2              # trace of omega
        self.omega_norm = (self.s * self.s - D) // 4   # norm of omega

    def __repr__(self) -> str:
        return f"QuadField({self.D})"

    def chi(self, n: int) -> int:
        """The quadratic character attached to the field, (D|n)."""
        return kronecker(self.D, n)

    def elt_norm(self, x: int, y: int) -> int:
        """Norm of x + y*omega."""
        return x * x + self.s * x * y + self.omega_norm * y * y

    def omega_image_norm(self, b: int) -> int:
        """N(b + omega) = b^2 + s*b + (s^2 - D)/4."""
        return b * b + self.s * b + self.omega_norm

    # -- ideals ---------------------------------------------------------

    def ideal(self, k: int, a: int, b: int) -> "QfIdeal":
        return QfIdeal.make(self, k, a, b)

    def unit_ideal(self) -> "QfIdeal":
        return QfIdeal.make(self, 1, 1, 0)

    def principal_ideal(self, x: int, y: int) -> "QfIdeal":
        """The ideal generated by x + y*omega."""
        if x == 0 and y == 0:
            raise ValueError("zero element generates no ideal")
        # module columns: (x + y*omega) and (x + y*omega)*omega in basis (1, omega)
        # omega^2 = s*omega + (D - s^2)/4
        w2_const = -self.omega_norm
        cols = [
            (x, y),
            (y * w2_const, x + y * self.s),
        ]
        return _hnf_to_ideal(self, cols)

    def ideal_mul(self, I: "QfIdeal", J: "QfIdeal") -> "QfIdeal":
        if I.field is not self or J.field is not self:
            raise ValueError("ideals belong to a different field")
        s, w2_const = self.s, -self.omega_norm
        # primitive-part generators (a, b + omega); scale by k at the end
        a1, b1 = I.a, I.b
        a2, b2 = J.a, J.b
        # products of the module generators, coordinates in basis (1, omega):
        # (b1+omega)(b2+omega) = b1*b2 + omega^2 + (b1+b2)*omega
        cols = [
            (a1 * a2, 0),
            (a1 * b2, a1),
            (a2 * b1, a2),
            (b1 * b2 + w2_const, b1 + b2 + s),
        ]
        out = _hnf_to_ideal(self, cols)
        return QfIdeal.make(self, out.k * I.k * J.k, out.a, out.b)

    def ideal_conj(self, I: "QfIdeal") -> "QfIdeal":
        """Image of the ideal under the nontrivial automorphism."""
        # conjugate of b + omega is (b + s) - omega; the module Z*a + Z*(b+s-omega)
        # equals Z*a + Z*(b' + omega) with b' = -(b+s) mod a
        return QfIdeal.make(self, I.k, I.a, (-(I.b + self.s)) % I.a)

    # -- prime splitting ------------------------------------------------

    def split_prime(self, p: int) -> "PrimeSplit":
        """Decompose the rational prime p in the ring of integers."""
        chi = self.chi(p)
        if chi == -1:
            return PrimeSplit(p, chi, (QfIdeal.make(self, p, 1, 0),))
        roots = self._prime_roots(p)
        primes = tuple(QfIdeal.make(self, 1, p, b) for b in roots)
        return PrimeSplit(p, chi, primes)

    def _prime_roots(self, p: int) -> list[int]:
        """Roots b mod p of N(b + omega) = 0, for p split or ramified."""
        if p == 2:
            roots = [b for b in (0, 1) if self.omega_image_norm(b) % 2 == 0]
            if self.chi(2) == 0:
                roots = roots[:1]
            return roots
        if self.D % p == 0:
            return [(-self.s * pow(2, p - 2, p)) % p]
        r = tonelli_shanks(self.D % p, p)
        if r is None:
            raise ArithmeticError(f"{p} is inert; no root exists")
        inv2 = pow(2, p - 2, p)
        b1 = ((-self.s + r) * inv2) % p
        b2 = ((-self.s - r) * inv2) % p
        return sorted({b1, b2})

    # -- enumeration ----------------------------------------------------

    def enumerate_ideals(self, max_norm: int, cap: int = 10**7) -> list["QfIdeal"]:
        """All integral ideals of norm <= max_norm, sorted by (norm, k, a, b)."""
        if max_norm > cap:
            raise ValueError(f"max_norm {max_norm} exceeds cap {cap}")
        primes = _primes_up_to(max_norm)
        splits = [self.split_prime(p) for p in primes]
        out: list[QfIdeal] = []

        def rec(idx: int, cur: QfIdeal, cur_norm: int) -> None:
            out.append(cur)
            for j in range(idx, len(primes)):
                p = primes[j]
                if cur_norm * p > max_norm:
                    break
                ps = splits[j]
                if ps.chi == -1:
                    q = p * p
                    I, n = cur, cur_norm
                    while n * q <= max_norm:
                        I = self.ideal_mul(I, ps.primes[0])
                        n *= q
                        rec(j + 1, I, n)
                elif ps.chi == 0:
                    I, n = cur, cur_norm
                    while n * p <= max_norm:
                        I = self.ideal_mul(I, ps.primes[0])
                        n *= p
                        rec(j + 1, I, n)
                else:
                    P1, P2 = ps.primes
                    I1, n1, e1 = cur, cur_norm, 0
                    while n1 * p <= max_norm:
                        I1 = self.ideal_mul(I1, P1)
                        n1 *= p
                        e1 += 1
                        I2, n2 = I1, n1
                        rec(j + 1, I2, n2)
                        while n2 * p <= max_norm:
                            I2 = self.ideal_mul(I2, P2)
                            n2 *= p
                            rec(j + 1, I2, n2)
                    # pure powers of P2
                    I2, n2 = cur, cur_norm
                    while n2 * p <= max_norm:
                        I2 = self.ideal_mul(I2, P2)
                        n2 *= p
                        rec(j + 1, I2, n2)

        rec(0, self.unit_ideal(), 1)
        out.sort(key=lambda I: (I.norm(), I.k, I.a, I.b))
        return out

    def ideal_count(self, n: int) -> int:
        """Number of integral ideals of norm n, via sum of chi over divisors."""
        count = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                count += self.chi(d)
                if d != n // d:
                    count += self.chi(n // d)
            d += 1
        return count


@dataclass(frozen=True)
class QfIdeal:
    """Integral ideal k*(Z*a + Z*(b + omega)) of norm k^2*a."""

    field: QuadField
    k: int
    a: int
    b: int

    @staticmethod
    def make(field: QuadField, k: int, a: int, b: int) -> "QfIdeal":
        if k <= 0 or a <= 0:
            raise ValueError("ideal parameters must be positive")
        b %= a
        if field.omega_image_norm(b) % a != 0:
            raise ValueError(f"(k,a,b)=({k},{a},{b}) is not an ideal: a does not divide N(b+omega)")
        return QfIdeal(field, k, a, b)

    def norm(self) -> int:
        return self.k * self.k * self.a

    def conj(self) -> "QfIdeal":
        return self.field.ideal_conj(self)

    def __mul__(self, other: "QfIdeal") -> "QfIdeal":
        return self.field.ideal_mul(self, other)

    def __repr__(self) -> str:
        return f"QfIdeal(D={self.field.D}, k={self.k}, a={self.a}, b={self.b})"


def _hnf_to_ideal(field: QuadField, cols: list[tuple[int, int]]) -> QfIdeal:
    """Hermite normal form of the Z-module spanned by columns (x, y) = x + y*omega."""
    # reduce to a single column (X, g) with g = gcd of all y entries
    X, g = 0, 0
    rest: list[int] = []
    for x, y in cols:
        if g == 0:
            if y != 0:
                X, g = x, y
            else:
                rest.append(x)
            continue
        if y == 0:
            rest.append(x)
            continue
        gg, u, v = _xgcd(g, y)
        Xn = u * X + v * x
        # both columns minus multiples of (Xn, gg) become y = 0
        rest.append(x - (y // gg) * Xn)
        rest.append(X - (g // gg) * Xn)
        X, g = Xn, gg
    if g < 0:
        X, g = -X, -g
    m = 0
    for x in rest:
        m = gcd(m, x)
    if g == 0 or m == 0:
        raise ValueError("module is not of full rank")
    if m % g != 0 or X % g != 0:
        raise ArithmeticError("module is not an ideal of the maximal order")
    return QfIdeal.make(field, g, m // g, (X // g) % (m // g))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g sign following python gcd > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(2, n + 1) if sieve[i]]


@dataclass(frozen=True)
class PrimeSplit:
    """Splitting data of a rational prime: chi = +1 split, -1 inert, 0 ramified."""

    p: int
    chi: int
    primes: tuple[QfIdeal, ...]
