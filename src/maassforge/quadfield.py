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
from math import isqrt

import numpy as np

from . import BudgetError, InvalidInputError

# Largest max_norm enumerate_ideals accepts.  The ideals command costs about
# 1.35 KB of resident memory per ideal, on 55 MB at start: at this budget the
# peak RSS was 202 MB for D = 229 (107,520 ideals), 305 MB for D = 401 and
# 587 MB for D = 8089 (396,463 ideals; chi_D(p) = 1 for every p <= 13), and
# twice the budget took D = 8089 to 1.1 GB.
IDEALS_NORM_BUDGET = 100_000
# entries of an array taken per block where a pass over all of them would
# hold temporaries the size of the array: the coefficient table's row fill,
# its classification of primes, and K_0 and the phases of Theta
SIEVE_CHUNK = 1 << 14


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


def powmod_array(x, e, p):
    """x^e mod p elementwise, by square-and-multiply on int64 arrays; e and p
    are arrays of the shape of x, or scalars.

    Needs p < 2^31, so that every product of two residues fits in int64.
    Each bit multiplies r in place by f = 1 + bit (x - 1), which is x where
    the bit is set and 1 elsewhere: one product and one reduction a bit."""
    x, e = x % p, np.array(e)
    r = np.ones_like(x)
    while True:
        f = x - 1
        f *= e & 1
        f += 1
        r *= f
        r %= p
        e >>= 1
        if not e.any():
            return r
        x *= x
        x %= p


def _legendre(a, q: int):
    """(a|q) for an int64 array a and an odd prime q < 2^31: Euler's
    criterion a^((q-1)/2) mod q, which is 1, 0 or q - 1."""
    if q >= 2**31:
        raise ValueError(f"the prime {q} is over 2^31: its squares overflow int64")
    r = powmod_array(a, (q - 1) // 2, q)
    r[r == q - 1] = -1
    return r


def tonelli_shanks_array(n, p):
    """A square root of n modulo the odd prime p, for int64 arrays of
    quadratic residues n not divisible by p, and p < 2^31.

    The steps of Tonelli-Shanks, with z the least non-residue, run together
    over the residues whose t = n^q is not yet 1 (p - 1 = q 2^s, q odd).  A
    non-residue or a multiple of p never reaches t = 1, and raises ValueError
    (QuadField.prime_roots passes its split primes only)."""
    s = np.log2((p - 1) & (1 - p)).astype(p.dtype)  # the lowest set bit of p - 1
    q = (p - 1) >> s
    # r = n^((q + 1)/2) and t = n^q from the one power x = n^((q - 1)/2)
    x = powmod_array(n, (q - 1) // 2, p)
    r = x * (n % p) % p
    t = x * r % p
    del x  # one array fewer at the peak, for a table's every split prime
    act = np.flatnonzero(t != 1)
    if not act.size:
        return r
    # c = z^q for the least non-residue z of each p that needs it.  z is a
    # prime below sqrt(p) + 1, and these p are 1 mod 4 (t = 1 at once when
    # s = 1), so (2|p) = -1 iff p = 5 mod 8 and (z|p) = (p|z) for odd z
    P, Q, m = p[act], q[act], s[act]
    z = np.where(P % 8 == 5, 2, 0)
    todo = np.flatnonzero(z == 0)
    for y in primes_up_to(isqrt(int(P.max())) + 1)[1:].tolist():
        if not todo.size:
            break
        nonres = _legendre(P[todo], y) == -1
        z[todo[nonres]] = y
        todo = todo[~nonres]
    c = powmod_array(z, Q, P)
    R, T = r[act], t[act]
    live = np.arange(act.size)
    while live.size:
        # least i with T^(2^i) = 1, then b = c^(2^(m - i - 1))
        i = np.zeros_like(live)
        sq, ml = T[live], m[live]
        todo = np.arange(live.size)
        while todo.size:
            sq[todo] = sq[todo] * sq[todo] % P[live[todo]]
            i[todo] += 1
            if (i[todo] == ml[todo]).any():  # a residue's T^(2^(m-1)) is 1
                raise ValueError("tonelli_shanks_array takes quadratic residues prime to p")
            todo = todo[sq[todo] != 1]
        Pl = P[live]
        b = powmod_array(c[live], 1 << (m[live] - i - 1), Pl)
        R[live] = R[live] * b % Pl
        c[live] = b * b % Pl
        T[live] = T[live] * c[live] % Pl
        m[live] = i
        live = live[T[live] != 1]
    r[act] = R
    return r


class QuadField:
    """Q(sqrt(D)) for a fundamental discriminant D > 0."""

    def __init__(self, D: int):
        if not is_fundamental_discriminant(D):
            raise InvalidInputError(f"{D} is not a fundamental discriminant of a real quadratic field")
        self.D = D
        self.s = D % 2              # trace of omega
        self.omega_norm = (self.s * self.s - D) // 4   # norm of omega
        # D = 2^v m with m odd is d2 = 1, -4 or +-8 times the prime
        # discriminants of the primes q | m (see chi): chi_d2 at n mod 8
        v = (D & -D).bit_length() - 1
        m = D >> v
        self._odd_primes = prime_factors(m)
        self._chi_d2 = np.array(
            [1, 1, 1, 1, 1, 1, 1, 1] if v == 0 else       # d2 = 1
            [0, 1, 0, -1, 0, 1, 0, -1] if v == 2 else     # d2 = -4
            [0, 1, 0, -1, 0, -1, 0, 1] if m % 4 == 1 else  # d2 = 8
            [0, 1, 0, 1, 0, -1, 0, -1])                   # d2 = -8

    def __repr__(self) -> str:
        return f"QuadField({self.D})"

    def chi(self, n):
        """The quadratic character attached to the field, the Kronecker
        symbol (D|n): chi_D(n) = chi_d2(n) prod (n|q), for an int n of any
        size and sign, taken at n mod D, or elementwise for an int64 array n.

        For a fundamental D > 0, n -> (D|n) is an even primitive character mod
        D on all of Z (Davenport, ch. 5; Cohen, GTM 138, 1.4.9), fixed by its
        values at the odd primes p not dividing D, which meet every class
        prime to D.  The prime discriminants q* = (-1)^((q-1)/2) q of the odd
        primes q | D multiply to the one of +-m that is 1 mod 4, and D is
        that times d2.  So (D|p) = (d2|p) prod (q*|p), where (q*|p) = (p|q) by
        reciprocity and (d2|p) = chi_d2(p) by the supplementary laws.  The
        product chi_d2 prod (.|q) is a character mod D too, and like (D|.) it
        is 0 exactly at the n that share a factor with D, 0 included.  The
        two therefore agree at every integer n, and n may be any residue of
        the integer asked for: chi_D(2) needs no case of its own, nor do
        negative or huge n."""
        a = n if isinstance(n, np.ndarray) else np.array([n % self.D])
        chi = self._chi_d2[a % 8]
        for q in self._odd_primes:
            chi *= _legendre(a, q)
        return chi if a is n else int(chi[0])

    def elt_norm(self, x: int, y: int) -> int:
        """Norm of x + y*omega."""
        return x * x + self.s * x * y + self.omega_norm * y * y

    # -- ideals ---------------------------------------------------------

    def unit_ideal(self) -> "QfIdeal":
        return QfIdeal.make(self, 1, 1, 0)

    def ideal_mul(self, I: "QfIdeal", J: "QfIdeal") -> "QfIdeal":
        """I*J by the composition of forms (Cohen, GTM 138, 5.4; Buell, ch. 4).

        Write b_i + omega = beta_i = (B_i + sqrt(D))/2, B_i = 2 b_i + s = D
        mod 2, so the halves below are integers.  The primitive parts multiply
        to the module spanned by a1 a2, a1 beta2, a2 beta1 and
        beta1 beta2 = ((B1 B2 + D)/2 + (B1 + B2)/2 sqrt(D))/2,
        whose omega-coefficients are 0, a1, a2 and (B1 + B2)/2.  Those of
        e (a, b + omega) are the multiples of e, so its content e is their gcd
        x g + w (B1 + B2)/2, where g = u a1 + v a2 = gcd(a1, a2), and
        a = a1 a2 / e^2 by the norm.  x (u a1 beta2 + v a2 beta1) + w beta1 beta2
        has omega-coefficient e: it is e (B + sqrt(D))/2 in e O, so that
        B = [x (u a1 B2 + v a2 B1) + w (B1 B2 + D)/2]/e is an integer = s mod 2,
        and (B + sqrt(D))/2 = (B - s)/2 + omega gives b = (B - s)/2 mod a.
        Taken mod 2a, B is the composition's B = B_i mod 2 a_i / e with
        B^2 = D mod 4a; QfIdeal.make checks the last."""
        if I.field is not self or J.field is not self:
            raise ValueError("ideals belong to a different field")
        a1, a2, B1, B2 = I.a, J.a, 2 * I.b + self.s, 2 * J.b + self.s
        g, u, v = xgcd(a1, a2)
        e, x, w = xgcd(g, (B1 + B2) // 2)
        a = a1 * a2 // (e * e)
        B = (x * (u * a1 * B2 + v * a2 * B1) + w * ((B1 * B2 + self.D) // 2)) // e % (2 * a)
        return QfIdeal.make(self, I.k * J.k * e, a, (B - self.s) // 2)

    # -- prime splitting ------------------------------------------------

    def prime_roots(self, p):
        """chi_D(p), and the least root b of N(b + omega) = 0 mod p (0 for inert
        p), for an int64 array of primes p < 2^31.

        The prime ideals above p are then (p) when p is inert, (p, b) when it
        is ramified, and (p, b) and (p, -s - b) when it splits, since the two
        roots sum to -s.  chi_D(p) is chi(p).  Only the split p need
        sqrt(D), for b = (-s +- sqrt(D))/2, from tonelli_shanks_array; a
        ramified odd p has the one root -s/2, and mod 2 the least root is
        N(omega) mod 2."""
        D, s = self.D, self.s
        chi = self.chi(p)
        split = np.flatnonzero((chi == 1) & (p != 2))
        root = np.zeros_like(p)
        root[split] = tonelli_shanks_array(D % p[split], p[split])
        half = (p + 1) // 2  # the inverse of 2 mod odd p
        b = np.minimum((root - s) * half % p, (-root - s) * half % p)
        b[p == 2] = self.omega_norm % 2
        b[chi == -1] = 0
        return chi, b

    # -- enumeration ----------------------------------------------------

    def enumerate_ideals(self, max_norm: int) -> list["QfIdeal"]:
        """All integral ideals of norm <= max_norm, sorted by (norm, k, a, b).

        Each is a product of powers of distinct prime ideals, taken in the
        order of their rational primes."""
        if max_norm > IDEALS_NORM_BUDGET:
            raise BudgetError(f"max_norm {max_norm} is over the budget of {IDEALS_NORM_BUDGET}")
        if max_norm < 1:
            return []
        primes = primes_up_to(max_norm)
        chi, root = self.prime_roots(primes)
        # (p, prime ideal above p, its norm)
        prime_ideals: list[tuple[int, QfIdeal, int]] = []
        for p, c, b in zip(primes.tolist(), chi.tolist(), root.tolist()):
            if c == -1:
                prime_ideals.append((p, QfIdeal.make(self, p, 1, 0), p * p))
                continue
            prime_ideals.append((p, QfIdeal.make(self, 1, p, b), p))
            if c == 1:
                prime_ideals.append((p, QfIdeal.make(self, 1, p, -self.s - b), p))
        out: list[QfIdeal] = []

        def rec(idx: int, cur: QfIdeal, cur_norm: int) -> None:
            out.append(cur)
            for j in range(idx, len(prime_ideals)):
                p, P, q = prime_ideals[j]
                if cur_norm * p > max_norm:
                    break
                I, n = cur, cur_norm
                while n * q <= max_norm:
                    I = self.ideal_mul(I, P)
                    n *= q
                    rec(j + 1, I, n)

        rec(0, self.unit_ideal(), 1)
        out.sort(key=lambda I: (I.norm(), I.k, I.a, I.b))
        return out


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
        if field.elt_norm(b, 1) % a != 0:
            raise ValueError(f"(k,a,b)=({k},{a},{b}) is not an ideal: a does not divide N(b+omega)")
        return QfIdeal(field, k, a, b)

    def norm(self) -> int:
        return self.k * self.k * self.a

    def __mul__(self, other: "QfIdeal") -> "QfIdeal":
        return self.field.ideal_mul(self, other)

    def __repr__(self) -> str:
        return f"QfIdeal(D={self.field.D}, k={self.k}, a={self.a}, b={self.b})"


def xgcd(a: int, b: int) -> tuple[int, int, int]:
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


def primes_up_to(n: int) -> np.ndarray:
    """The primes p <= n, ascending, as an int64 array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)
