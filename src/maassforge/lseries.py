"""Hecke and Rankin-Selberg Dirichlet series for class characters.

Coefficients are computed exactly first: for each n the vector of counts of
ideals of norm n per narrow class is a group-ring element, given by the
Hecke recursion at the smallest prime factor p of n from the splitting type
and the class of a prime above p.  The table's sieve and the Euler factors
find those for arrays of primes (ClassGroup.prime_classes, on
QuadField.prime_roots), with no Python call per prime.  Applying a character
is a lazy linear map from these integer vectors to complex numbers, so every
character of the same field shares one table.

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
from .quadfield import _primes_up_to, prime_factors
from .special import exp1, incomplete_k_mellin


# rows sieved or realised per pass: bounds the temporaries of either
SIEVE_CHUNK = 1 << 14
# every prime p below this many rows has p^2 < 2^62, so the int64 arithmetic
# of ClassGroup.prime_classes cannot overflow
ROW_LIMIT = 1 << 31


def _check_row_limit(n_max: int) -> None:
    if n_max >= ROW_LIMIT:
        raise ValueError(f"n_max must be below 2^31, got {n_max}")


class ClassCountTable:
    """counts[n, j] = number of integral ideals of norm n in narrow class j.

    Row n is filled by the Hecke recursion at its smallest prime factor p,
    row(n) = v_p * row(n/p) - chi_D(p) row(n/p^2) in the group ring, the last
    term only when p^2 | n: v_p is [k] + [-k] at split p, [k] at ramified p
    and 0 at inert p, for k the class of a prime above p, and (p) is
    principal and totally positive.  extend() sieves only the rows above the
    current n_max, so a table grows in place; it classifies the primes of
    the new rows and those up to sqrt(n_max) in one ClassGroup.prime_classes
    call, whose int64 arithmetic bounds n_max below 2^31, and finds the
    smallest prime factor of every new row once.  support() keeps each
    character's nonzero coefficients.

    The counts are int16.  Row n sums to the number of ideals of norm n,
    sum_{d | n} chi_D(d) <= d(n), and d(n) <= 1600 for n < 2^31 (the most,
    at n = 2095133040).  The largest value a pass holds, v_p * row(n/p) at
    split p before row(n/p^2) is taken off, is at most 2 d(n/p) <= 3200,
    far below 2^15."""

    def __init__(self, classgroup: ClassGroup, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {n_max}")
        _check_row_limit(n_max)
        self.classgroup = classgroup
        self.h = classgroup.h_narrow
        self.counts = np.zeros((1, self.h), dtype=np.int16)
        self.n_max = 0
        # character index -> (rows realised, n with b(n) != 0, those b(n))
        self._supports: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self.extend(n_max)

    # -- local data -----------------------------------------------------

    def prime_power_vector(self, p: int, e: int) -> tuple[int, ...]:
        """Group-ring element of ideals of norm p^e supported at powers of p."""
        h = self.h
        v = [0] * h
        chi, k = (int(x[0]) for x in self.classgroup.prime_classes(np.array([p], dtype=np.int64)))
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

    def convolve(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        h = self.h
        out = [0] * h
        for j, uj in enumerate(u):
            if uj:
                for k, vk in enumerate(v):
                    if vk:
                        out[(j + k) % h] += uj * vk
        return tuple(out)

    def row(self, n: int) -> tuple[int, ...]:
        """Counts of the ideals of norm n per class, as exact integers."""
        return tuple(self.counts[n].tolist())

    # -- growth ---------------------------------------------------------

    def extend(self, n_max: int) -> None:
        """Grow the table to exactly n = n_max, keeping the rows it has."""
        lo = self.n_max
        if n_max <= lo:
            return
        _check_row_limit(n_max)
        counts = np.zeros((n_max + 1, self.h), dtype=np.int16)
        counts[: lo + 1] = self.counts
        self.counts = counts
        if lo == 0:
            counts[1, 0] = 1  # the unit ideal
            lo = 1
        # a composite n has its smallest prime factor below sqrt(n_max)
        root = math.isqrt(n_max)
        primes = _primes_up_to(n_max)
        primes = primes[(primes > lo) | (primes <= root)]
        chi, k = self.classgroup.prime_classes(primes)
        # at[i] = where the smallest prime factor of row lo + 1 + i is in
        # primes: the primes up to sqrt(n_max) mark their multiples, the
        # smallest last, and the rows none marks are the primes above it
        at = np.full(n_max - lo, -1, dtype=np.int32)
        for j in range(np.searchsorted(primes, root, side="right") - 1, -1, -1):
            q = int(primes[j])
            at[-(lo + 1) % q :: q] = j
        new = np.flatnonzero(at < 0)
        at[new] = np.searchsorted(primes, new + (lo + 1))
        start = lo
        while lo < n_max:
            # n/p <= n/2 <= lo, so every row a pass reads is already filled
            hi = min(n_max, 2 * lo, lo + SIEVE_CHUNK)
            self._sieve(lo + 1, hi, at[lo - start : hi - start], primes, chi, k)
            lo = hi
        self.n_max = n_max

    def _sieve(
        self, a: int, b: int, at: np.ndarray, primes: np.ndarray, chi: np.ndarray, k: np.ndarray
    ) -> None:
        """Fill rows a..b from rows below a (requires b <= 2(a - 1)), given
        for each row the index at of its smallest prime factor in the
        ascending primes, and chi_D and the class log of each prime."""
        h = self.h
        n = np.arange(a, b + 1, dtype=np.int64)
        p = primes[at]
        chi, k, m = chi[at], k[at], n // p
        # adding class s to row m moves count j to class j + s: out[n, j] +=
        # counts[m, (j - s) % h], gathered from the flat table
        shifted = (np.arange(h) - np.arange(h)[:, None]) % h  # shifted[s, j] = (j - s) % h
        flat = self.counts.reshape(-1)
        out = np.zeros((len(n), h), dtype=self.counts.dtype)
        idx = np.flatnonzero(chi >= 0)  # v_p * row(n/p): [k] at split and ramified p
        mh = (m[idx] * h)[:, None]
        out[idx] = flat[mh + shifted[k[idx]]]
        split = chi[idx] == 1  # and [-k] at split p
        out[idx[split]] += flat[mh[split] + shifted[-k[idx[split]] % h]]
        idx = np.flatnonzero(m % p == 0)  # - chi_D(p) row(n/p^2)
        out[idx] -= chi[idx, None] * self.counts[m[idx] // p[idx]]
        self.counts[a : b + 1] = out

    # -- realizations ---------------------------------------------------

    def _realise(self, index: int, lo: int, hi: int):
        """(a, b[a:a + SIEVE_CHUNK]) for each pass over the rows lo <= n < hi,
        so that the complex copy of the counts the product casts to is one
        pass, SIEVE_CHUNK x h values."""
        h = self.h
        zeta = np.exp(2j * np.pi * index * np.arange(h) / h)
        for a in range(lo, hi, SIEVE_CHUNK):
            yield a, self.counts[a : min(a + SIEVE_CHUNK, hi)] @ zeta

    def coefficients(self, index: int, n_max: int) -> np.ndarray:
        """Complex array b with b[n] = sum over ideals of norm n of psi(ideal),
        for psi the class character of the given index."""
        if n_max > self.n_max:
            raise ValueError("table too small")
        b = np.empty(n_max + 1, dtype=np.complex128)
        for a, c in self._realise(index, 0, n_max + 1):
            b[a : a + c.size] = c
        return b

    def support(self, index: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The n <= n_max with b(n) != 0, ascending, and those b(n), as
        read-only arrays.  Rows are realised once per character: a call
        realises only those above the rows realised before."""
        if n_max > self.n_max:
            raise ValueError("table too small")
        done, n, b = self._supports.get(index, (0, np.zeros(0, np.int64), np.zeros(0, complex)))
        if n_max > done:
            ns, bs = [n], [b]
            for a, c in self._realise(index, done + 1, n_max + 1):
                nz = np.flatnonzero(c)
                ns.append(a + nz)
                bs.append(c[nz])
            n, b = np.concatenate(ns), np.concatenate(bs)
            n.flags.writeable = b.flags.writeable = False
            self._supports[index] = n_max, n, b
        cut = np.searchsorted(n, n_max, side="right")
        return n[:cut], b[:cut]


def get_table(classgroup: ClassGroup, n_max: int) -> ClassCountTable:
    """The class group's coefficient table, built on first use and grown in
    place to at least n_max rows."""
    t = classgroup.count_table
    if t is None:
        t = classgroup.count_table = ClassCountTable(classgroup, n_max)
    else:
        t.extend(n_max)
    return t


def hecke_l_coeffs(character: HeckeCharacter, n_max: int) -> np.ndarray:
    """Dirichlet coefficients of L(s, psi) up to n_max (index 0 unused)."""
    table = get_table(character.classgroup, n_max)
    return table.coefficients(character.index, n_max)


def rankin_coeffs(character: HeckeCharacter, n_max: int) -> np.ndarray:
    """|a'(n)|^2 for the doubled coefficients a'(n) of the theta form."""
    b = hecke_l_coeffs(character, n_max)
    return (b * b.conj()).real


# -- Euler factors ------------------------------------------------------


def _prime_values(character: HeckeCharacter, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi_D(p), and psi(P) for the prime ideal P = (p, b) above each p of an
    int64 array of primes; psi((p)) = 1 for inert p, as (p) is principal and
    totally positive.  At split p the other prime P' has psi(P') = conj psi(P),
    since P P' = (p)."""
    chi, k = character.classgroup.prime_classes(p)
    h = character.h
    return chi, np.exp(2j * np.pi * (character.index * k % h) / h)


def euler_factor(character: HeckeCharacter, p: np.ndarray, s: complex) -> np.ndarray:
    """Local factors of L(s, psi) at an int64 array of primes p."""
    chi, a = _prime_values(character, p)
    x = p.astype(np.float64) ** (-s)
    return np.where(
        chi == 1,
        1.0 / ((1 - a * x) * (1 - a.conj() * x)),
        np.where(chi == 0, 1.0 / (1 - a * x), 1.0 / (1 - x * x)),
    )


def hecke_recursion_residual(character: HeckeCharacter, p: int, r_max: int = 4) -> int:
    """Exact check of a'(p^(r+1)) = a'(p) a'(p^r) - chi_D(p) a'(p^(r-1)) for
    p coprime to the level, in the group ring (returns number of failures)."""
    field = character.field
    if field.D % p == 0:
        raise ValueError("p must not divide the level")
    table = get_table(character.classgroup, 1)
    vecs = [table.prime_power_vector(p, e) for e in range(r_max + 2)]
    chi = field.chi(p)
    fails = 0
    for r in range(1, r_max + 1):
        lhs = vecs[r + 1]
        prod = table.convolve(vecs[1], vecs[r])
        rhs = tuple(a - chi * b for a, b in zip(prod, vecs[r - 1]))
        if lhs != rhs:
            fails += 1
    return fails


def multiplicativity_failures(character: HeckeCharacter, n_max: int = 200) -> int:
    """Exact check of a'(mn) = a'(m) a'(n) for coprime m, n (group ring)."""
    table = get_table(character.classgroup, n_max)
    fails = 0
    for m in range(2, n_max):
        for n in range(2, n_max // m + 1):
            if math.gcd(m, n) != 1:
                continue
            if table.row(m * n) != table.convolve(table.row(m), table.row(n)):
                fails += 1
    return fails


# -- Rankin-Selberg identity --------------------------------------------


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
    primes = _primes_up_to(X)
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
    prod_tail = math.expm1(exp1((s - 1) * math.log(X)))
    return abs(partial_sum + sum_tail - partial_prod * (1 + prod_tail))


# -- L(1) ----------------------------------------------------------------


class SplitPointError(ArithmeticError):
    """The approximate functional equation gave different L(1) at two split
    points."""


def l_value_at_1_afe(character: HeckeCharacter, cutoff: float = 1.0) -> float:
    """L(1, psi) by the completed-L split-integral identity.

    With G_s(x) = int_x^oo K_0(u) u^(s-1) du the incomplete K_0-Mellin
    transform, epsilon the sign exponent of psi and Y' = 1/(D Y), for any
    split point Y > 0:

        L(1) = c [sum_n b(n) G_(1+eps)(2 pi n Y)/(2 pi n)
                  + D^(-1/2) sum_n conj(b(n)) G_eps(2 pi n Y')],

    with c = 4 for even psi and c = 2 pi for odd psi.  For odd psi that is
    sum b(n) G_2(2 pi n Y)/n + (2 pi/sqrt(D)) sum conj(b(n)) G_1(2 pi n Y').

    Even psi: F(y) = Theta(iy)/sqrt(y) = sum b(n) K_0(2 pi n y) has Mellin
    transform (2 pi)^(-s) 2^(s-2) Gamma(s/2)^2 L(s, psi), which is L(1)/4 at
    s = 1.  The Fricke relation with T = 1 gives F_psi(y) =
    (D y^2)^(-1/2) F_psibar(1/(D y)), so int_Y^oo F dy =
    sum b(n) G_1(2 pi n Y)/(2 pi n) and int_0^Y F dy =
    D^(-1/2) int_Y'^oo F_psibar(t) dt/t = D^(-1/2) sum conj(b(n)) G_0(2 pi n Y').

    Odd psi: the sine series vanishes on the imaginary axis, so take
    F(y) = d_x Theta(iy)/(2 pi sqrt(y)) = sum n b(n) K_0(2 pi n y), whose
    Mellin transform at s + 1 is (2 pi)^(-s-1) 2^(s-1) Gamma((s+1)/2)^2
    L(s, psi): at s = 1 that is L(1)/(4 pi^2).  Differentiating
    Theta_psi(z) = T Theta_psibar(-1/(D z)) in x at z = iy, where the map
    has real derivative -1/(D y^2), gives with T = -1
    F_psi(y) = D^(-3/2) y^(-3) F_psibar(1/(D y)).  Hence int_Y^oo F y dy =
    sum b(n) G_2(2 pi n Y)/(2 pi n)^2 and int_0^Y F y dy =
    D^(-1/2) int_Y'^oo F_psibar dy = D^(-1/2) sum conj(b(n)) G_1(2 pi n Y')/(2 pi).

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
    b = hecke_l_coeffs(character, max(n1, n2))
    x = 2 * math.pi * np.arange(1, max(n1, n2) + 1)  # 2 pi n
    total = np.sum(b[1 : n1 + 1] * incomplete_k_mellin(1.0 + eps, x[:n1] * Y) / x[:n1])
    dual = np.sum(np.conj(b[1 : n2 + 1]) * incomplete_k_mellin(float(eps), x[:n2] * Yp))
    val = (2 * math.pi if eps else 4) * (total + dual / math.sqrt(D))
    return float(val.real)


def l_value_at_1_direct(character: HeckeCharacter, base_scale: float = 600.0) -> float:
    """Independent oracle: Abel-smoothed partial sums sum b(n) e^(-n/A) / n
    at A, 2A, 4A, 8A, Richardson-extrapolated in 1/A."""
    if character.is_trivial():
        raise ValueError("L(s, trivial) has a pole at s = 1")
    scales = [base_scale * 2**k for k in range(4)]
    n_max = int(36 * scales[-1])
    b = hecke_l_coeffs(character, n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    bn = b[1:] / n[1:]
    vals = []
    for A in scales:
        w = np.exp(-n[1:] / A)
        vals.append(complex(np.sum(bn * w)))
    # Neville elimination of the 1/A, 1/A^2, 1/A^3 error terms
    xs = [1.0 / A for A in scales]
    table = list(vals)
    for lvl in range(1, len(xs)):
        for i in range(len(xs) - lvl):
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * xs[i + lvl] / (
                xs[i] - xs[i + lvl]
            )
    return float(table[0].real)


def l_value_at_1(character: HeckeCharacter, agree_tol: float = 1e-9) -> dict:
    """L(1, psi) with the dual-route consistency report."""
    v1 = l_value_at_1_afe(character, cutoff=1.0)
    v2 = l_value_at_1_afe(character, cutoff=2.0)
    oracle = l_value_at_1_direct(character)
    if abs(v1 - v2) > agree_tol:
        raise SplitPointError(
            f"split-point instability in L(1): {v1!r} vs {v2!r}"
        )
    return {
        "value": v1,
        "cutoff_doubled": v2,
        "cutoff_agreement": abs(v1 - v2),
        "direct_oracle": oracle,
        "oracle_agreement": abs(v1 - oracle),
    }

