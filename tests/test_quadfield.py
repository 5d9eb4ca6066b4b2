import random
from collections import Counter
from itertools import repeat

import numpy as np
import pytest
from sympy import factorint, jacobi_symbol

import oracles
from maassforge.cli import DISC_BUDGET
from maassforge.quadfield import (
    QfIdeal,
    QuadField,
    _legendre,
    is_fundamental_discriminant,
    is_squarefree,
    prime_factors,
    primes_up_to,
)
from oracles import ideal_conj, kronecker, principal_ideal


def test_kronecker_against_jacobi_oracle():
    random.seed(0)
    for _ in range(500):
        a = random.randint(-300, 300)
        n = random.choice(range(1, 300, 2))  # odd n: Jacobi symbol applies
        assert kronecker(a, n) == int(jacobi_symbol(a, n))


def test_prime_factors_against_factorint_oracle():
    random.seed(2)
    for n in list(range(1, 2000)) + [random.randint(1, 10**9) for _ in range(200)]:
        assert prime_factors(n) == sorted(factorint(n))
        assert is_squarefree(n) == all(e == 1 for e in factorint(n).values())


def test_kronecker_multiplicative_in_bottom():
    random.seed(1)
    for _ in range(300):
        a = random.randint(-100, 100)
        m, n = random.randint(1, 60), random.randint(1, 60)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_chi_matches_kronecker():
    # chi_D(n) = chi_d2(n) prod (n|q) at n mod D, against the Jacobi loop:
    # d2 = 1, -4 and +-8 all occur below 1000.  chi takes [-60, 60] mod D
    # as one int64 array, and each n of size D and beyond as an int
    random.seed(3)
    huge = [random.randrange(10**399, 10**400) for _ in range(2)]
    fields = [D for D in range(1000) if is_fundamental_discriminant(D)] + [95304805, 100000001]
    tables = set()
    for D in fields:
        F = QuadField(D)
        tables.add(tuple(F._chi_d2.tolist()))
        small = range(-60, 61)
        assert F.chi(np.array([n % D for n in small])).tolist() == [kronecker(D, n) for n in small]
        for n in [D, D - 1, D + 1, *huge]:
            assert F.chi(n) == kronecker(D, n) and F.chi(-n) == kronecker(D, -n), (D, n)
    assert len(tables) == 4


def test_fundamental_discriminants():
    good = [5, 8, 12, 13, 40, 229, 401, 445]
    bad = [0, 1, 2, 3, 4, 9, 16, 25, 45, 50, 100, -3]
    for D in good:
        assert is_fundamental_discriminant(D)
    for D in bad:
        assert not is_fundamental_discriminant(D)


def test_non_fundamental_rejected():
    with pytest.raises(ValueError):
        QuadField(45)
    with pytest.raises(ValueError):
        QuadField(100)


def test_legendre_refuses_a_prime_past_2_to_the_31():
    # Euler's criterion squares residues in int64, so q < 2^31: 2^31 - 1 is
    # taken, and the prime 2^31 + 11 is refused before any power
    assert _legendre(np.array([2, 3, 7]), 2**31 - 1).tolist() == [jacobi_symbol(a, 2**31 - 1) for a in (2, 3, 7)]
    with pytest.raises(ValueError, match="over 2\\^31"):
        _legendre(np.array([2]), 2**31 + 11)


def test_tonelli_shanks():
    random.seed(2)
    for p in (3, 5, 13, 17, 97, 101, 229, 65537):
        for _ in range(20):
            x = random.randint(0, p - 1)
            r = oracles.tonelli_shanks(x * x % p, p)
            assert r is not None and r * r % p == x * x % p
        # non-residues return None
        nr = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        assert oracles.tonelli_shanks(nr, p) is None


def test_splitting_229():
    F = QuadField(229)
    assert F.chi(2) == -1 and F.chi(3) == 1 and F.chi(229) == 0
    chi, b = F.prime_roots(np.array([2, 3, 229], dtype=np.int64))
    assert chi.tolist() == [-1, 1, 0]
    # split: two distinct prime ideals of norm 3
    above_3 = {QfIdeal.make(F, 1, 3, int(b[1])), QfIdeal.make(F, 1, 3, -F.s - int(b[1]))}
    assert len(above_3) == 2
    for P in above_3:
        assert P.norm() == 3
    assert QfIdeal.make(F, 2, 1, 0).norm() == 4  # inert
    assert QfIdeal.make(F, 1, 229, int(b[2])).norm() == 229  # ramified
    # N(omega) = -57: 5 does not divide it, and k and a must be positive
    with pytest.raises(ValueError, match="not an ideal"):
        QfIdeal.make(F, 1, 5, 0)
    for k, a in [(0, 3), (1, -3)]:
        with pytest.raises(ValueError, match="must be positive"):
            QfIdeal.make(F, k, a, 0)


def test_prime_ideals_divide_norm_poly():
    primes = primes_up_to(10**4)
    for D in (40, 229, 445, 401, 505, 3305, 14165):
        F = QuadField(D)
        chi, b = F.prime_roots(primes)
        assert chi.tolist() == [kronecker(D, p) for p in primes.tolist()]
        for p, c, r in zip(primes.tolist(), chi.tolist(), b.tolist()):
            if c == -1:
                continue
            # the least root, and for split p the other root -s - b
            roots = [r] if c == 0 else [r, (-F.s - r) % p]
            assert roots == oracles.prime_roots(F, p), (D, p)
            for root in roots:
                assert F.elt_norm(root, 1) % p == 0


@pytest.fixture(scope="module")
def primes_of_a_full_table():
    """Every prime of the automorphy workload's table, N = 1,220,639."""
    return primes_up_to(1220639)


# every 2-part (1, -4, 8, -8), one to three odd prime factors, and the largest
# prime D = 1 mod 4 the CLI accepts, whose Euler power has the longest exponent
@pytest.mark.parametrize("D", [5, 8, 12, 24, 40, 136, 229, 401, 445, 505, 777, 840, 940, 1105,
                               3305, 40009, 99999989])
def test_prime_roots_bitwise_equal_to_euler_over_every_prime(D, primes_of_a_full_table):
    # chi_D(p) and the least root, exactly, at every prime: a root b of
    # N(b + omega) = b^2 + s b + (s - D)/4 mod p makes D = (2b + s)^2 a
    # square mod p, so chi_D(p) is 0 where p | D and 1 elsewhere; at the
    # other primes Euler's criterion D^((p-1)/2) = -1 mod p, by Python's pow,
    # and (D|2) by kronecker
    p = primes_of_a_full_table
    chi, b = QuadField(D).prime_roots(p)
    assert chi.dtype == b.dtype == np.int64
    s = D % 2
    assert np.array_equal(chi == 0, D % p == 0) and chi[0] == kronecker(D, 2)
    live = chi >= 0
    assert not ((b * b + s * b + (s - D) // 4) % p)[live].any()
    assert np.all(b[live] <= (-s - b[live]) % p[live]) and not b[~live].any()
    q = p[~live & (p != 2)]
    assert list(map(pow, repeat(D), ((q - 1) // 2).tolist(), q.tolist())) == (q - 1).tolist()


def test_largest_prime_discriminant_below_the_disc_budget():
    D = 99999989
    assert D < DISC_BUDGET and D % 4 == 1 and prime_factors(D) == [D]
    assert all(prime_factors(q) != [q] for q in range(D + 4, DISC_BUDGET + 1, 4))


@pytest.mark.parametrize("D", [5, 8, 17, 40, 229, 401, 1105, 14165])
def test_enumeration_matches_oracle_split(D):
    # 2 inert (5, 229, 14165), ramified (8, 40) and split (17, 401, 1105);
    # 1105 has a non-cyclic narrow class group
    F = QuadField(D)
    assert F.enumerate_ideals(2000) == oracles.enumerate_ideals(F, 2000)


def test_ideal_counts_match_divisor_sum():
    for D in (229, 445, 40):
        F = QuadField(D)
        ids = F.enumerate_ideals(200)
        cnt = Counter(I.norm() for I in ids)
        for n in range(1, 201):
            assert cnt.get(n, 0) == oracles.ideal_count(F, n), (D, n)


def test_enumeration_sorted_and_deterministic():
    F = QuadField(229)
    ids1 = F.enumerate_ideals(150)
    ids2 = F.enumerate_ideals(150)
    assert ids1 == ids2
    norms = [I.norm() for I in ids1]
    assert norms == sorted(norms)


def test_enumeration_below_norm_one_is_empty():
    # the unit ideal has norm 1, so no ideal has norm <= 0
    F = QuadField(229)
    assert F.enumerate_ideals(0) == [] == oracles.enumerate_ideals(F, 0)
    assert [I.norm() for I in F.enumerate_ideals(1)] == [1]


def test_enumeration_cap():
    F = QuadField(229)
    with pytest.raises(ValueError):
        F.enumerate_ideals(10**8)


def test_ideal_multiplication_norms():
    random.seed(3)
    for D in (229, 445, 40):
        F = QuadField(D)
        ids = F.enumerate_ideals(100)
        for _ in range(100):
            I, J = random.choice(ids), random.choice(ids)
            assert (I * J).norm() == I.norm() * J.norm()
    # an ideal of another field, even one of the same D, is refused
    with pytest.raises(ValueError, match="different field"):
        F.ideal_mul(F.unit_ideal(), QuadField(F.D).unit_ideal())


def _contains(L, x, y):
    """x + y omega lies in L = k (Z a + Z (b + omega))."""
    return x % L.k == 0 == y % L.k and (x // L.k - y // L.k * L.b) % L.a == 0


def _is_product(I, J, L):
    """L = I J, read off the lattices alone: L holds k1 k2 times the four
    products a1 a2, a1 (b2 + omega), a2 (b1 + omega) and (b1 + omega)(b2 + omega)
    = b1 b2 - N(omega) + (b1 + b2 + s) omega, which span I J, and has its
    index N(I) N(J) in O."""
    F, k = I.field, I.k * J.k
    gens = [(I.a * J.a, 0), (I.a * J.b, I.a), (J.a * I.b, J.a),
            (I.b * J.b - F.omega_norm, I.b + J.b + F.s)]
    return L.norm() == I.norm() * J.norm() and all(_contains(L, k * x, k * y) for x, y in gens)


# 4 | D and 8 | D, one to three odd primes, non-cyclic groups (777, 940, 3305)
@pytest.mark.parametrize("D", [5, 8, 12, 24, 28, 40, 136, 229, 401, 445, 505, 777, 940, 3305,
                               40009])
def test_ideal_mul_is_the_lattice_product(D):
    # random pairs, inert ideals (k > 1), squares and conjugates (content
    # e > 1) among them; every other ideal of the product's norm fails the
    # same check, so the check tells the product from its neighbours
    random.seed(D)
    F = QuadField(D)
    ids = F.enumerate_ideals(400)
    by_norm = {}
    for I in ids:
        by_norm.setdefault(I.norm(), []).append(I)
    pairs = [(random.choice(ids), random.choice(ids)) for _ in range(500)]
    pairs += [(I, I) for I in ids[:40]] + [(I, ideal_conj(I)) for I in ids[:40]]
    for I, J in pairs:
        L = F.ideal_mul(I, J)
        assert _is_product(I, J, L), (I, J, L)
        for M in by_norm.get(L.norm(), []):
            assert _is_product(I, J, M) == (M == L), (I, J, M)


def test_ideal_mul_past_2_to_the_31():
    # products of split primes above 2^15.5 at a field near the --disc
    # budget, so a >= 2^31, chained past 2^62, and times conjugates and
    # inert ideals
    random.seed(6)
    F = QuadField(94572769)
    p = primes_up_to(60000)
    p = p[p > 46341]
    chi, b = F.prime_roots(p)
    split = [QfIdeal.make(F, 1, q, r) for q, c, r in zip(p.tolist(), chi.tolist(), b.tolist()) if c == 1]
    inert = [QfIdeal.make(F, q, 1, 0) for q, c in zip(p.tolist(), chi.tolist()) if c == -1]
    for _ in range(200):
        I, J, P = random.sample(split, 3)
        L = F.ideal_mul(I, J)
        assert L.a >= 2**31 and _is_product(I, J, L)
        for K in (P, ideal_conj(L), random.choice(inert)):
            assert _is_product(L, K, F.ideal_mul(L, K))
        M = F.ideal_mul(L, F.ideal_mul(P, P))
        assert M.a >= 2**62 and _is_product(L, F.ideal_mul(P, P), M)


def test_conjugate_product_is_norm_ideal():
    for D in (229, 401):
        F = QuadField(D)
        for I in F.enumerate_ideals(80):
            J = I * ideal_conj(I)
            P = principal_ideal(F, I.norm(), 0)
            assert (J.k, J.a, J.b) == (P.k, P.a, P.b)


def test_principal_ideal_norm():
    random.seed(4)
    F = QuadField(229)
    for _ in range(100):
        x, y = random.randint(-20, 20), random.randint(-20, 20)
        if (x, y) == (0, 0):
            continue
        assert principal_ideal(F, x, y).norm() == abs(F.elt_norm(x, y))


def test_primes_up_to_is_an_int64_sieve():
    for n in (-3, 0, 1, 2, 3, 4, 97, 1000):
        primes = primes_up_to(n)
        assert primes.dtype == np.int64
        assert primes.tolist() == [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]
    assert primes_up_to(10**6).size == 78498
