import math
import signal
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from maassforge import lseries as ls
from maassforge import InvalidInputError, quadfield, special
from maassforge.classforms import ClassGroup
from maassforge.heckechar import make_class_character
from maassforge.maassform import ThetaForm, gamma0_matrices
from maassforge.quadfield import (
    BudgetError,
    InvalidInputError,
    QfIdeal,
    QuadField,
    primes_up_to,
    tonelli_shanks_array,
)
from oracles import (
    SIEVE_CHUNK,
    ReferenceCountTable,
    coefficients,
    convolve,
    dense_coefficients,
    dlog,
    euler_factor,
    exact_zeros,
    hecke_recursion_residual,
    ideal_to_form,
    kronecker,
    multiplicativity_failures,
    prime_power_vector,
    rankin_coeffs,
    rankin_euler_identity_residual,
    rankin_euler_identity_residual_corrected,
    rankin_local_factor,
    rankin_residue,
    row,
    scalar_cycles,
    split_prime,
    tonelli_shanks,
)


@pytest.fixture(scope="module")
def cg229():
    return ClassGroup(QuadField(229))


@pytest.fixture(scope="module")
def psi229(cg229):
    return make_class_character(cg229, 1)


def test_count_table_matches_ideal_enumeration(cg229):
    F = cg229.field
    table = ReferenceCountTable(cg229, 500)
    ref: dict[int, list[int]] = {}
    for I in F.enumerate_ideals(500):
        ref.setdefault(I.norm(), [0] * 3)[dlog(cg229, I)] += 1
    for n in range(1, 501):
        assert tuple(ref.get(n, [0, 0, 0])) == row(table, n)


def prime_class_oracle(cg, primes):
    """chi_D(p) and the class log of the oracle split's first ideal above p,
    one Python call per prime, its form reduced by the scalar route and
    found among scalar_cycles."""
    F = cg.field
    label = {f: i for i, cyc in enumerate(scalar_cycles(F.D)) for f in cyc}
    out = []
    for p in primes:
        chi, ideals = split_prime(F, p)
        out.append((chi, 0 if chi == -1 else cg.logs[label[ideal_to_form(F, ideals[0]).reduce()]]))
    return out


@pytest.mark.parametrize("D", [40, 229, 445, 401, 505, 3305, 14165])
def test_prime_classes_match_per_prime_oracle(D):
    # 2 ramified (40), inert (229, 445, 14165) and split (401, 505, 3305), every
    # p | D, and primes over three of prime_classes' blocks
    cg = ClassGroup(QuadField(D))
    primes = primes_up_to(400000)
    assert primes.size > 2 * ls.SIEVE_CHUNK
    chi, cls = cg.prime_classes(primes)
    got = list(zip(chi.tolist(), cg.logs[cls].tolist()))
    assert got == prime_class_oracle(cg, primes.tolist())
    assert {c for c, _ in got} == {-1, 0, 1}


@pytest.mark.parametrize("D, h", [(777, 8), (940, 12)])
def test_count_table_builds_for_a_non_cyclic_group(D, h):
    # exponents 4 and 6: the table keeps each prime's class and takes no
    # discrete log, so it builds where the class characters are refused
    F = QuadField(D)
    cg = ClassGroup(F)
    assert cg.h_narrow == h
    table = ls.ClassCountTable(cg, 2000)
    primes = primes_up_to(2000)
    assert np.array_equal(table.primes, primes)
    assert table.chi.tolist() == [F.chi(p) for p in primes.tolist()]
    _, roots = F.prime_roots(primes)
    reached = set()
    for p, chi, c, b in zip(primes.tolist(), table.chi.tolist(), table.classes.tolist(), roots.tolist()):
        if chi == -1:
            assert c == 0, p  # (p) is principal and totally positive
        else:
            assert c == cg.class_index(QfIdeal.make(F, 1, p, b)), p
            reached.add(c)
    assert reached == set(range(h))
    with pytest.raises(InvalidInputError, match=f"^the narrow class group of D={D} is not cyclic; "):
        make_class_character(cg, 1)


def _check_sqrt_against_scalar(n, p):
    r = tonelli_shanks_array(np.array(n, dtype=np.int64), np.array(p, dtype=np.int64))
    assert r.tolist() == [tonelli_shanks(a, q) for a, q in zip(n, p)]


@pytest.mark.parametrize("D", [40, 229, 445, 401, 505, 3305, 14165])
def test_prime_roots_gives_the_kronecker_symbol(D):
    # every odd prime to 2e5 (65537 = 2^16 + 1 among them), 786433 = 3 2^18 + 1,
    # whose Tonelli-Shanks t = D^q needs up to 17 squarings, and the p | D
    primes = np.append(primes_up_to(200000)[1:], 786433)
    F = QuadField(D)
    chi, b = F.prime_roots(primes)
    assert chi.tolist() == [kronecker(D, p) for p in primes.tolist()]
    assert {c for c, p in zip(chi.tolist(), primes.tolist()) if D % p == 0} == {0}
    split = chi == 1
    r = tonelli_shanks_array(D % primes[split], primes[split])
    assert np.array_equal(r**2 % primes[split], D % primes[split])
    # b is a root of N(b + omega) mod p at split and ramified p, and 0 at inert p
    assert not (F.elt_norm(b[chi >= 0], 1) % primes[chi >= 0]).any()
    assert not b[chi == -1].any()


@pytest.mark.parametrize("p", [65537, 786433])  # 2^16 + 1 and 3 * 2^18 + 1
def test_tonelli_shanks_array_at_high_two_adic_valuation(p):
    # z^(2j) for a non-residue z: t = n^q has order 2^(s - 1 - v2(j)), so the
    # inner loop runs for every length up to its longest
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    n = sorted({pow(z, 2 * j, p) for j in range(1, 600)} | {D % p for D in (5, 229, 14165)})
    n = [a for a in n if tonelli_shanks(a, p) is not None]
    _check_sqrt_against_scalar(n, [p] * len(n))


@pytest.mark.parametrize("n,p", [([3], [17]), ([17], [17]), ([3], [7]), ([2, 3, 4], [7, 17, 17])])
def test_tonelli_shanks_array_refuses_a_non_residue_promptly(n, p):
    # 3 is a non-residue mod 17 and mod 7, and 17 a multiple of 17: t = n^q
    # never reaches 1, which once spun the search for the least i on
    def too_slow(*_):
        raise TimeoutError("tonelli_shanks_array still running after 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="quadratic residues"):
            tonelli_shanks_array(np.array(n, dtype=np.int64), np.array(p, dtype=np.int64))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_tonelli_shanks_array_below_automorphy_row_budget():
    divisors = primes_up_to(math.isqrt(ls.ROW_BUDGET)).tolist()
    primes = [q for q in range(ls.ROW_BUDGET - 3000, ls.ROW_BUDGET)
              if all(q % d for d in divisors)]
    assert len(primes) > 150
    pairs = [(a, q) for q in primes for a in (229, 14165, q - 1, q - 4, (q + 1) // 2, 7**5 % q)
             if tonelli_shanks(a, q) not in (None, 0)]
    _check_sqrt_against_scalar(*zip(*pairs))


def test_table_factors_no_discriminant(monkeypatch):
    # the field splits D into d2 and its odd primes once, when it is made:
    # prime_roots, called once per SIEVE_CHUNK block of primes, factors nothing
    cg = ClassGroup(QuadField(3305))  # 5 * 661
    cg.logs
    calls = []
    factor = quadfield.prime_factors
    monkeypatch.setattr(quadfield, "prime_factors", lambda n: calls.append(n) or factor(n))
    table = ls.ClassCountTable(cg, 700_000)
    assert table.primes.size > 3 * ls.SIEVE_CHUNK
    assert calls == []


def test_count_table_rejects_n_max_out_of_range_before_allocating(cg229, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("allocated a table or classified its primes")

    monkeypatch.setattr(ls.np, "zeros", no_rows)
    monkeypatch.setattr(ls.np, "full", no_rows)
    monkeypatch.setattr(ClassGroup, "prime_classes", no_rows)
    with pytest.raises(ValueError) as exc:
        ls.ClassCountTable(cg229, -1)
    assert not isinstance(exc.value, BudgetError)
    # ROW_BUDGET is the one row limit: it keeps every prime of a table below
    # the 2^31 of prime_classes, and every n below the 2^22 of Theta's phase
    assert ls.ROW_BUDGET < 2**22 < 2**31
    for n_max in (ls.ROW_BUDGET + 1, 2**31):
        with pytest.raises(BudgetError) as exc:
            ls.ClassCountTable(cg229, n_max)
        assert str(exc.value) == f"a'(n) up to n = {n_max} is over the budget of {ls.ROW_BUDGET} rows"


def test_support_refuses_rows_past_its_table(cg229, psi229):
    table = ls.ClassCountTable(cg229, 100)
    assert table.support(psi229, 100)[0][-1] <= 100
    with pytest.raises(ValueError, match="table too small"):
        table.support(psi229, 101)


TABLE_ROWS = 70001


@pytest.mark.parametrize(
    "D, h", [(40, 2), (229, 3), (445, 4), (401, 5), (505, 8), (3305, 12), (14165, 6)]
)
def test_grown_table_equals_one_shot_build(D, h):
    # the reference table, sieved in passes that end at powers of 2 and then
    # every SIEVE_CHUNK rows
    cg = ClassGroup(QuadField(D))
    assert cg.h_narrow == h
    table = ReferenceCountTable(cg, TABLE_ROWS)
    assert TABLE_ROWS > 4 * SIEVE_CHUNK
    assert table.n_max == TABLE_ROWS and table.counts.shape == (TABLE_ROWS + 1, h)
    # the first rows against enumerated ideals per class
    ref = np.zeros((1501, h), dtype=np.int64)
    for I in cg.field.enumerate_ideals(1500):
        ref[I.norm(), dlog(cg, I)] += 1
    assert np.array_equal(table.counts[:1501], ref)
    # and far rows against the ideal count sum_{d|n} chi_D(d)
    for n in (TABLE_ROWS - 1, TABLE_ROWS):
        total = sum(cg.field.chi(d) for d in range(1, n + 1) if n % d == 0)
        assert sum(row(table, n)) == total, (D, n)
    _check_prime_power_route(table)


def _check_prime_power_route(table, every=10**4):
    """Rows against the prime-power route the sieve took before the Hecke
    recursion: row(p^e) = prime_power_vector(p, e) for every p^e <= every,
    and row(n) = prime_power_vector(p, e) * row(n/p^e) for each p^e exactly
    dividing n, over a fixed sample of the table's n."""
    for p in primes_up_to(every).tolist():
        q, e = p, 1
        while q <= every:
            assert row(table, q) == prime_power_vector(table, p, e), (p, e)
            q, e = q * p, e + 1
    for n in np.random.default_rng(10).integers(2, table.n_max + 1, 300).tolist():
        m, p = n, 2
        while m > 1:
            if p * p > m:
                p = m
            e = 0
            while m % p == 0:
                m, e = m // p, e + 1
            if e:
                u = prime_power_vector(table, p, e)
                assert row(table, n) == convolve(table, u, row(table, n // p**e)), (n, p, e)
            p += 1


@pytest.mark.parametrize("D", [40, 229, 445, 401, 505, 136, 3305])
def test_count_tables_are_symmetric(D):
    # sigma maps the ideals of norm n in class j onto class -j, so every
    # b(n) = sum_j c_j rho^j is real, as each local factor of the support is
    table = ReferenceCountTable(ClassGroup(QuadField(D)), TABLE_ROWS)
    h = table.h
    assert np.array_equal(table.counts, table.counts[:, (-np.arange(h)) % h])


@pytest.mark.parametrize("D", [40, 229, 445, 401, 505, 3305])
def test_chunked_coefficients_equal_one_shot_product(D):
    # h = 2, 3, 4, 5, 8, 12; reads of one pass and a part, then of many
    # passes from there, against the reference's cosine sums
    cg = ClassGroup(QuadField(D))
    table = ls.ClassCountTable(cg, 70001)
    ref = ReferenceCountTable(cg, 70001)
    assert table.n_max > 4 * ls.SIEVE_CHUNK
    h = cg.h_narrow
    for n_max in (ls.SIEVE_CHUNK + 5, table.n_max):
        for index in range(h):
            cosines = np.cos(2 * np.pi * (index * np.arange(h) % h) / h)
            one_shot = (ref.counts[: n_max + 1] * cosines).sum(axis=1)
            n, b = table.support(make_class_character(cg, index), n_max)
            assert np.max(np.abs(b - one_shot[n])) < 1e-12, (D, n_max, index)
            # the rows left out are those the product realises as rounding noise
            dropped = np.ones(n_max + 1, dtype=bool)
            dropped[n] = False
            assert np.all(np.abs(one_shot[dropped]) < 1e-9) and np.all(np.abs(b) > 1e-9)


@pytest.mark.parametrize("D", [40, 229, 445, 401, 505, 3305, 14165, 68905])
def test_support_matches_the_dense_row(D):
    # every character's support, kept pass by pass from a row over half the
    # table, against the dense row of the reference counts, at sizes around
    # the edges of the passes.  At 8C + 2 and 8C + 3 the row over half the
    # table ends at 4C + 1, the first row of a pass, read as the cofactor of
    # 8C + 2.  The support is the exact nonzero set of the dense row, n for n;
    # a'(n) is its cosine sum, bit for bit for characters of order 1, 2, 3, 4
    # and 6, whose a'(n) are integers, and else within 1e-14 times the number
    # of ideals of norm n, which bounds |a'(n)|: _local_factor bounds its error
    # by 9.3e-15 of |a'(n)|, and 5.3e-16 of the number is the most seen
    cg = ClassGroup(QuadField(D))
    h = cg.h_narrow
    C = ls.SIEVE_CHUNK
    sizes = (0, 1, 2, 3, C - 1, C, C + 1, 2 * C + 1, 8 * C + 2, 8 * C + 3)
    ref = ReferenceCountTable(cg, sizes[-1])
    orders = [h // math.gcd(h, index) for index in range(h)]
    angles = 2 * np.pi * (np.outer(np.arange(h), np.arange(h)) % h) / h
    live, values, ideals = {}, {}, {}
    for order in set(orders):
        nonzero = np.ones(ref.n_max + 1, dtype=bool)
        nonzero[[0, *exact_zeros(ref, h // order, ref.n_max)]] = False
        n = live[order] = np.flatnonzero(nonzero)
        counts = ref.counts[n]
        ideals[order] = counts.sum(axis=1)
        chars = [index for index in range(h) if orders[index] == order]
        if order in (1, 2, 3, 4, 6):
            twice = counts.astype(np.int64) @ np.rint(2 * np.cos(angles[:, chars])).astype(np.int64)
            values.update(zip(chars, (twice / 2).T))
        else:
            values.update(zip(chars, (counts @ np.cos(angles[:, chars])).T))
    for n_max in sizes:
        table = ls.ClassCountTable(cg, n_max)
        for index in range(h):
            order = orders[index]
            cut = np.searchsorted(live[order], n_max, side="right")
            n, b = table.support(make_class_character(cg, index), n_max)
            assert n.dtype == np.int64 and np.array_equal(n, live[order][:cut]), (n_max, index)
            ref_b = values[index][:cut]
            if order in (1, 2, 3, 4, 6):
                assert b.tobytes() == ref_b.tobytes(), (n_max, index)
            else:
                assert np.all(np.abs(b - ref_b) <= 1e-14 * ideals[order][:cut]), (n_max, index)


def test_one_table_per_class_group_across_growing_callers(monkeypatch):
    built = []
    init = ls.ClassCountTable.__init__

    def counting_init(self, classgroup, n_max):
        built.append(n_max)
        init(self, classgroup, n_max)

    monkeypatch.setattr(ls.ClassCountTable, "__init__", counting_init)
    cg = ClassGroup(QuadField(229))
    psi = make_class_character(cg, 1)
    rankin_euler_identity_residual(psi, 2.0, 25000)
    first = cg.count_table
    assert built == [25000] and first.n_max == 25000
    # a smaller request reads the same table and builds nothing
    rankin_euler_identity_residual(psi, 2.0, 12500)
    assert cg.count_table is first and built == [25000]
    # a larger one replaces it by a table of exactly its size; the new
    # table's pass from row 16385 ends at 32768, not at 25000, and its
    # leading rows hold the old table's prime powers
    rankin_euler_identity_residual(psi, 2.0, 100000)
    assert built == [25000, 100000]
    new = cg.count_table
    assert new is not first and new.n_max == 100000
    assert np.array_equal(new.q.take(new.at[: first.at.size]), first.q.take(first.at))
    for old, new in zip(first.support(psi, 25000), cg.count_table.support(psi, 25000)):
        assert np.array_equal(old, new)


def _smallest_prime_power(n: int) -> tuple[int, int]:
    """(p, e) with p the smallest prime factor of n >= 2 and p^e || n, by
    trial division."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return p, e


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 2**14, 2**14 + 5, 20000, 1_220_639])
def test_table_entry_is_the_full_power_of_the_smallest_prime(cg229, n_max):
    # each row n's entry is p^e || n for the smallest prime p of n, decoded
    # to that prime and exponent: primes lists every prime up to n_max, and
    # an entry past it is a higher power, its prime's index in _base.  An odd
    # row's entry is at[(n - 3)//2]; an even row's is _two[e - 1] for its
    # lowest set bit 2^e, and at keeps no even row
    table = ls.ClassCountTable(cg229, n_max)
    assert table.at.size == max((n_max - 1) // 2, 0)
    assert np.array_equal(table.primes, primes_up_to(n_max))
    assert table.q.size == table.primes.size + table._base.size
    rows = range(2, n_max + 1)
    if n_max > 20000:
        # 94,389 primes and 256 higher powers; a sixth of the odd rows have e >= 2
        assert table.primes.size == 94_389 and table._base.size == 256
        assert np.mean(table.at >= table.primes.size) > 0.15
        sample = np.random.default_rng(20).integers(2, n_max + 1, size=2000).tolist()
        rows = sample + [2**20, 3**12, 1103**2, n_max]
    for n in rows:
        j = int(table.at[(n - 3) // 2]) if n % 2 else table._two[(n & -n).bit_length() - 2]
        if j < table.primes.size:
            p, e = int(table.primes[j]), 1
        else:
            k = j - table.primes.size
            p, e = int(table.primes[table._base[k]]), int(table._e[k])
            assert e >= 2
        assert (p, e) == _smallest_prime_power(n), n
        assert table.q[j] == p**e


def test_coefficients_pinned_values(psi229):
    n, a = ls.support(psi229, 20)
    b = np.zeros(21)
    b[n] = a
    assert b[1] == 1
    assert b[2] == 0                   # 2 inert
    assert b[3] == -1                  # zeta3 + zeta3^2 = -1, exactly
    assert b[4] == 1                   # (2)O_F, principal
    assert b[9] == 0                   # zeta3^2 + 1 + zeta3 = 0, exactly
    # the dense complex product realises b(9) as rounding noise
    dense = dense_coefficients(ReferenceCountTable(psi229.classgroup, 20), 1, 20)
    assert 0 < abs(dense[9]) < 1e-12
    assert np.max(np.abs(dense - b)) < 1e-12


def test_rankin_coeffs(psi229):
    b2 = rankin_coeffs(psi229, 20)
    assert b2[1] == 1.0
    assert abs(b2[2]) < 1e-24
    assert abs(b2[9]) < 1e-24
    assert np.all(b2 >= -1e-30)


def test_multiplicativity_exact(psi229):
    assert multiplicativity_failures(psi229, 200) == 0


def test_hecke_recursion_exact_all_fields():
    for D in (229, 445, 401):
        cg = ClassGroup(QuadField(D))
        psi = make_class_character(cg, 1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if D % p == 0:
                continue
            assert hecke_recursion_residual(psi, p, r_max=4) == 0, (D, p)


@pytest.mark.parametrize("D, index", [(229, 1), (40, 1), (401, 1), (505, 1)])
def test_euler_factor_matches_coefficients(D, index):
    # partial Euler product approximates partial Dirichlet sum at s = 3;
    # the character of (505, 1) is odd
    psi = make_class_character(ClassGroup(QuadField(D)), index)
    s = 3.0
    b = coefficients(psi, 5000)
    n = np.arange(5001, dtype=np.float64)
    n[0] = 1
    lhs = complex(np.sum(b[1:] / n[1:] ** s))
    prod = complex(np.prod(euler_factor(psi, primes_up_to(5000), s)))
    assert abs(lhs - prod) < 1e-9


def test_rankin_local_factor_matches_prime_power_series(cg229, psi229):
    table = ReferenceCountTable(cg229, 1)
    zeta = np.exp(2j * np.pi * np.arange(3) / 3)
    for p in (2, 3, 5, 7, 11, 229):
        s = 2.0
        brute = sum(
            abs(complex(np.dot(prime_power_vector(table, p, e), zeta))) ** 2 * p ** (-s * e)
            for e in range(0, 80)
        )
        assert abs(brute - rankin_local_factor(psi229, np.array([p]), s)[0]) < 1e-12


def test_rankin_residual_decreases(psi229):
    r1 = rankin_euler_identity_residual(psi229, 2.0, 1000)
    r2 = rankin_euler_identity_residual(psi229, 2.0, 2000)
    r3 = rankin_euler_identity_residual(psi229, 2.0, 8000)
    assert r1 > r2 > r3
    assert r2 < 0.75 * r1  # doubling X reduces the residual


@pytest.mark.parametrize("D", [229, 445])
def test_rankin_residue_matches_paper_norm(D):
    # <Theta, Theta> = (pi vol/8) kappa with vol = (pi/3) D prod_{p|D} (1 + 1/p)
    from maassforge.cli import PAPER_VALUES

    psi = make_class_character(ClassGroup(QuadField(D)), 1)
    index_factor = math.prod(1 + 1 / p for p in primes_up_to(D).tolist() if D % p == 0)
    norm = math.pi**2 / 24 * D * index_factor * rankin_residue(psi)
    assert abs(norm / PAPER_VALUES[D] - 1) < 1e-6


def test_rankin_residue_refuses_where_derivation_fails(psi229):
    psi40 = make_class_character(ClassGroup(QuadField(40)), 1)
    assert psi40.power(2).is_trivial()
    with pytest.raises(ValueError):
        rankin_residue(psi40)
    with pytest.raises(ValueError):
        rankin_euler_identity_residual_corrected(psi40, 2.0, 1000)
    with pytest.raises(ValueError):
        rankin_euler_identity_residual_corrected(psi229, 1.0, 1000)


@pytest.mark.parametrize("D", [229, 136, 401, 3305, 505, 1129, 40009, 257, 445, 4409])
def test_conjugate_characters_have_bitwise_equal_supports(D):
    # psibar has t' = -t mod h, _sin_pi reduces 2t' to exactly the negated
    # angle of 2t, and np.sin is odd: Theta_psibar = Theta_psi bit for bit
    cg = ClassGroup(QuadField(D))
    for i in range(1, cg.h_narrow):
        n, a = ls.support(make_class_character(cg, i), 200_000)
        nc, ac = ls.support(make_class_character(cg, i).power(-1), 200_000)
        assert n.tobytes() == nc.tobytes() and a.tobytes() == ac.tobytes(), (D, i)


def test_l_value_dual_routes_agree(psi229):
    rep = ls.l_value_at_1(psi229.power(2))
    assert rep["cutoff_agreement"] < 1e-9
    assert rep["oracle_agreement"] < 1e-7


def test_l_value_split_point_invariance(psi229):
    psi2 = psi229.power(2)
    v = [ls.l_value_at_1_afe(psi2, cutoff=c) for c in (0.5, 1.0, 2.0, 4.0)]
    assert max(v) - min(v) < 1e-11


@pytest.mark.parametrize("D, index", [(136, 1), (505, 1), (505, 3)])
def test_afe_of_odd_character_is_split_point_invariant(D, index):
    # N(unit) = +1 and psi((sqrt D)) = -1: gamma factor Gamma((s+1)/2)^2
    psi = make_class_character(ClassGroup(QuadField(D)), index)
    assert psi.epsilon == 1
    v1, v2 = ls.l_value_at_1_afe(psi, cutoff=1.0), ls.l_value_at_1_afe(psi, cutoff=2.0)
    assert abs(v1 - v2) < 1e-12


# odd psi (epsilon = 1) at 136, 505 (1, 3) and 3305 (1), where a sign flip of
# the cycles shows; prime and composite D, h from 3 to 12, and D = 40009
REDUCED_CYCLE_CHARACTERS = [
    (229, 1, 0), (136, 1, 1), (505, 1, 1), (505, 2, 0), (505, 3, 1), (3305, 1, 1), (3305, 2, 0),
    (4409, 1, 0), (40009, 1, 0), (40009, 2, 0), (401, 1, 0), (401, 2, 0), (445, 1, 0), (445, 2, 0),
    (1129, 1, 0),
]


@pytest.mark.parametrize("D, index, epsilon", REDUCED_CYCLE_CHARACTERS)
def test_reduced_cycles_match_the_afe(D, index, epsilon):
    psi = make_class_character(ClassGroup(QuadField(D)), index)
    assert psi.epsilon == epsilon
    assert abs(ls.l_value_at_1_direct(psi) - ls.l_value_at_1_afe(psi)) <= 1e-13


@pytest.mark.parametrize("D", [5, 8, 12, 13, 40])
def test_cycle_sums_are_the_constant_term_of_zeta_f(D):
    # summed over the classes, Zagier's constants are the constant term at
    # s = 1 of D^(s/2) zeta_F(s) = D^(s/2) zeta(s) L(s, chi_D), that is
    # sqrt(D) (L'(1) + (gamma + log(D)/2) L(1)).  It is the check that sees
    # gamma, whose terms cancel in L(1, psi).  L(1) and L'(1) come from the
    # Hurwitz zeta's Laurent series at s = 1: -psi_0(x) and the Stieltjes
    # constant gamma_1(x).
    cg = ClassGroup(QuadField(D))
    with mp.workdps(30):
        chi = [(mp.mpf(a) / D, cg.field.chi(a)) for a in range(1, D) if cg.field.chi(a)]
        l1 = -mp.fsum(c * mp.digamma(x) for x, c in chi) / D
        dl1 = -mp.fsum(c * mp.stieltjes(1, x) for x, c in chi) / D - mp.log(D) * l1
        ref = float(mp.sqrt(D) * (dl1 + (mp.euler + mp.log(D) / 2) * l1))
    assert abs(ls._cycle_sums(cg).sum() - ref) <= 1e-13 * ref


@pytest.mark.parametrize("D", [5, 229, 136, 505, 3305, 40009])
def test_cycle_forms_are_reduced_and_stay_in_their_class(D):
    cg = ClassGroup(QuadField(D))
    (a, b, c), classes = ls._cycles(cg)
    a, b, c = (x.astype(np.int64) for x in (a, b, c))
    assert (a > 0).all() and (c > 0).all() and (b > a + c).all()
    assert (b * b - 4 * a * c == D).all()
    assert np.array_equal(cg._classes(a, b % (2 * a)), classes)
    assert set(classes.tolist()) == set(range(cg.h_narrow))


def test_cycles_memory_per_form():
    # the cycles collect (a, b, c) in one int64 array("q"), 24 bytes a form
    # and its headroom, then hold them as float64, 24, and each form's class,
    # 8: 57 bytes a form here.  Every form a tuple of Python ints in a dict
    # took 256
    cg = ClassGroup(QuadField(10000009))
    tracemalloc.start()
    try:
        (a, _, _), _ = ls._cycles(cg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cg.h_narrow == 2 and a.size == 38_810
    assert peak < 64 * a.size


def test_phi_and_li2_match_mpmath():
    # the reference at 40 digits: at mpmath's default 15, psi_0(t) - log t
    # cancels in the reference itself, by 1.7e-11 at t = 10^4
    t = np.concatenate([np.geomspace(1e-6, 1e4, 400), [1.0, 9.999999, 10.0, 10.000001, 40.0]])
    z = np.concatenate([np.linspace(0, 1, 402)[1:-1], [1e-9, 0.5, 0.5 + 1e-12, 1 - 1e-9]])
    with mp.workdps(40):
        phi = [float(mp.digamma(x) - mp.log(x)) for x in t.tolist()]
        li2 = [float(mp.polylog(2, x)) for x in z.tolist()]
    assert np.max(np.abs(ls._phi(t) - phi) / np.abs(phi)) <= 1e-14
    assert np.max(np.abs(ls._li2(z) - li2) / li2) <= 1e-14


def test_l_value_builds_only_the_afe_rows():
    # the reduced cycles read no coefficient: the table keeps the AFE's 265
    # rows at split point 2, where an oracle over a'(n) would grow it
    cg = ClassGroup(QuadField(229))
    ls.l_value_at_1(make_class_character(cg, 1).power(2))
    assert cg.count_table.n_max == 265


def f_reference(x):
    # F(x) = sum phi(n x)/n by one quadrature.  Binet's integral
    # phi(t) = psi_0(t) - log t = int_0^inf e^{-tu} g(u) du with
    # g(u) = 1/u - 1/(1 - e^{-u}), which lies in (-1, -1/2), and
    # sum_n e^{-n x u}/n = -log(1 - e^{-x u}) give, every term of the sum over
    # n having g's sign so that sum and integral commute,
    #     F(x) = -int_0^inf g(u) log(1 - e^{-x u}) du,
    # whose integrand is log(x u)/2 near 0 and g e^{-x u} past 1/x.  At 40
    # digits it agrees with itself at 60 to 1e-38 relative at x = 10^-4, 0.1
    # and 10^4, where summing psi_0 over n took 40 + 4/x digammas
    g = lambda u: 1 / u + 1 / mp.expm1(-u)
    return -mp.quad(lambda u: g(u) * mp.log(-mp.expm1(-x * u)), [0, 1, 1 / x, mp.inf])


def test_f_and_its_reflection_match_mpmath():
    # _f_series over x in [1, 10^4] and, through the reflection, F(1/y) over
    # 1/y in [10^-4, 1]
    y = np.geomspace(1, 1e4, 5)
    with mp.workdps(40):
        f_one = -mp.euler**2 / 2 - mp.pi**2 / 12 - mp.stieltjes(1)
        assert abs(f_reference(mp.mpf(1)) - f_one) < mp.mpf(10) ** -30
        assert abs(ls.F_ONE - f_one) <= 1e-16
        f = [float(f_reference(mp.mpf(v))) for v in y.tolist()]
        f_inv = [float(f_reference(1 / mp.mpf(v))) for v in y.tolist()]
    assert np.max(np.abs(ls._f_series(y) / f - 1)) <= 1e-14
    assert np.max(np.abs(ls._f_reflected(y) / f_inv - 1)) <= 1e-14


def test_l_value_trivial_character_rejected(cg229):
    # the one refusal of the trivial character, which the CLI prints
    for route in (ls.l_value_at_1, ls.l_value_at_1_direct):
        with pytest.raises(InvalidInputError, match=r"^L\(s, trivial\) has a pole at s = 1$"):
            route(make_class_character(cg229, 0))


def test_l_value_445_genus_factorization():
    # L(1, psi^2) over Q(sqrt445) factors as L(1, chi_5) L(1, chi_89)
    cg = ClassGroup(QuadField(445))
    psi2 = make_class_character(cg, 1).power(2)
    lhs = ls.l_value_at_1_afe(psi2)
    # L(1, chi_d) = Res zeta of Q(sqrt d), by the class number formula
    rhs = ClassGroup(QuadField(5)).residue_zeta() * ClassGroup(QuadField(89)).residue_zeta()
    assert abs(lhs - rhs) < 1e-8


def test_dirichlet_l1_real_pinned():
    # L(1, chi_5) = 2 log((1+sqrt5)/2)/sqrt5
    ref = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(ClassGroup(QuadField(5)).residue_zeta() - ref) < 1e-14


# every character of these fields: h = 2, 4, 3, 5, 4, 8, 12, 6, 80, and
# h = 720 for 10^8 + 1, where the reference's h x h gathers allow few rows
@pytest.mark.parametrize(
    "D, n_max",
    [(40, 20000), (136, 20000), (229, 20000), (401, 20000), (445, 20000), (505, 20000),
     (3305, 20000), (14165, 20000), (68905, 20000), (100000001, 1000)],
)
def test_support_is_the_reference_nonzero_set(D, n_max):
    cg = ClassGroup(QuadField(D))
    ref = ReferenceCountTable(cg, n_max)
    zeros = {}  # the zero set depends on the character's order alone
    for index in range(cg.h_narrow):
        order = cg.h_narrow // math.gcd(cg.h_narrow, index)
        if order not in zeros:
            zeros[order] = exact_zeros(ref, index, n_max)
        n, _ = ls.support(make_class_character(cg, index), n_max)
        assert np.array_equal(np.setdiff1d(np.arange(1, n_max + 1), n), zeros[order]), (D, index)


@pytest.mark.parametrize("D", [40, 229, 401, 445, 505, 3305, 14165, 68905])
def test_support_within_rounding_of_the_exact_cosine_sum(D):
    # a'(n) = sum_j c_j cos(2 pi k j/h) over the reference counts, at 40
    # digits on a fixed sample of rows of every character; _local_factor
    # bounds the error by 41.5 eps = 9.3e-15 of |a'(n)|.  Characters of
    # order 1, 2, 3, 4 and 6 have 2 cos(2 pi k j/h) integral and must give
    # every a'(n) exactly.
    n_max = 20000
    cg = ClassGroup(QuadField(D))
    h = cg.h_narrow
    ref = ReferenceCountTable(cg, n_max)
    rows = np.random.default_rng(19).choice(np.arange(1, n_max + 1), 300, replace=False).tolist()
    classes = {r: [(j, int(ref.counts[r, j])) for j in np.flatnonzero(ref.counts[r]).tolist()] for r in rows}
    with mp.workdps(40):
        cosines = [mp.cos(2 * mp.pi * j / h) for j in range(h)]
        for index in range(h):
            b = coefficients(make_class_character(cg, index), n_max)
            for r in rows:
                exact = mp.fsum(c * cosines[index * j % h] for j, c in classes[r])
                assert abs(b[r] - exact) <= 3e-14 * max(1, abs(exact)), (D, index, r)
            if h // math.gcd(h, index) in (1, 2, 3, 4, 6):
                twice = np.rint(2 * np.cos(2 * np.pi * (index * np.arange(h) % h) / h)).astype(np.int64)
                assert np.array_equal(b, ref.counts.astype(np.int64) @ twice / 2), (D, index)


def test_support_memory_per_row():
    # the table keeps 2 bytes a row, the index of the odd row's p^e || n for
    # its smallest prime p, and a character's dense row 2 more, over the odd
    # n <= N/2, while its support is filled, whatever h is: 16.7 bytes a row
    # in all at h = 80, 18.7 with 4 bytes a row for each of the two, and
    # counts per class alone would take 2h = 160 bytes a row
    cg = ClassGroup(QuadField(68905))
    assert cg.h_narrow == 80 and cg.logs.size == 80
    psi = make_class_character(cg, 1)
    tracemalloc.start()
    try:
        ls.ClassCountTable(cg, 400_000).support(psi, 400_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 400_000


def test_afe_weights_memory_per_value():
    # G_s is evaluated SIEVE_CHUNK nodes of its two 40-node rules a block:
    # the output keeps 8 bytes a value, and one block's temporaries stay
    # below 2 MB.  All the nodes at once held 80 nodes a value and their
    # argsort, about 4 kB a value (84 MB here)
    x = np.geomspace(1e-3, 50, 20_000)
    tracemalloc.start()
    try:
        special.incomplete_k_mellin(1.0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.size + 2_000_000


def test_check_automorphy_memory_per_row():
    # Points 0.3-0.8 above x = -d/c, for the two matrices of
    # check-automorphy --samples 2 at D = 229, need N = 1,220,639 rows
    # (the command's isometric circles need 11,100), built inside the
    # check.  Its peak is the end of the
    # support's fill, which holds, in bytes a row: the table's index of
    # p^e || n over the odd rows, 2; the table's 94,645 prime powers q,
    # chi_D(p) and classes of its primes, and the character's local
    # factor at each q, 8 bytes each, 2.5; and the support kept, 16 bytes a
    # kept row, on 1/6 of the rows, 2.7, pass by pass and again as the two
    # arrays they are joined into.  That is 9.9, and the bound leaves 1.1 for
    # a pass's temporaries.  The last pass holds the dense row, 2 bytes a
    # row over the odd n <= N/2, in place of the joined arrays.  Evaluating
    # Theta afterwards holds less: K_0, the phases and the products of one
    # SIEVE_CHUNK block, and each point's two phase tables.  The index and
    # the dense row over every row read 13.7; a dense row over all of
    # n <= N with its nonzero rows cut out at the end, phases over the whole
    # support, and the primes classified in one pass read 18.
    th = ThetaForm(make_class_character(ClassGroup(QuadField(229)), 1))
    offsets = ((0.0, 0.3), (0.05, 0.4), (-0.05, 0.5), (0.1, 0.65), (-0.1, 0.8))
    checks = [(m, [(-m[3] / m[2] + dx, y) for dx, y in offsets]) for m in gamma0_matrices(229, 2)]
    tracemalloc.start()
    try:
        rows = th.check_automorphy(checks).details["truncation"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 1_220_639
    assert peak < 11 * rows


def test_eval_memory_is_one_block():
    # Theta at three points of one height, its support of 295,562 terms
    # built first, holds K_0, the phases and the products of one
    # SIEVE_CHUNK block, and each point's two phase tables of 1,024 and
    # 1,749 entries: about 1.2 MB.  K_0 and a product buffer over the whole
    # support took 5.4 MB
    th = ThetaForm(make_class_character(ClassGroup(QuadField(229)), 1))
    y = 4e-6
    assert th.truncation_index(y) == 1_790_494
    assert ls.support(th.character, 1_790_494)[0].size == 295_562
    tracemalloc.start()
    try:
        th.eval([0.1, -0.2, 0.3], y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
