from fractions import Fraction

import numpy as np
import pytest
from sympy import primitive_root

import oracles
from maassforge.classforms import ClassGroup
from maassforge.heckechar import (
    DirichletCharacterModP,
    check_gauss_norm_lemma,
    gauss_sum_rational,
    make_class_character,
)
from maassforge.quadfield import InvalidInputError, QuadField, is_fundamental_discriminant, primes_up_to


def test_character_values_are_exact_roots_of_unity():
    cg = ClassGroup(QuadField(229))
    psi = make_class_character(cg, 1)
    for I in cg.field.enumerate_ideals(50):
        e = oracles.exponent(psi, I)
        assert isinstance(e, Fraction)
        assert (e * 3) % 1 == 0  # h = 3: all values are cube roots of unity


def test_character_is_multiplicative():
    cg = ClassGroup(QuadField(401))
    psi = make_class_character(cg, 2)
    ids = cg.field.enumerate_ideals(60)
    for I in ids[:25]:
        for J in ids[:25]:
            e_ij, e_i, e_j = (oracles.exponent(psi, K) for K in (I * J, I, J))
            assert (e_ij - e_i - e_j) % 1 == 0


@pytest.mark.parametrize("D", [229, 401, 445, 505, 3305, 136])
def test_character_keeps_its_exponent_on_every_class(D):
    # psi(B) = e^(2 pi i t[B]/h) with t = index * log(B) mod h, an int64
    # array by class, and the exact exponent of each class's ideal
    cg = ClassGroup(QuadField(D))
    h = cg.h_narrow
    for index in range(h):
        psi = make_class_character(cg, index)
        assert psi.t.dtype == np.int64
        assert psi.t.tolist() == (index * cg.logs % h).tolist()
        exact = [oracles.exponent(psi, I) % 1 for I in cg.class_ideals]
        assert [Fraction(t, h) for t in psi.t.tolist()] == exact


def test_orders_and_powers():
    cg = ClassGroup(QuadField(445))
    psi = make_class_character(cg, 1)
    # psi has order 4 and psi^2 order 2
    assert [psi.power(k).is_trivial() for k in range(1, 5)] == [False, False, False, True]
    assert psi.power(-1).index == 3


def test_norm_induced_detection():
    # order <= 2 class characters are Galois-invariant, hence norm-induced
    cases = {229: [True, False, False], 40: [True, True], 445: [True, False, True, False]}
    for D, expected in cases.items():
        cg = ClassGroup(QuadField(D))
        got = [make_class_character(cg, i).is_norm_induced() for i in range(cg.h_narrow)]
        assert got == expected, D
    # psi^2 = 1 against psi(I) = psi(sigma I) class by class, for every
    # character of every field with a cyclic narrow class group and D < 2000
    checked = 0
    for D in filter(is_fundamental_discriminant, range(5, 2000)):
        cg = ClassGroup(QuadField(D))
        try:
            cg.logs
        except InvalidInputError:
            continue
        for i in range(cg.h_narrow):
            psi = make_class_character(cg, i)
            assert psi.is_norm_induced() == oracles.is_norm_induced(psi), (D, i)
            checked += 1
    assert checked == 1062


def test_epsilon_read_off_the_index_matches_the_ideal_route():
    # every character of every field with a cyclic narrow class group and
    # D < 3000: psi((sqrt D)) = (-1)^index when N(unit) = +1, else 1
    checked = odd = 0
    for D in filter(is_fundamental_discriminant, range(5, 3000)):
        cg = ClassGroup(QuadField(D))
        try:
            cg.logs
        except InvalidInputError:
            continue
        for i in range(cg.h_narrow):
            psi = make_class_character(cg, i)
            assert psi.epsilon == oracles.epsilon_by_ideal(psi), (D, i)
            checked += 1
            odd += psi.epsilon
    assert (checked, odd) == (1568, 497)


def test_primitive_root_is_sympys_smallest():
    for p in primes_up_to(1000)[1:].tolist():
        assert DirichletCharacterModP(p, 1).g == primitive_root(p)


def test_rational_gauss_sums_primitive_magnitude():
    count = 0
    for p in (5, 7, 11, 13, 17):
        for k in range(1, p - 1):
            chi = DirichletCharacterModP(p, k)
            tau = gauss_sum_rational(chi, p)
            assert abs(abs(tau) ** 2 - p) < 1e-9
            count += 1
            if count >= 25:
                return


def test_trivial_character_gauss_sum():
    # the principal character mod p has tau = sum of all p-th roots except 1 = -1
    chi = DirichletCharacterModP(7, 0)
    tau = gauss_sum_rational(chi, 7)
    assert abs(tau - (-1)) < 1e-12


def test_gauss_norm_lemma_inert_primes():
    F = QuadField(229)
    inert = [p for p in primes_up_to(50).tolist() if p > 2 and F.chi(p) == -1]
    assert len(inert) >= 3
    for p in inert[:3]:
        for k in (1, 2):
            assert check_gauss_norm_lemma(F, p, k) < 1e-9
    assert inert[2] == 23 and check_gauss_norm_lemma(F, 23, 3) < 1e-9  # an odd sigma of order 22


def test_gauss_norm_lemma_rejects_split():
    # the refusal gauss-check prints, and a trivial sigma (k = 0 mod p - 1)
    F = QuadField(229)
    with pytest.raises(InvalidInputError, match=r"^p=3 is not inert in Q\(sqrt229\)$"):
        check_gauss_norm_lemma(F, 3, 1)
    with pytest.raises(ValueError, match="primitive"):
        check_gauss_norm_lemma(F, 7, 6)


def test_gauss_twisting():
    pairs = [(5, 1, 7, 2), (5, 2, 11, 3), (7, 1, 13, 5), (3, 1, 5, 1), (11, 4, 13, 6)]
    for p, kp, q, kq in pairs:
        assert oracles.check_gauss_twisting(p, kp, q, kq) < 1e-9


def test_root_number_trivial_conductor():
    cg = ClassGroup(QuadField(229))
    psi = make_class_character(cg, 1)
    assert psi.root_number() == 1.0 + 0.0j
