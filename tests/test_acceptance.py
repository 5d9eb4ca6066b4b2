"""End-to-end acceptance suite.

Each test pins one externally checkable property of the pipeline at a fixed
tolerance.  These run the full-scale computations (n_max up to 10^5 and
automorphy points with very small imaginary part), so the module is slower
than the unit tests but still completes in a few minutes.
"""

import math
import time

import pytest

from maassforge.classforms import ClassGroup, fundamental_unit
from maassforge.cli import PAPER_VALUES
from maassforge.heckechar import (
    DirichletCharacterModP,
    NormInducedError,
    check_gauss_norm_lemma,
    gauss_sum_rational,
    make_class_character,
)
from maassforge.maassform import ThetaForm, gamma0_matrices
from maassforge.petersson import petersson_norm
from maassforge.quadfield import QuadField, primes_up_to
from oracles import (
    check_gauss_twisting,
    hecke_recursion_residual,
    multiplicativity_failures,
    rankin_euler_identity_residual,
    rankin_euler_identity_residual_corrected,
)


@pytest.fixture(scope="module")
def cg229():
    return ClassGroup(QuadField(229))


@pytest.fixture(scope="module")
def theta229(cg229):
    return ThetaForm(make_class_character(cg229, 1))


def test_a1_reproduce_229(cg229):
    t0 = time.monotonic()
    rep = petersson_norm(make_class_character(cg229, 1), paper_value=PAPER_VALUES[229])
    assert rep.rel_err < 1e-6
    assert time.monotonic() - t0 < 60


def test_a2_reproduce_445():
    t0 = time.monotonic()
    cg = ClassGroup(QuadField(445))
    rep = petersson_norm(make_class_character(cg, 1), paper_value=PAPER_VALUES[445])
    assert rep.rel_err < 1e-6
    assert time.monotonic() - t0 < 60


def test_a3_reproduce_401_product():
    t0 = time.monotonic()
    cg = ClassGroup(QuadField(401))
    psi = make_class_character(cg, 1)
    total = petersson_norm(psi).total * petersson_norm(psi.power(2)).total
    assert abs(total - PAPER_VALUES[401]) / PAPER_VALUES[401] < 1e-6
    assert time.monotonic() - t0 < 120


def test_a4_class_numbers_and_unit():
    assert ClassGroup(QuadField(229)).h_narrow == 3
    assert ClassGroup(QuadField(445)).h_narrow == 4
    assert ClassGroup(QuadField(401)).h_narrow == 5
    u = fundamental_unit(229)
    assert (u.x, u.y) == (15, 1)
    assert u.norm() == -1  # exact: (15^2 - 229)/4


def test_a5_automorphy_suite(theta229):
    t0 = time.monotonic()
    mats = gamma0_matrices(229, count=10)
    assert all(abs(c) <= 687 for _, _, c, _ in mats)
    offsets = [(0.0, 0.3), (0.05, 0.4), (-0.05, 0.5), (0.1, 0.65), (-0.1, 0.8)]
    worst = 0.0
    for m in mats:
        _, _, c, d = m
        points = [(-d / c + dx, y) for dx, y in offsets]
        rep = theta229.check_automorphy([(m, points)])
        worst = max(worst, rep.residual)
    assert worst < 1e-8
    assert time.monotonic() - t0 < 300


def test_a6_eigenvalue_richardson(theta229):
    rep = theta229.check_eigenvalue(0.3, 0.7)
    assert 3.5 <= rep.details["richardson_ratio"] <= 4.5


def test_a7_functional_equation(theta229):
    y0 = 1 / math.sqrt(229)
    ys = [0.85 * y0, 0.95 * y0, y0, 1.05 * y0, 1.15 * y0]
    points = [(x * y0, y) for x, y in zip((0.3, -0.2, 0.0, 0.1, -0.4), ys)]
    rep = theta229.check_functional_equation(points)
    assert rep.details["root_number"] == 1
    assert rep.residual < 1e-8


def test_a8_gauss_sum_suite():
    # |tau(chi)|^2 = p for 20 primitive characters mod odd primes <= 100
    checked = 0
    for p in primes_up_to(100).tolist():
        if p == 2:
            continue
        for k in (1, 2):
            if k >= p - 1:
                continue
            chi = DirichletCharacterModP(p, k)
            tau = gauss_sum_rational(chi, p)
            assert abs(abs(tau) ** 2 - p) < 1e-9
            checked += 1
            if checked >= 20:
                break
        if checked >= 20:
            break
    assert checked >= 20

    F = QuadField(229)
    inert = [p for p in primes_up_to(50).tolist() if p > 2 and F.chi(p) == -1][:3]
    assert len(inert) == 3
    for p in inert:
        assert check_gauss_norm_lemma(F, p, 1) < 1e-9

    pairs = [(3, 5), (3, 7), (5, 7), (5, 11), (7, 11)]
    for p, q in pairs:
        assert check_gauss_twisting(p, 1, q, 1) < 1e-9


def test_a9_rankin_euler_identity(cg229):
    psi = make_class_character(cg229, 1)
    # residual must shrink steadily as the prime cutoff doubles
    r = [rankin_euler_identity_residual(psi, 2.0, x) for x in (12500, 25000, 50000, 100000)]
    assert r[0] > r[1] > r[2] > r[3]
    # The raw residual at X = 10^5 (~3.05e-6) is the sum tail ~ kappa/X minus
    # the product tail ~ P E_1(ln X), so no correct program brings it under
    # 1e-6.  The tail-corrected residual adds both tails back, the sum's from
    # the closed-form residue kappa, and checks kappa and the Euler factors
    # against the coefficient table at the stated tolerance (~1.4e-8).
    assert rankin_euler_identity_residual_corrected(psi, 2.0, 100000) < 1e-6


def test_a10_norm_induced_negative_control():
    cg = ClassGroup(QuadField(40))
    psi = make_class_character(cg, 1)
    assert not psi.is_trivial() and psi.power(2).is_trivial()  # of order 2
    assert psi.is_norm_induced()
    with pytest.raises(NormInducedError):
        petersson_norm(psi)

    from maassforge.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["petersson", "--disc", "40", "--index", "1"])
    assert exc.value.code == 2


def test_a11_exact_multiplicativity_and_recursion(cg229):
    psi = make_class_character(cg229, 1)
    assert multiplicativity_failures(psi, 1000) == 0
    for p in primes_up_to(50).tolist():
        assert hecke_recursion_residual(psi, p, r_max=4) == 0, p
