import math
import random

import mpmath as mp
import numpy as np
import pytest

from maassforge.classforms import ClassGroup, _rho, fundamental_unit, reduce_forms
from maassforge.quadfield import QuadField, is_fundamental_discriminant
from oracles import IndefiniteForm, dlog, ideal_conj, ideal_to_form, principal_ideal, scalar_cycles


def _forms(A, B, C):
    return [IndefiniteForm(*f) for f in zip(A.tolist(), B.tolist(), C.tolist())]


def test_reduction_produces_reduced_forms():
    random.seed(0)
    for D in (229, 445, 401, 40):
        fs = []
        for _ in range(100):
            B = random.choice(range(D % 2, 50, 2))
            A = random.choice([a for a in range(1, 50)])
            if (B * B - D) % (4 * A) == 0:
                fs.append(IndefiniteForm(A, B, (B * B - D) // (4 * A)))
        A, B, C = (np.array([getattr(f, x) for f in fs], dtype=np.int64) for x in "ABC")
        got = _forms(*reduce_forms(A, B, C, D))
        assert got == [f.reduce() for f in fs]
        assert all(g.is_reduced() and g.disc() == D for g in got)


def test_rho_preserves_discriminant_and_cycles():
    cg = ClassGroup(QuadField(229))
    forms = _forms(*cg.forms)
    for f in forms:
        assert f.is_reduced() and f.disc() == 229
    stepped = _forms(*_rho(*cg.forms, 229, math.isqrt(229)))
    assert stepped == [f.rho() for f in forms]
    label = dict(zip(forms, cg.cycle.tolist()))
    assert [label[g] for g in stepped] == cg.cycle.tolist()


def test_forms_and_numbering_match_scalar_cycles():
    # every fundamental D < 3000 (units of norm +1 and -1, non-cyclic groups
    # such as D = 1105), and D = 68905, where h = 80
    for D in [d for d in range(5, 3000) if is_fundamental_discriminant(d)] + [68905]:
        cg = ClassGroup(QuadField(D))
        got = dict(zip(_forms(*cg.forms), cg.cycle.tolist()))
        want = {f: i for i, cyc in enumerate(scalar_cycles(D)) for f in cyc}
        assert got == want, D
        assert list(got) == sorted(want, key=lambda f: (f.A, f.B)), D


def test_class_numbers():
    for D, h_narrow, h_wide in [(229, 3, 3), (445, 4, 4), (401, 5, 5), (40, 2, 2), (5, 1, 1), (12, 2, 1)]:
        cg = ClassGroup(QuadField(D))
        assert cg.h_narrow == h_narrow, D
        assert cg.h_wide == h_wide, D


def test_fundamental_units():
    cases = {
        229: (15, 1, -1),
        445: (21, 1, -1),
        401: (40, 2, -1),
        5: (1, 1, -1),
        40: (6, 1, -1),   # (6 + sqrt40)/2 = 3 + sqrt10
        12: (4, 1, 1),    # 2 + sqrt3
    }
    for D, (x, y, norm) in cases.items():
        u = fundamental_unit(D)
        assert (u.x, u.y) == (x, y), D
        assert u.norm() == norm, D


def test_unit_is_actually_a_unit():
    for D in (229, 445, 401, 40, 13, 17, 21, 24, 28, 29, 33):
        u = fundamental_unit(D)
        assert u.norm() in (1, -1)
        # (x + y sqrt D)/2 integral: x = y*D mod 2
        assert (u.x - u.y * D) % 2 == 0


def test_regulator_value():
    u = fundamental_unit(229)
    ref = float(mp.log((15 + mp.sqrt(229)) / 2))
    assert abs(u.regulator() - ref) < 1e-14


def _sqrt_cf_unit(N: int) -> tuple[int, int]:
    """Least x, y > 0 with x^2 - N y^2 = +-1, from the continued fraction of
    sqrt(N)."""
    a0 = math.isqrt(N)
    p_prev, q_prev, p, q = 1, 0, a0, 1
    P, Q = a0, N - a0 * a0
    while Q != 1:
        a = (a0 + P) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (N - P * P) // Q
    return p, q


def _unit_by_cube_root(D: int) -> tuple[int, int, float]:
    """(x, y, regulator) of the fundamental unit the independent way: the unit
    of Z[sqrt(D)] (of Z[sqrt(D/4)] when 4 | D), then, for D = 1 mod 4, a search
    for a cube root in the full ring, where the unit group has index 1 or 3."""
    if D % 4 == 0:
        x, y = _sqrt_cf_unit(D // 4)
        x, y = 2 * x, y
    else:
        x, y = _sqrt_cf_unit(D)
        with mp.workdps(max(40, len(str(x)) + 25)):
            sD = mp.sqrt(D)
            eps = mp.cbrt(x + y * sD)
            for n0 in (1, -1):
                u = int(mp.nint(eps + n0 / eps))
                v = int(mp.nint((2 * eps - u) / sD))
                if u <= 0 or v <= 0 or u * u - D * v * v != 4 * n0:
                    continue
                # ((u + v sqrt(D))/2)^3 = x + y sqrt(D), exactly
                if u * (u * u + 3 * D * v * v) == 8 * x and v * (3 * u * u + D * v * v) == 8 * y:
                    x, y = u, v
                    break
            else:
                x, y = 2 * x, 2 * y
    with mp.workdps(max(30, len(str(x)) + 20)):
        reg = float(mp.log((x + y * mp.sqrt(D)) / 2))
    return x, y, reg


def test_fundamental_unit_matches_cube_root_oracle():
    for D in range(5, 5000):
        if not is_fundamental_discriminant(D):
            continue
        u = fundamental_unit(D)
        x, y, reg = _unit_by_cube_root(D)
        assert (u.x, u.y) == (x, y), D
        assert u.regulator() == reg, D


def test_residue_zeta_f():
    cg = ClassGroup(QuadField(229))
    ref = 2 * 3 * math.log((15 + math.sqrt(229)) / 2) / math.sqrt(229)
    assert abs(cg.residue_zeta() - ref) < 1e-13


def test_ideal_form_roundtrip_class():
    for D in (229, 445, 401, 40):
        F = QuadField(D)
        cg = ClassGroup(F)
        label = {f: i for i, cyc in enumerate(scalar_cycles(D)) for f in cyc}
        assert [cg.class_index(J) for J in cg.class_ideals] == list(range(cg.h_narrow))
        for I in F.enumerate_ideals(150):
            f = ideal_to_form(F, I)
            assert f.disc() == D
            i = cg.class_index(I)
            assert label[f.reduce()] == i
            assert cg.class_index(cg.class_ideals[i]) == i


def test_class_map_is_homomorphism():
    random.seed(5)
    for D in (229, 445, 401, 40):
        F = QuadField(D)
        cg = ClassGroup(F)
        ids = F.enumerate_ideals(300)
        for _ in range(150):
            I, J = random.choice(ids), random.choice(ids)
            assert (dlog(cg, I * J) - dlog(cg, I) - dlog(cg, J)) % cg.h_narrow == 0


def test_totally_positive_principal_is_trivial():
    random.seed(6)
    for D in (229, 445, 401, 40):
        F = QuadField(D)
        cg = ClassGroup(F)
        w = (F.s + math.sqrt(D)) / 2
        for _ in range(120):
            x, y = random.randint(-25, 25), random.randint(-25, 25)
            if (x, y) == (0, 0) or F.elt_norm(x, y) <= 0:
                continue
            if x + y * w < 0:
                x, y = -x, -y
            assert cg.class_index(principal_ideal(F, x, y)) == 0


def test_conjugate_class_is_inverse():
    for D in (229, 445, 401):
        F = QuadField(D)
        cg = ClassGroup(F)
        for I in F.enumerate_ideals(120):
            assert (dlog(cg, I) + dlog(cg, ideal_conj(I))) % cg.h_narrow == 0


def test_narrow_vs_wide_negative_norm_generator():
    # D=12: unit norm +1, so a generator of negative norm lands in the
    # nontrivial narrow class
    F = QuadField(12)
    cg = ClassGroup(F)
    assert cg.unit_norm == 1
    assert cg.class_index(principal_ideal(F, 1, 1)) != 0  # N(1 + sqrt3) = -2


def test_dlog_of_a_cyclic_group_of_order_80():
    # D = 68905: the powers of the generator, multiplied unreduced, grew in
    # norm until reduce() hit its step cap, and the group read as not cyclic
    cg = ClassGroup(QuadField(68905))
    assert cg.h_narrow == 80
    assert sorted(cg.logs.tolist()) == list(range(80))


@pytest.mark.parametrize("D", [229, 3305, 68905])
def test_dlog_row_of_the_group_law_against_repeated_multiplication(D):
    # h = 3, 12, 80.  The reference walks g's powers one ideal at a time:
    # from the unit ideal, multiply by g's representative and classify, for
    # each candidate g in turn, and keeps the first g that reaches every
    # class; multiplying the representative of each class reached, not the
    # power itself, keeps the norms bounded
    cg = ClassGroup(QuadField(D))
    F, h, reps = cg.field, cg.h_narrow, cg.class_ideals
    for g in range(h):
        I, logs = F.unit_ideal(), {}
        for e in range(h):
            c = cg.class_index(I)
            if c in logs:
                break
            logs[c] = e
            I = F.ideal_mul(reps[c], reps[g])
        if len(logs) == h:
            break
    assert len(logs) == h
    assert cg.logs.dtype == np.int64
    assert cg.logs.tolist() == [logs[c] for c in range(h)]
    assert all(type(dlog(cg, reps[c])) is int and dlog(cg, reps[c]) == logs[c] for c in range(h))


def test_class_index_beyond_int64():
    F = QuadField(229)
    cg = ClassGroup(F)
    # 10^10 + omega is totally positive, of norm about 10^20
    assert principal_ideal(F, 10**10, 1).a > 2**63
    for x, y in [(10**10, 1), (2**20, 3), (3**25, 7), (10**9, 2**10 + 3)]:
        I = principal_ideal(F, x, y)
        assert I.a >= 2**31 and cg.class_index(I) == 0
    # powers of a prime ideal outside the principal class, 2^31 <= a < 2^63,
    # against the scalar route
    for D in (229, 445, 12):
        F = QuadField(D)
        cg = ClassGroup(F)
        label = {f: i for i, cyc in enumerate(scalar_cycles(D)) for f in cyc}
        # a split prime, so that its powers stay primitive
        P = next(I for I in F.enumerate_ideals(50) if I != ideal_conj(I) and cg.class_index(I) != 0)
        J, checked = P, 0
        while J.a < 2**63:
            if J.a >= 2**31:
                assert cg.class_index(J) == label[ideal_to_form(F, J).reduce()], (D, J)
                checked += 1
            J = J * P
        assert checked >= 5, D
