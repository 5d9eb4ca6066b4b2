import math

import pytest

from maassforge.classforms import ClassGroup
from maassforge.heckechar import NormInducedError, make_class_character
from maassforge.petersson import (
    constant_c1,
    constant_c2,
    constant_c3,
    petersson_norm,
)
from maassforge.quadfield import QuadField, is_fundamental_discriminant, prime_factors


def test_constants_229():
    assert abs(constant_c1(229) - 229**2 / (4 * math.pi * 228)) < 1e-12
    assert abs(constant_c2() - math.pi) < 1e-12
    assert abs(constant_c3(229) - 228 / 229) < 1e-15


def test_constants_445():
    assert abs(constant_c3(445) - (4 / 5) * (88 / 89)) < 1e-15
    assert abs(constant_c1(445) - 445**2 / (4 * math.pi * 352)) < 1e-12


def test_c3_bitwise_equal_to_the_product_with_chi_d():
    # chi_D(p) = 0 at p | D, so the factors (1 - chi_D(p)/p) are exactly 1.0
    for D in [d for d in range(5, 3000) if is_fundamental_discriminant(d)] + [95304805]:
        F = QuadField(D)
        ref = 1.0
        for p in prime_factors(D):
            ref *= (1 - 1 / p) * (1 - F.chi(p) / p)
        assert constant_c3(D) == ref, D


def test_residue():
    cg = ClassGroup(QuadField(229))
    ref = 6 * math.log((15 + math.sqrt(229)) / 2) / math.sqrt(229)
    assert abs(cg.residue_zeta() - ref) < 1e-13


def test_norm_refuses_norm_induced():
    cg = ClassGroup(QuadField(40))
    with pytest.raises(NormInducedError):
        petersson_norm(make_class_character(cg, 1))
    cg229 = ClassGroup(QuadField(229))
    with pytest.raises(NormInducedError):
        petersson_norm(make_class_character(cg229, 0))


def test_petersson_229_matches_paper():
    cg = ClassGroup(QuadField(229))
    rep = petersson_norm(make_class_character(cg, 1), paper_value=38.3345331336184)
    assert rep.rel_err < 1e-6
    # closed form 6 R_F R_K with the cubic regulator back-solved consistently
    assert abs(rep.total - 38.3345331336184) < 1e-6


def test_petersson_report_json_fields():
    cg = ClassGroup(QuadField(229))
    rep = petersson_norm(make_class_character(cg, 1))
    d = rep.to_json_dict()
    assert set(d) == {"c1", "c2", "c3", "res_zeta_f", "l_value", "total", "paper_value", "rel_err",
                      "cutoff_agreement", "direct_oracle", "oracle_agreement"}
    assert d["cutoff_agreement"] < 1e-9 and d["oracle_agreement"] < 1e-6
    assert d["oracle_agreement"] == abs(d["l_value"] - d["direct_oracle"])


def test_petersson_conjugate_character_same_norm():
    # psi and psibar give complex-conjugate forms with equal Petersson norm
    cg = ClassGroup(QuadField(229))
    r1 = petersson_norm(make_class_character(cg, 1))
    r2 = petersson_norm(make_class_character(cg, 2))
    assert abs(r1.total - r2.total) < 1e-10
