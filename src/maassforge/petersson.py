"""Closed-form Petersson norm of the theta form.

    <Theta, Theta> = C1 * C2 * C3 * Res_{s=1} zeta_F(s) * L(1, psi * (psibar o sigma))

with, for conductor f = (1) and level N = D:

    C1 = N^2 / (4 pi phi(N))
    C2 = Gamma(1/2)^2                                   (= pi; spectral parameter nu = 0)
    C3 = prod_{p | N} (1 - 1/p)(1 - chi_D(p)/p) = prod_{p | D} (1 - 1/p)

and Res zeta_F = 2 h R / sqrt(D).  For a class character psi the twisted
character psi * (psibar o sigma) equals psi^2, since conjugate ideals lie in
inverse narrow classes.  Norm-induced psi (equivalently psi^2 trivial, i.e.
psi of order <= 2) give a non-cuspidal theta series and are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .heckechar import HeckeCharacter, NormInducedError
from .lseries import l_value_at_1
from .quadfield import prime_factors


@dataclass
class PeterssonReport:
    c1: float
    c2: float
    c3: float
    res_zeta_f: float
    l_value: float
    total: float
    paper_value: float | None = None
    rel_err: float | None = None
    l_diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "l_diagnostics"}
        # L(1)'s checks: split points 1 and 2, and the reduced cycles' value
        for k in ("cutoff_agreement", "direct_oracle", "oracle_agreement"):
            out[k] = self.l_diagnostics[k]
        return out


def constant_c1(N: int) -> float:
    """N^2/(4 pi phi(N)) at the level N = D of a class character: conductor (1)."""
    phi = N
    for p in prime_factors(N):
        phi = phi // p * (p - 1)
    return N * N / (4 * math.pi * phi)


def constant_c2() -> float:
    """Gamma(1/2)^2, which rounds to 1 ulp below math.pi."""
    return math.gamma(0.5) ** 2


def constant_c3(D: int) -> float:
    """For conductor (1): product over p | D of (1 - 1/p)(1 - chi_D(p)/p),
    where chi_D(p) = 0, so each second factor is exactly 1.0; the split-prime
    product over primes dividing N(f) is empty."""
    out = 1.0
    for p in prime_factors(D):
        out *= 1 - 1 / p
    return out


def petersson_norm(character: HeckeCharacter, paper_value: float | None = None) -> PeterssonReport:
    if character.is_norm_induced():
        raise NormInducedError(character)
    cg = character.classgroup
    twisted = character.power(2)  # psi * (psibar o sigma) for class characters
    ldata = l_value_at_1(twisted)
    c1 = constant_c1(cg.field.D)
    c2 = constant_c2()
    c3 = constant_c3(cg.field.D)
    res = cg.residue_zeta()
    total = c1 * c2 * c3 * res * ldata["value"]
    rel = abs(total / paper_value - 1) if paper_value else None
    return PeterssonReport(c1, c2, c3, res, ldata["value"], total, paper_value, rel, ldata)
