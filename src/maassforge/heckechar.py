"""Class-group Hecke characters of real quadratic fields, and Gauss sums.

A class character sends an ideal in the narrow class B to
exp(2*pi*i * t[B] / h).  A character keeps its index and t, an int64 array
by class, t = index * log mod h for the discrete log of each class: it is
the one owner of its values on classes.  The sign exponent epsilon is read
off the index, and lseries realizes the coefficients a'(n) in float64 from
t at the classes of primes.

Gauss sums follow the convention tau(psi) = (psi_inf(alpha)/psi(A)) *
sum over x in A mod fA of psi_f(x) e^(2*pi*i*Tr(x/alpha)) with the
different generated by sqrt(D).  For a modulus f = m*O_F we take A = (1)
and alpha = m*sqrt(D), which turns the trace into Tr(x/alpha) = v/m for
x = u + v*omega.
"""

from __future__ import annotations

import cmath
import math

from . import InvalidInputError
from .classforms import ClassGroup
from .quadfield import QuadField, prime_factors


def root_of_unity(exponent: float) -> complex:
    """e^(2*pi*i*exponent)."""
    return cmath.exp(2j * math.pi * float(exponent))


class NormInducedError(InvalidInputError):
    """The character factors through the norm; theta is not a cusp form."""

    def __init__(self, character: "HeckeCharacter"):
        super().__init__(f"character index {character.index} of D={character.field.D} is "
                         "norm-induced; its theta series is Eisenstein, not cuspidal")


class HeckeCharacter:
    """Character of the narrow class group, with trivial conductor (1).

    Its infinity type is fixed by psi: on principal ideals a class character
    is psi((alpha)) = sgn(N(alpha))^epsilon, and (sqrt(D)) has negative norm,
    so the sign exponent epsilon is 1 exactly when psi((sqrt(D))) = -1.  Odd
    characters exist only when the fundamental unit has norm +1; otherwise
    (sqrt(D)) is narrowly principal.  A class character has finite order, so
    its spectral parameter is 0."""

    def __init__(self, classgroup: ClassGroup, index: int):
        self.classgroup = classgroup
        self.field = classgroup.field
        self.h = classgroup.h_narrow
        self.index = index % self.h
        # psi(B) = e^(2 pi i t[B]/h); a group that is not cyclic raises here
        self.t = self.index * classgroup.logs % self.h

    def __repr__(self) -> str:
        return f"HeckeCharacter(D={self.field.D}, index={self.index}/{self.h})"

    @property
    def epsilon(self) -> int:
        """Sign exponent: 1 if psi((sqrt(D))) = -1, else 0, read off the index.

        When N(eps0) = -1, +-eps0 sqrt(D) is a totally positive generator of
        (sqrt(D)), so its narrow class is trivial and epsilon = 0.  When
        N(eps0) = +1, every generator +-eps0^k sqrt(D) of (sqrt(D)) has
        negative norm, so its class is the element of order 2 in the kernel
        of Cl+ -> Cl, which has order h_narrow/h_wide = 2.  In the cyclic
        group of even order h = h_narrow that element is g^(h/2), so
        psi((sqrt(D))) = e^(pi i index) = (-1)^index."""
        return self.index % 2 if self.classgroup.unit_norm == 1 else 0

    def power(self, e: int) -> "HeckeCharacter":
        return HeckeCharacter(self.classgroup, self.index * e)

    def is_trivial(self) -> bool:
        return self.index == 0

    def is_norm_induced(self) -> bool:
        """True when psi factors through the norm, i.e. psi is Galois-invariant.

        I sigma(I) = (N(I)) is principal with the totally positive generator
        N(I), so sigma(I) lies in the inverse narrow class of I: sigma inverts
        the narrow class group, and psi o sigma = conj(psi).  Hence psi is
        Galois-invariant exactly when psi = conj(psi), that is psi^2 = 1."""
        return self.power(2).is_trivial()

    def root_number(self) -> complex:
        """T(psi) = i^(-2*eps) * tau(psi)/sqrt(N f); for conductor (1) this is (-1)^eps."""
        return -1.0 + 0.0j if self.epsilon else 1.0 + 0.0j


def make_class_character(classgroup: ClassGroup, index: int) -> HeckeCharacter:
    return HeckeCharacter(classgroup, index)


# -- rational Dirichlet characters and Gauss sums -----------------------


class DirichletCharacterModP:
    """Character mod an odd prime p: chi(g^j) = e^(2*pi*i*j*k/(p-1)) for a
    fixed primitive root g.  Every nontrivial such character is primitive."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k % (p - 1)
        # the smallest primitive root: g^((p-1)/q) != 1 for every prime q | p - 1
        qs = prime_factors(p - 1)
        self.g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
        self._dlog = [0] * p
        x = 1
        for j in range(p - 1):
            self._dlog[x] = j
            x = x * self.g % p
        self._vals = [root_of_unity(j * self.k / (p - 1)) for j in range(p - 1)]

    def __call__(self, n: int) -> complex:
        n %= self.p
        if n == 0:
            return 0.0j
        return self._vals[self._dlog[n]]


def gauss_sum_rational(chi, m: int) -> complex:
    """tau(chi) = sum_{x mod m} chi(x) e^(2*pi*i*x/m)."""
    return sum(chi(x) * root_of_unity(x / m) for x in range(m))


def check_gauss_norm_lemma(field: QuadField, p: int, k: int = 1) -> float:
    """Residual of tau_F(sigma o N) = sigma(D) * chi_D(p) * tau(sigma)^2
    for an inert prime p not dividing D and a primitive sigma mod p
    (k != 0 mod p - 1); a prime that is not inert is invalid input.

    tau_F is the Gauss sum of the finite character (u, v) ->
    sigma(N(u + v*omega)) on O_F/(p), modulus f = p*O_F.  The sign exponent
    of its infinity type is the parity of sigma, chi(-1) = (-1)^k since
    -1 = g^((p-1)/2), and the choice alpha = p*sqrt(D) contributes
    psi_inf(alpha) = (-1)^k because the two real embeddings of sqrt(D) have
    opposite signs."""
    if field.chi(p) != -1:
        raise InvalidInputError(f"p={p} is not inert in Q(sqrt{field.D})")
    sigma = DirichletCharacterModP(p, k)
    if sigma.k == 0:
        raise ValueError("sigma must be primitive (k != 0)")
    e = [root_of_unity(v / p) for v in range(p)]
    lhs = 0.0j
    for u in range(p):
        for v in range(p):
            c = sigma(field.elt_norm(u, v) % p)
            if c != 0:
                lhs += c * e[v]
    if sigma.k % 2 == 1:
        lhs = -lhs
    rhs = sigma(field.D) * field.chi(p) * gauss_sum_rational(sigma, p) ** 2
    return abs(lhs - rhs)
