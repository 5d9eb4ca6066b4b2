"""Indefinite binary quadratic forms, narrow class groups, fundamental units.

Forms (A, B, C) of discriminant B^2 - 4AC = D > 0 represent narrow ideal
classes: the classes are the rho-reduction cycles of reduced forms, and the
classes of many prime ideals are found at once by reducing their forms as
int64 arrays.  The
fundamental unit comes from one period of the continued fraction of the
ring generator (s + sqrt(D))/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from math import isqrt

import numpy as np

from .quadfield import QfIdeal, QuadField


@dataclass(frozen=True)
class IndefiniteForm:
    """Binary quadratic form A*x^2 + B*x*y + C*y^2 with B^2 - 4AC > 0."""

    A: int
    B: int
    C: int

    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def is_reduced(self) -> bool:
        """0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B, exactly."""
        D = self.disc()
        B, t = self.B, 2 * abs(self.A)
        if B <= 0 or B * B >= D:
            return False
        # t > sqrt(D) - B  <=>  (t + B)^2 > D
        if (t + B) ** 2 <= D:
            return False
        # t < sqrt(D) + B  <=>  t <= B or (t - B)^2 < D
        return t <= self.B or (t - B) ** 2 < D

    def rho(self) -> "IndefiniteForm":
        """One reduction step: (A,B,C) -> (C,B',C') with B' = -B mod 2|C|
        placed in the window (sqrt(D) - 2|C|, sqrt(D))."""
        D = self.disc()
        r = isqrt(D)
        ca = abs(self.C)
        c2 = 2 * ca
        m = (-self.B) % c2
        if ca > r:
            # not yet in the reduced range: take the minimal residue -|C| < B' <= |C|
            Bp = m if m <= ca else m - c2
        else:
            Bp = m + c2 * ((r - m) // c2)
        Cp = (Bp * Bp - D) // (4 * self.C)
        return IndefiniteForm(self.C, Bp, Cp)

    def reduce(self) -> "IndefiniteForm":
        f = self
        for _ in range(10 * len(str(self.disc())) + 64):
            if f.is_reduced():
                return f
            f = f.rho()
        raise ArithmeticError(f"reduction of {self} did not terminate")

    def cycle(self) -> list["IndefiniteForm"]:
        """The rho-cycle through the reduction of this form."""
        f0 = self.reduce()
        out = [f0]
        f = f0.rho()
        while f != f0:
            out.append(f)
            f = f.rho()
        return out


@dataclass(frozen=True)
class FundamentalUnit:
    """The fundamental unit (x + y*sqrt(D))/2 > 1 of the ring of integers."""

    D: int
    x: int
    y: int

    def norm(self) -> int:
        return (self.x * self.x - self.D * self.y * self.y) // 4

    def regulator(self) -> float:
        """ln((x + y sqrt(D))/2), in 40-digit decimal: x + y sqrt(D) adds two
        positive terms, so no digits cancel, whatever the size of x."""
        with localcontext() as ctx:
            ctx.prec = 40
            return float(((self.x + self.y * Decimal(self.D).sqrt()) / 2).ln())


def fundamental_unit(D: int) -> FundamentalUnit:
    """Fundamental unit of the ring of integers of discriminant D.

    omega = (s + sqrt(D))/2 with s = D mod 2 generates the ring; its complete
    quotients (P + sqrt(D))/Q run through one period of the continued
    fraction until Q = 2 returns, and the convergent p/q before that point
    gives the unit p - q conj(omega) = (2p - qs + q sqrt(D))/2."""
    s = D % 2
    r = isqrt(D)
    p, p1, q, q1 = 1, 0, 0, 1  # convergents p_k/q_k and p_(k-1)/q_(k-1), k = -1
    P, Q = s, 2
    while True:
        a = (P + r) // Q
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 2:
            return FundamentalUnit(D, 2 * p - q * s, q)


class ClassGroup:
    """Narrow class group of a real quadratic field via reduced form cycles."""

    def __init__(self, field: QuadField):
        self.field = field
        D = field.D
        self.unit = fundamental_unit(D)
        self.unit_norm = self.unit.norm()
        self.regulator = self.unit.regulator()
        self.cycles = self._all_cycles()
        self.h_narrow = len(self.cycles)
        self.h_wide = self.h_narrow if self.unit_norm == -1 else self.h_narrow // 2
        # relabel so that the identity class is index 0
        principal = self._principal_form().reduce()
        ident = next(i for i, cyc in enumerate(self.cycles) if principal in cyc)
        self.cycles[0], self.cycles[ident] = self.cycles[ident], self.cycles[0]
        self._form_to_cycle = {f: i for i, cyc in enumerate(self.cycles) for f in cyc}
        # the coefficient table of the field, made and grown by lseries.get_table
        self.count_table = None

    # -- construction ---------------------------------------------------

    def _principal_form(self) -> IndefiniteForm:
        D = self.field.D
        r = isqrt(D)
        b = r if (r - D) % 2 == 0 else r - 1
        return IndefiniteForm(1, b, (b * b - D) // 4)

    def _all_cycles(self) -> list[list[IndefiniteForm]]:
        D = self.field.D
        r = isqrt(D)
        seen: set[IndefiniteForm] = set()
        cycles: list[list[IndefiniteForm]] = []
        for B in range(1, r + 1):
            if (B - D) % 2 != 0:
                continue
            M = (B * B - D) // 4  # = A*C < 0
            for A in range(1, (r + B) // 2 + 1):
                if M % A != 0:
                    continue
                C = M // A
                for f in (IndefiniteForm(A, B, C), IndefiniteForm(-A, B, -C)):
                    if f in seen or not f.is_reduced():
                        continue
                    cyc = f.cycle()
                    seen.update(cyc)
                    cycles.append(cyc)
        cycles.sort(key=lambda cyc: min((f.A, f.B, f.C) for f in cyc))
        return cycles

    @cached_property
    def _dlog(self) -> dict[int, int]:
        """Discrete logs of all classes w.r.t. a generator, built on first use:
        only class characters need them, and only a cyclic group has them."""
        h = self.h_narrow
        reps = [self._cycle_rep_ideal(i) for i in range(h)]
        for g in range(h):
            I = self.field.unit_ideal()
            table: dict[int, int] = {}
            for e in range(h):
                c = self.class_index(I)
                if c in table:
                    break
                table[c] = e
                # the class's reduced representative, not I, keeps the norm
                # bounded: I's grows like N(g)^e, past what reduce() allows
                I = self.field.ideal_mul(reps[c], reps[g])
            if len(table) == h:
                return table
        raise ArithmeticError("narrow class group is not cyclic; unsupported")

    @cached_property
    def _form_keys(self):
        """Ascending int64 keys (A + r + 1)(r + 1) + B of the forms of all
        cycles, r = isqrt(D), and the cycle of each: a reduced form has
        0 < B <= r and |A| <= r, so the key is one-to-one."""
        r = isqrt(self.field.D)
        pairs = sorted(
            ((f.A + r + 1) * (r + 1) + f.B, i) for i, cyc in enumerate(self.cycles) for f in cyc
        )
        keys, cycle = np.array(pairs, dtype=np.int64).T
        return keys.copy(), cycle.copy()

    def _cycle_rep_ideal(self, i: int) -> QfIdeal:
        return form_to_ideal(self.field, self.cycles[i][0])

    # -- queries --------------------------------------------------------

    def class_index(self, I: QfIdeal) -> int:
        """Index of the rho-cycle containing the reduction of the form of I."""
        f = ideal_to_form(self.field, I).reduce()
        return self._form_to_cycle[f]

    def is_cyclic(self) -> bool:
        try:
            self._dlog
        except ArithmeticError:
            return False
        return True

    def dlog(self, I: QfIdeal) -> int:
        """Discrete log of the narrow class of I w.r.t. the chosen generator."""
        return self._dlog[self.class_index(I)]

    def prime_classes(self, p):
        """chi_D(p), and the discrete log of the class of the prime ideal
        (p, b) above p (0 for inert p), for an int64 array of primes p < 2^31.

        chi_D(p) and b, the least root of N(b + omega) = 0 mod p, come from
        QuadField.prime_roots.  The forms (p, B, (B^2 - D)/4p), B = 2b + s
        moved into (-p, p] so that B^2 fits, are rho-reduced together under a
        mask, and each is looked up among the forms of the cycles.  The cycle
        index maps to its log last, so a group that is not cyclic raises
        ArithmeticError there."""
        D, s = self.field.D, self.field.s
        r = isqrt(D)
        chi, b = self.field.prime_roots(p)
        k = np.zeros_like(p)
        idx = np.flatnonzero(chi >= 0)
        if not idx.size:
            return chi, k
        P = p[idx]
        A, B = P.copy(), 2 * b[idx] + s
        B = np.where(B > P, B - 2 * P, B)
        C = (B * B - D) // (4 * P)
        todo = np.arange(P.size)
        for _ in range(10 * len(str(D)) + 64):
            # reduced: 0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B
            t, Bt = 2 * np.abs(A[todo]), B[todo]
            todo = todo[~((Bt > 0) & (Bt <= r) & (t > r - Bt) & (t <= r + Bt))]
            if not todo.size:
                break
            # one rho step, as IndefiniteForm.rho
            Ct = C[todo]
            ca = np.abs(Ct)
            c2 = 2 * ca
            m = -B[todo] % c2
            Bp = np.where(ca > r, np.where(m <= ca, m, m - c2), m + c2 * ((r - m) // c2))
            A[todo], B[todo], C[todo] = Ct, Bp, (Bp * Bp - D) // (4 * Ct)
        else:
            raise ArithmeticError("reduction of the prime forms did not terminate")
        keys, cycle = self._form_keys
        key = (A + r + 1) * (r + 1) + B
        at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        if not np.array_equal(keys[at], key):
            raise ArithmeticError("a reduced prime form lies on no cycle")
        logs = np.array([self._dlog[i] for i in range(self.h_narrow)], dtype=np.int64)
        k[idx] = logs[cycle[at]]
        return chi, k

    def residue_zeta(self) -> float:
        """Residue at s=1 of the Dedekind zeta function: 2*h*R/sqrt(D)."""
        import math

        return 2 * self.h_wide * self.regulator / math.sqrt(self.field.D)


def ideal_to_form(field: QuadField, I: QfIdeal) -> IndefiniteForm:
    """Form of the primitive part of I: (a, 2b + s, N(b + omega)/a)."""
    a, b = I.a, I.b
    return IndefiniteForm(a, 2 * b + field.s, field.omega_image_norm(b) // a)


def form_to_ideal(field: QuadField, f: IndefiniteForm) -> QfIdeal:
    """Primitive ideal of a form with A > 0 (use a rho-translate if A < 0)."""
    g = f if f.A > 0 else f.reduce()
    while g.A < 0:
        g = g.rho()
    b = ((g.B - field.s) // 2) % g.A
    return QfIdeal.make(field, 1, g.A, b)
