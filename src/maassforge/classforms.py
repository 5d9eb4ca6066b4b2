"""Indefinite binary quadratic forms, narrow class groups, fundamental units.

Forms (A, B, C) of discriminant B^2 - 4AC = D > 0 represent narrow ideal
classes: the classes are the rho-cycles of reduced forms.  Forms live in
arrays, one entry per form, and one rho step (_rho) and one reduction
(reduce_forms) serve every class computation: the cycles are the orbits of
_rho on all reduced forms, and an ideal's class is found by reducing its
form and looking the result up among them, for int64 arrays of prime ideals
and for one ideal of any size in Python ints alike.  The fundamental unit
comes from one period of the continued fraction of the ring generator
(s + sqrt(D))/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from math import isqrt, sqrt

import numpy as np

from . import InvalidInputError
from .quadfield import SIEVE_CHUNK, QfIdeal, QuadField


def _rho(A, B, C, D: int, r: int):
    """One reduction step on arrays of forms of discriminant D, r = isqrt(D):
    (A, B, C) -> (C, B', C') with B' = -B mod 2|C| placed in the window
    (sqrt(D) - 2|C|, sqrt(D)), or, while |C| > sqrt(D), the least residue
    -|C| < B' <= |C|."""
    ca = np.abs(C)
    c2 = 2 * ca
    m = -B % c2
    Bp = np.where(ca > r, np.where(m <= ca, m, m - c2), m + c2 * ((r - m) // c2))
    return C, Bp, (Bp * Bp - D) // (4 * C)


def reduce_forms(A, B, C, D: int):
    """Reduce arrays of forms of discriminant D in place, rho-stepping them
    together under a mask until each is reduced: 0 < B < sqrt(D) and
    sqrt(D) - B < 2|A| < sqrt(D) + B.  Works on int64 arrays whose entries
    and B^2 fit, and on dtype=object arrays of Python ints of any size."""
    r = isqrt(D)
    todo = np.arange(A.size)
    # each step shrinks |C| about fourfold until |C| <= sqrt(D)
    for _ in range(10 * len(str(D)) + 64):
        t, Bt = 2 * np.abs(A[todo]), B[todo]
        todo = todo[~((Bt > 0) & (Bt <= r) & (t > r - Bt) & (t <= r + Bt))]
        if not todo.size:
            return A, B, C
        A[todo], B[todo], C[todo] = _rho(A[todo], B[todo], C[todo], D, r)
    raise ArithmeticError("reduction of the forms did not terminate")


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
    """Narrow class group of a real quadratic field via reduced form cycles.

    forms holds the reduced forms (A, B, C) of discriminant D as int64
    arrays, sorted by the key (A + r + 1)(r + 1) + B, r = isqrt(D), which is
    one-to-one since 0 < B <= r and |A| <= r; cycle[j] is the class of the
    j-th form.  The cycles are numbered by their least form, in key order,
    and then the class of the unit ideal is swapped with class 0."""

    def __init__(self, field: QuadField):
        self.field = field
        D = field.D
        self.unit = fundamental_unit(D)
        self.unit_norm = self.unit.norm()
        self.regulator = self.unit.regulator()
        r = isqrt(D)
        # reduced: 0 < B <= r, B = D mod 2, r - B < 2|A| <= r + B, A | (D - B^2)/4.
        # One strided slice of the candidates B per |A| yields the forms in
        # key order, A < 0 first, so no numpy sort is paged in
        b = np.arange(r + 1)
        q = (D - b * b) // 4
        Bs = []
        for a in range(1, r + 1):
            lo = max(1, r - 2 * a + 1, 2 * a - r)
            lo += (lo - D) % 2
            Bs.append(b[lo::2][q[lo::2] % a == 0])
        A = np.repeat(np.arange(1, r + 1), [x.size for x in Bs])
        A, B = np.concatenate([-A[::-1], A]), np.concatenate(Bs[::-1] + Bs)
        self.forms = A, B, (B * B - D) // (4 * A)
        self._keys = self._key(A, B)
        # rho permutes the reduced forms; each orbit is labelled by its least
        # position, found by doubling the steps taken, and numbered in order
        A2, B2, _ = _rho(*self.forms, D, r)
        step = np.searchsorted(self._keys, self._key(A2, B2))
        least = np.arange(A.size)
        for _ in range(A.size.bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
        self.cycle = (np.cumsum(least == np.arange(A.size)) - 1)[least]
        self.h_narrow = int(self.cycle.max()) + 1
        self.h_wide = self.h_narrow if self.unit_norm == -1 else self.h_narrow // 2
        ident = self.class_index(field.unit_ideal())
        self.cycle = np.where(self.cycle == ident, 0, np.where(self.cycle == 0, ident, self.cycle))
        # the coefficient table of the field, built by lseries.support and
        # replaced by a larger one when more rows are asked for
        self.count_table = None

    def _key(self, A, B):
        r = isqrt(self.field.D)
        return (A + r + 1) * (r + 1) + B

    def _classes(self, A, B):
        """The class of each form (A, B, (B^2 - D)/4A) with 0 <= B < 2A:
        B is moved into (-A, A], so that B^2 fits where A does, the forms
        are reduced (A in place), and each is looked up among self.forms."""
        D = self.field.D
        B = np.where(B > A, B - 2 * A, B)
        A, B, _ = reduce_forms(A, B, (B * B - D) // (4 * A), D)
        key = self._key(A, B).astype(np.int64, copy=False)
        at = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        if not np.array_equal(self._keys[at], key):
            raise ArithmeticError("a reduced form lies on no cycle")
        return self.cycle[at]

    @cached_property
    def class_ideals(self) -> list[QfIdeal]:
        """A primitive ideal in each class, by index: (A, (B - s)/2) for the
        class's form with the least A > 0 (the sign of A alternates along a
        cycle)."""
        A, B, _ = self.forms
        pos = np.flatnonzero(A > 0)
        first = np.full(self.h_narrow, A.size)
        np.minimum.at(first, self.cycle[pos], pos)
        s = self.field.s
        return [QfIdeal.make(self.field, 1, a, (b - s) // 2)
                for a, b in zip(A[first].tolist(), B[first].tolist())]

    @cached_property
    def logs(self) -> np.ndarray:
        """Discrete logs of all classes w.r.t. a generator, an int64 array
        by class, built on first use: HeckeCharacter reads them once, for
        its value on every class, and only a cyclic group has them.  A group
        that is not cyclic raises InvalidInputError, the refusal of every
        command that takes a character index.

        For a candidate g the classes of the h products class_ideals[c]
        class_ideals[g], classified together, are one row of the group law,
        the permutation c -> c g; g's powers are read off it from class 0,
        and g generates when they reach every class.  The classes they do
        reach are skipped as later candidates: a power of a non-generator
        generates nothing larger, so the first generator is the same, and a
        group that is not cyclic costs a row per cyclic subgroup tried, not
        h rows."""
        h = self.h_narrow
        reps = self.class_ideals
        reached = np.full(h, False)
        for g in range(h):
            if reached[g]:
                continue
            times_g = self._ideal_classes([self.field.ideal_mul(I, reps[g]) for I in reps])
            log = np.full(h, -1, dtype=np.int64)
            c = 0
            for e in range(h):
                if log[c] >= 0:
                    break
                log[c] = e
                c = times_g[c]
            if log.min() >= 0:
                return log
            reached |= log >= 0
        raise InvalidInputError(f"the narrow class group of D={self.field.D} is not cyclic; "
                                "class characters are indexed by a generator")

    # -- queries --------------------------------------------------------

    def _ideal_classes(self, ideals: list[QfIdeal]) -> np.ndarray:
        """The class of each ideal.  Their forms are reduced in int64 while
        every a < 2^31, as prime_classes reduces, and in Python ints
        (dtype=object) beyond, so that any ideal is classified: numpy's
        object loops, once run, add about 0.6 MB of resident code to the
        process."""
        dtype = np.int64 if max(I.a for I in ideals) < 2**31 else object
        A = np.array([I.a for I in ideals], dtype=dtype)
        B = np.array([2 * I.b + self.field.s for I in ideals], dtype=dtype)
        return self._classes(A, B)

    def class_index(self, I: QfIdeal) -> int:
        """Index of the class of I."""
        return int(self._ideal_classes([I])[0])

    def prime_classes(self, p):
        """chi_D(p), and the class of the prime ideal (p, b) above p (0, the
        class of (p), for inert p), for an int64 array of primes p < 2^31.

        chi_D(p) and b, the least root of N(b + omega) = 0 mod p, come from
        QuadField.prime_roots, and the forms (p, 2b + s, ...) are classified
        together by _classes, SIEVE_CHUNK primes a block, so that their
        temporaries stay the size of one block.  No discrete log is taken,
        so the classes of any narrow class group are found."""
        chi, cls = np.empty_like(p), np.zeros_like(p)
        for lo in range(0, p.size, SIEVE_CHUNK):
            block = p[lo : lo + SIEVE_CHUNK]
            c, b = self.field.prime_roots(block)
            chi[lo : lo + block.size] = c
            idx = np.flatnonzero(c >= 0)
            if idx.size:
                cls[lo + idx] = self._classes(block[idx], 2 * b[idx] + self.field.s)
        return chi, cls

    def residue_zeta(self) -> float:
        """Residue at s=1 of the Dedekind zeta function: 2*h*R/sqrt(D)."""
        return 2 * self.h_wide * self.regulator / sqrt(self.field.D)
