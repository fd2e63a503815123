"""Exact arithmetic on Eisenstein integers and the slow Gauss map.

The lattice element alpha = (1 + i*sqrt(3))/2 is a primitive sixth root of
unity satisfying alpha^2 = alpha - 1.  Everything downstream (triangle
anchors, necklace vertices, hexagon corners) is expressed in the integer
basis (1, alpha), so all geometry stays in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import record, setfield


class DomainError(ValueError):
    """Raised when an argument is outside an operation's domain."""


@record
class EisensteinInt:
    """Lattice point a + b*alpha with norm a^2 + ab + b^2."""

    def __init__(self, a: int, b: int):
        setfield(self, "a", a)
        setfield(self, "b", b)

    def __add__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: EisensteinInt | int) -> EisensteinInt:
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        # (a + b alpha)(c + d alpha) with alpha^2 = alpha - 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conj(self) -> EisensteinInt:
        """Complex conjugate: a + b*alpha -> (a + b) - b*alpha."""
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}α"


ALPHA = EisensteinInt(0, 1)


def is_primitive(z: EisensteinInt) -> bool:
    """True iff z is not a proper integer multiple of a lattice point."""
    if z.is_zero():
        raise DomainError("0 is neither primitive nor imprimitive")
    return gcd(z.a, z.b) == 1


def canonicalize(z: EisensteinInt) -> tuple[int, int]:
    """Unique orbit representative (a, b) with 0 <= a <= b.

    The orbit is taken under the 12-element group generated by the six
    units and complex conjugation; exactly one member lies in the closed
    30-degree wedge 0 <= a <= b.
    """
    if z.is_zero():
        raise DomainError("cannot canonicalize 0")
    hits = set()
    for w in (z, z.conj()):
        for _ in range(6):
            if 0 <= w.a <= w.b:
                hits.add((w.a, w.b))
            w = w * ALPHA
    if len(hits) != 1:
        raise AssertionError(f"orbit of {z} has {len(hits)} wedge members")
    return hits.pop()


def canonical(z: EisensteinInt) -> EisensteinInt:
    a, b = canonicalize(z)
    return EisensteinInt(a, b)


# ---------------------------------------------------------------------------
# Rationals in (0, 1] and the slow Gauss map.
#
# fractions.Fraction already guarantees the reduced-positive-denominator
# invariants wanted of an aspect ratio, so it is used directly.


def slow_gauss(r: Fraction) -> Fraction:
    """Send r in (0,1) to whichever of 1/r - 1 and its reciprocal is in (0,1].

    Equivalently a/(a+b) and b/(a+b) both map to a/b (with a <= b).
    """
    if r <= 0:
        raise DomainError(f"{r} is not positive")
    if r >= 1:
        raise DomainError(f"{r} is outside the domain")
    p, q = r.numerator, r.denominator
    lo, hi = min(p, q - p), max(p, q - p)
    return Fraction(lo, hi)


def continued_fraction_terms(p: int, q: int):
    """Lazily yield the partial quotients a0, a1, ..., am of p/q > 0.

    The expansion is already canonical, final quotient >= 2 unless there is
    one term: every step after the first divides a larger number by a
    smaller one, so the step that leaves remainder 0 has a quotient >= 2.
    A caller that stops early pays only for the terms it read.
    """
    while q:
        a, r = divmod(p, q)
        yield a
        p, q = q, r


def continued_fraction_euclid(p: int, q: int) -> list[int]:
    """Partial quotients [a0; a1, ..., am] of p/q by the Euclidean algorithm.

    Canonical form: the final quotient is >= 2 unless the list has one term.
    """
    if p <= 0 or q <= 0:
        raise DomainError("needs a positive rational")
    return list(continued_fraction_terms(p, q))
