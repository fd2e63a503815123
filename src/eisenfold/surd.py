"""Exact arithmetic in real quadratic fields and periodic continued fractions.

A surd r + s*sqrt(d) carries exact rational parts and a squarefree radicand;
comparisons square out the radical so every ordering decision is integral.
The continued-fraction expansion of a quadratic irrational is computed with
the classical complete-quotient recurrence on integer state (P, Q), whose
first repeated state delimits the minimal preperiod and period.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._record import record, setfield
from .eisenstein import DomainError

_TRIAL_LIMIT = 1_000_000


def _extract_square(n: int) -> tuple[int, int]:
    """n = k^2 * m with m squarefree.

    Raises DomainError when trial division, which stops at the trial
    limit, cannot show m squarefree.
    """
    if n <= 0:
        raise DomainError("radicand must be positive")
    k, m, p = 1, n, 2
    while p * p <= m and p <= _TRIAL_LIMIT:
        while m % (p * p) == 0:
            m //= p * p
            k *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return k * r, 1
    if p * p <= m:
        raise DomainError(f"cannot show the radicand squarefree: trial division "
                          f"stops at {_TRIAL_LIMIT}")
    return k, m


@record(frozen=True, slots=True)
class QuadraticSurd:
    """Value r + s*sqrt(d) with r, s rational and d squarefree positive."""

    def __init__(self, r: Fraction, s: Fraction, d: int):
        setfield(self, "r", r)
        setfield(self, "s", s)
        setfield(self, "d", d if s != 0 else 1)
        if d <= 0:
            raise DomainError("radicand must be positive")

    @staticmethod
    def make(r, s, d: int) -> QuadraticSurd:
        """Normalize the radicand (square factors move into s)."""
        r, s = Fraction(r), Fraction(s)
        if s == 0:
            return QuadraticSurd(r, Fraction(0), 1)
        k, m = _extract_square(d)
        if m == 1:
            return QuadraticSurd(r + s * k, Fraction(0), 1)
        return QuadraticSurd(r, s * k, m)

    def is_rational(self) -> bool:
        return self.s == 0

    def _coerce(self, other) -> QuadraticSurd:
        if isinstance(other, QuadraticSurd):
            if other.s != 0 and self.s != 0 and other.d != self.d:
                raise DomainError(f"mixed radicands {self.d} and {other.d}")
            return other
        return QuadraticSurd(Fraction(other), Fraction(0), 1)

    def _field_d(self, other: QuadraticSurd) -> int:
        return self.d if self.s != 0 else other.d

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticSurd(self.r + o.r, self.s + o.s, self._field_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.r, -self.s, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._field_d(o)
        return QuadraticSurd(
            self.r * o.r + self.s * o.s * d, self.r * o.s + self.s * o.r, d
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadraticSurd:
        den = self.r * self.r - self.s * self.s * self.d
        if den == 0:
            raise ZeroDivisionError("surd has no inverse")
        return QuadraticSurd(self.r / den, -self.s / den, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sign(self) -> int:
        r, s, d = self.r, self.s, self.d
        if s == 0:
            return -1 if r < 0 else (1 if r > 0 else 0)
        if r == 0:
            return 1 if s > 0 else -1
        if r > 0 and s > 0:
            return 1
        if r < 0 and s < 0:
            return -1
        lhs, rhs = r * r, s * s * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) if r > 0 else (-1 if bigger_rational else 1)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.r) + float(self.s) * self.d ** 0.5

    def __str__(self):
        if self.s == 0:
            return str(self.r)
        return f"{self.r} + {self.s}*sqrt({self.d})"


@record(frozen=True)
class CFExpansion:
    """Eventually periodic continued fraction; minimal period and preperiod."""

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if any(t <= 0 for t in preperiod[1:]) or any(t <= 0 for t in period):
            raise DomainError("partial quotients past the first must be positive")
        preperiod, period = _minimize(preperiod, period)
        setfield(self, "preperiod", preperiod)
        setfield(self, "period", period)

    def terms(self, n: int) -> list[int]:
        out = list(self.preperiod[:n])
        while self.period and len(out) < n:
            out.extend(self.period[: n - len(out)])
        return out


def _minimize(pre: tuple[int, ...], per: tuple[int, ...]):
    if per:
        k = _smallest_cyclic_period(per)
        if len(per) % k == 0:
            per = per[:k]
        while len(pre) > 1 and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
    return tuple(pre), tuple(per)


def _smallest_cyclic_period(seq) -> int:
    n = len(seq)
    for k in range(1, n + 1):
        if n % k == 0 and all(seq[i] == seq[i % k] for i in range(n)):
            return k
    return n


def periodic_cf_of_surd(x: QuadraticSurd) -> CFExpansion:
    """Exact preperiodic expansion via the complete-quotient cycle."""
    if x.s == 0:
        raise DomainError("expansion of a rational is not periodic; need s != 0")
    # write x = (P + sqrt(D)) / Q with integers, folding the sign of s into P, Q
    rn, rd = x.r.numerator, x.r.denominator
    sn, sd = x.s.numerator, x.s.denominator
    lcm = rd * sd // gcd(rd, sd)
    a = rn * (lcm // rd)
    b = sn * (lcm // sd)
    if b > 0:
        p, q = a, lcm
    else:
        p, q = -a, -lcm
    dd = b * b * x.d
    if (dd - p * p) % q != 0:
        p *= abs(q)
        dd *= q * q
        q *= abs(q)
    sq = isqrt(dd)
    if sq * sq == dd:
        raise AssertionError("radicand collapsed to a square")
    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while True:
        state = (p, q)
        if state in seen:
            i = seen[state]
            return CFExpansion(tuple(terms[:i]), tuple(terms[i:]))
        seen[state] = len(terms)
        t = (p + sq) // q if q > 0 else (p + sq + 1) // q
        terms.append(t)
        p = t * q - p
        q = (dd - p * p) // q


def surd_from_periodic_cf(e: CFExpansion, known_radicand: int | None = None) -> QuadraticSurd:
    """Value of the expansion: solve the periodic tail, apply the preperiod.

    The tail y = [per; per, ...] satisfies the fixed-point quadratic of the
    period's convergent matrix; passing the expected radicand skips the
    discriminant factorization (used when the field is known a priori).
    """
    if not e.period:
        raise DomainError("period must be nonempty")
    p, p1 = e.period[0], 1
    q, q1 = 1, 0
    for t in e.period[1:]:
        p, p1 = t * p + p1, p
        q, q1 = t * q + q1, q
    disc = (q1 - p) ** 2 + 4 * q * p1
    if known_radicand is not None:
        k2, rem = divmod(disc, known_radicand)
        k = isqrt(k2)
        if rem != 0 or k * k != k2:
            raise DomainError("discriminant is not in the expected field")
        value = QuadraticSurd(Fraction(p - q1, 2 * q), Fraction(k, 2 * q), known_radicand)
    else:
        value = QuadraticSurd.make(Fraction(p - q1, 2 * q), Fraction(1, 2 * q), disc)
    for c in reversed(e.preperiod):
        value = c + value.inverse()
    return value
