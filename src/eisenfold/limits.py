"""Asymptotics of the isoperimetric ratio along continued-fraction approximants.

For the golden aspect the fold and face counts have Fibonacci closed forms;
for a general quadratic irrational zeta the limiting ratio is recovered
numerically but exactly: expand eta of two deep rational approximants
only as far as their continued fractions agree, detect a repeating tail
in that prefix, and reconstruct the quadratic surd it determines.
Detection is conservative (two distinct approximants, three full
repeats, safety margin) and failure raises rather than guessing.

The agreeing prefix is read in certified chunks: cut to their top
_CHUNK_BITS bits, the two eta lie inside intervals whose ends' shared
terms Euclid on those small numbers finds, and exact arithmetic only
re-bases both pairs past those terms (see `_agreeing_prefix`).

All approximants of one limit come from one walk down zeta's continued
fraction.  Next to each convergent h/k the walk carries the fold count f
that `flower.cf_fold_count` would run Euclid's algorithm on (h, k) to find,
by a recurrence of the convergents' own shape (see `_convergents`), so
eta = f^2 / F costs no Euclid at all, and is expanded without reducing it.
Past the preperiod and one full period, one period of that walk is a
fixed affine map of (h, k, f) and the convergents before them, so the walk
jumps by powers of that map (see `_Walk`): a seek costs O(log) big-integer
products, not one step per partial quotient.  Depths that go up resume the
walk; a lower depth restarts it when its convergent lies behind the walk's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle, islice
from math import isqrt

from ._record import record, setfield
from .eisenstein import DomainError, continued_fraction_terms
from .flower import cf_eta, cf_face_count
from .jsonio import decimal_int
from .surd import CFExpansion, QuadraticSurd, periodic_cf_of_surd, surd_from_periodic_cf

DEFAULT_DEPTH_SCHEDULE = ((40, 60), (150, 200), (400, 500), (1200, 1500))


class UndeterminedError(RuntimeError):
    """No stable period emerged within the depth schedule."""


def _fibs(n: int) -> list[int]:
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def fib_fold_count(n: int) -> int:
    """Closed form -1 + 2 * sum(a_1..a_{n+2}) for the golden-aspect coloring."""
    if n < 2:
        raise DomainError("defined for n >= 2")
    return -1 + 2 * sum(_fibs(n + 2))


def fib_face_count(n: int) -> int:
    """Closed form 2 + 4 * sum(a_k * a_{k+1}, k=1..n)."""
    if n < 2:
        raise DomainError("defined for n >= 2")
    a = _fibs(n + 1)
    return 2 + 4 * sum(a[k] * a[k + 1] for k in range(n))


def golden_zeta() -> QuadraticSurd:
    """(sqrt(5) - 1) / 2, the reciprocal golden ratio."""
    return QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)


def sqrt_zeta(n: int) -> QuadraticSurd:
    """sqrt(n) - floor(sqrt(n)), normalized to a squarefree radicand."""
    if n < 2:
        raise DomainError("need n >= 2")
    f = isqrt(n)
    if f * f == n:
        raise DomainError(f"{n} is a perfect square")
    return QuadraticSurd.make(Fraction(-f), Fraction(1), n)


def parse_zeta(text: str) -> QuadraticSurd:
    """CLI surd syntax: 'golden' or 'sqrt:N' (the fractional part of sqrt(N))."""
    if text == "golden":
        return golden_zeta()
    if text.startswith("sqrt:"):
        try:
            n = decimal_int(text[5:])
        except DomainError as exc:
            raise DomainError(f"sqrt:N needs a decimal integer N, got {text!r}") from exc
        return sqrt_zeta(n)
    raise DomainError(f"unrecognized zeta syntax {text!r}")


def _terms(e: CFExpansion, n: int):
    """The partial quotients t_n, t_(n+1), ... of e (t_0 is the leading term)."""
    pre, per = e.preperiod, e.period
    if n < len(pre):
        return chain(pre[n:], cycle(per))
    i = (n - len(pre)) % len(per)
    return cycle(per[i:] + per[:i])


def _convergents(e: CFExpansion, at: tuple | None = None):
    """The nonzero convergents (h, k) of the expansion e, in order, each with
    the fold count f of the continued-fraction coloring of h/k.

    For e = [0; t1, t2, ...] Euclid on (h_n, k_n) takes the quotients t1..tn
    in order, and cf_fold_count's orbit sum adds, per quotient t_i, the run
    a*t_i(t_i+3)/2 + t_i*r whose a and r are continuants of t_(i+1)..tn.
    Continuants obey the convergents' recurrence, and so, up to a small
    term, does the fold: f_n = t_n*f_(n-1) + f_(n-2) + t_n^2 + 2*t_(n-1),
    with f_0 = f_(-1) = 3 and t_0 = 0.  f means nothing for zeta outside
    (0, 1).

    `at` = (n, h_n, h_(n-1), k_n, k_(n-1), f_n, f_(n-1)) resumes the walk
    after convergent n; without it the walk starts at convergent 0, t_0/1,
    and yields that one too if it is nonzero.
    """
    if at is None:
        at = _first(e)
        if at[1] > 0:
            yield at[1], at[3], at[5]
    n, h, h1, k, k1, f, f1 = at
    terms = _terms(e, n)
    t0 = next(terms)
    for t in terms:
        h, h1 = t * h + h1, h
        k, k1 = t * k + k1, k
        f, f1 = t * f + f1 + t * t + 2 * t0, f
        t0 = t
        if h > 0:
            yield h, k, f


def _first(e: CFExpansion) -> tuple:
    """Convergent 0 of e, t_0/1, as a resumable `_convergents` position."""
    return (0, next(_terms(e, 0)), 1, 1, 0, 3, 3)


def _apply(x: tuple, m: tuple) -> tuple:
    """x = (h, h1, k, k1, f, f1) after the affine map m = (P, w) over whole
    periods: (h, h1)*P, (k, k1)*P and (f, f1)*P + w for the row-vector
    product with P = ((m0, m1), (m2, m3)) and w = (m4, m5).

    A map is laid out as the state it makes of (1, 0, 0, 1, 0, 0), so
    _apply(m, m) is m applied twice.
    """
    h, h1, k, k1, f, f1 = x
    p00, p01, p10, p11, w0, w1 = m
    return (
        h * p00 + h1 * p10, h * p01 + h1 * p11,
        k * p00 + k1 * p10, k * p01 + k1 * p11,
        f * p00 + f1 * p10 + w0, f * p01 + f1 * p11 + w1,
    )


class _Walk:
    """A resumable walk over zeta's nonzero convergents: `h / k` is the
    current one and `fold` the fold count of its coloring.

    Convergent n and the one before it, with their folds, are the state
    `_convergents` resumes from.  Once the walk is past the preperiod and
    one full period, a whole period of steps is one affine map of that
    state, (h, h1)*P, (k, k1)*P and (f, f1)*P + w, where P is the product
    of the period's matrices [[t, 1], [1, 0]] (the continuant matrices):
    the fold's extra term t_n^2 + 2*t_(n-1) repeats with the period once
    t_(n-1) is a period term too.  A seek squares that map while the next
    power stays below the target denominator, applies the powers from the
    largest down wherever the result stays below it, and single-steps only
    inside the last period, so it costs O(log) big-integer products, not
    one step per partial quotient.  The powers are dropped after the seek.
    """

    def __init__(self, zeta: QuadraticSurd):
        if not zeta > 0:
            # no convergent of a zeta <= 0 is positive, and the walk steps
            # until it finds one
            raise DomainError(f"zeta must be positive, got {zeta}")
        e = self._expansion = periodic_cf_of_surd(zeta)
        self._period = len(e.period)
        self._period_end = len(e.preperiod) + self._period - 1  # t_n ends a full period
        # the period's map, as the state it makes of (1, 0, 0, 1, 0, 0)
        self._map = self._step(
            (self._period_end, 1, 0, 0, 1, 0, 0), lambda n, k: n == self._period_end + self._period
        )[1:]
        self._restart()

    def _restart(self) -> None:
        at = _first(self._expansion)
        if at[1] <= 0:
            at = self._step(at, lambda n, k: True)
        self._at = at
        self.h, self.k, self.fold = at[1], at[3], at[5]
        self._k_before = 0  # denominator of the nonzero convergent before this one

    def _ends_period(self, n: int) -> bool:
        return n >= self._period_end and (n - self._period_end) % self._period == 0

    def _step(self, at: tuple, done) -> tuple:
        """Single steps of `_convergents` from `at` until done(n, k)."""
        n, h, h1, k, k1, f, f1 = at
        for h2, k2, f2 in _convergents(self._expansion, at):
            n, h, h1, k, k1, f, f1 = n + 1, h2, h, k2, k, f2, f
            if done(n, k):
                break
        return n, h, h1, k, k1, f, f1

    def _jump(self, at: tuple, min_denominator: int) -> tuple:
        """From a period end, the last period end whose k < min_denominator."""
        n, x = at[0], at[1:]
        k, k1 = x[2], x[3]
        powers = []
        m, periods = self._map, 1
        bits = min_denominator.bit_length() - k.bit_length() + 3
        while k * m[0] + k1 * m[2] < min_denominator:
            powers.append((m, periods))
            if 2 * m[0].bit_length() >= bits:
                # the square's m[0] is at least m[0]^2, and k * m[0]^2 >=
                # 2^min_denominator.bit_length(): it would reach the target
                break
            m, periods = _apply(m, m), 2 * periods
        for m, periods in reversed(powers):
            if x[2] * m[0] + x[3] * m[2] < min_denominator:
                x = _apply(x, m)
                n += periods * self._period
        return (n,) + x

    def seek(self, min_denominator: int) -> None:
        """Move to the first convergent with k >= min_denominator."""
        if self._k_before >= min_denominator:
            self._restart()
        at = self._at
        if at[3] >= min_denominator:
            return
        if not self._ends_period(at[0]):
            at = self._step(at, lambda n, k: k >= min_denominator or self._ends_period(n))
        if at[3] < min_denominator:
            at = self._jump(at, min_denominator)
            at = self._step(at, lambda n, k: k >= min_denominator)
        self._at = at
        self.h, self.k, self.fold, self._k_before = at[1], at[3], at[5], at[4]


def approximant(zeta: QuadraticSurd, min_denominator: int, walk: _Walk | None = None) -> Fraction:
    """First continued-fraction convergent of zeta with denominator >= bound.

    Given a walk over zeta's convergents, moves that walk there and leaves
    it there; otherwise walks from zeta's first convergent.  zeta must be
    positive.
    """
    if walk is None:
        walk = _Walk(zeta)
    walk.seek(min_denominator)
    return Fraction(walk.h, walk.k)


def _check_unit_zeta(zeta: QuadraticSurd) -> None:
    if zeta.is_rational() or not (QuadraticSurd(Fraction(0), Fraction(0), 1) < zeta < 1):
        raise DomainError("zeta must be a quadratic irrational in (0, 1)")


def eta_of_approximant(p: int, q: int) -> Fraction:
    """Exact eta of the continued-fraction coloring indexed by p + q*alpha."""
    return cf_eta(p, q)


def _eta(r: Fraction, fold: int) -> tuple[int, int]:
    """eta = fold^2 / F of the coloring of r, as an unreduced pair."""
    return fold * fold, cf_face_count(r.numerator, r.denominator)


_CHUNK_BITS = 256


def _certified_terms(p: int, q: int, r: int, s: int) -> tuple[list[int], tuple]:
    """Leading partial quotients that p/q and r/s certainly share, read from
    their top _CHUNK_BITS bits, with the continuant matrix (h, h1, k, k1) of
    those terms; both fractions have more terms after them.

    With P = p >> sh and Q = q >> sh, p/q lies strictly between P/(Q + 1)
    and (P + 1)/Q, and so does r/s between its own ends.  Let lo be the
    smaller lower end and hi the larger upper one.  The fractions whose
    expansion starts with t_0..t_(u-1) and goes on form an open interval
    whose closure holds every fraction that starts with those terms, so if
    lo and hi share t_0..t_(u-1), both p/q and r/s, which lie strictly
    between them, start with those terms and go on.

    Euclid runs on lo = a/b and hi = c/d in lockstep: t = a // b is a term
    of hi too exactly when 0 <= c - t*d < d.  The continuant matrix M is
    not updated per term: with (a, b) and (c, d) the start pairs and
    (a', b') and (c', d') the end ones, M [[a', c'], [b', d']] =
    [[a, c], [b, d]], and the end matrix is invertible, since its
    determinant is +-(a*d - b*c), nonzero because lo < hi.  So one 2x2
    solve after the loop gives M.
    """
    sh = min(p.bit_length(), q.bit_length(), r.bit_length(), s.bit_length()) - _CHUNK_BITS
    p, q, r, s = p >> sh, q >> sh, r >> sh, s >> sh
    a0, b0 = a, b = (p, q + 1) if p * (s + 1) < r * (q + 1) else (r, s + 1)
    c0, d0 = c, d = (p + 1, q) if (p + 1) * s > (r + 1) * q else (r + 1, s)
    terms = []
    while b and d:
        t, m = divmod(a, b)
        n = c - t * d
        if not 0 <= n < d:
            break
        terms.append(t)
        a, b, c, d = b, m, d, n
    det = a * d - b * c
    return terms, ((a0 * d - c0 * b) // det, (c0 * a - a0 * c) // det,
                   (b0 * d - d0 * b) // det, (d0 * a - b0 * c) // det)


def _agreeing_prefix(x: tuple[int, int], y: tuple[int, int]) -> list[int]:
    """The leading partial quotients that p/q > 0 and p'/q' > 0 share, given
    x = (p, q) and y = (p', q').

    Neither pair needs to be reduced: Euclid on (g*p, g*q) takes the same
    quotients as on (p, q), so no gcd is spent on them.  The expansions
    stop at the first term where they differ or either one ends, so no
    term past the answer is computed.  While every number has at least
    2 * _CHUNK_BITS bits, the shared terms are read in chunks from the top
    _CHUNK_BITS bits of each number (see `_certified_terms`), and the
    inverse of the chunk's continuant matrix, whose determinant is +-1,
    takes both exact pairs to their Euclid remainders after it.  A chunk
    that certifies no term (a quotient wider than the chunk, or the two
    fractions parting) takes one exact Euclid step instead; once a number
    is narrower, exact Euclid finishes both in lockstep.

    This is not Lehmer's word-size Euclid, which re-bases after every
    machine word's few terms and checks each quotient on its own: in pure
    Python a small-number step costs about what the big one it replaces
    does.  A chunk of _CHUNK_BITS bits certifies about 60 terms at once,
    for four big-integer products per pair.
    """
    (p, q), (r, s) = x, y
    prefix = []
    while min(p.bit_length(), q.bit_length(), r.bit_length(), s.bit_length()) >= 2 * _CHUNK_BITS:
        terms, (h, h1, k, k1) = _certified_terms(p, q, r, s)
        if terms:
            prefix += terms
            p, q = abs(k1 * p - h1 * q), abs(h * q - k * p)
            r, s = abs(k1 * r - h1 * s), abs(h * s - k * r)
            continue
        t, m = divmod(p, q)
        if t != r // s:
            return prefix
        prefix.append(t)
        p, q, r, s = q, m, s, r - t * s
    for t, u in zip(continued_fraction_terms(p, q), continued_fraction_terms(r, s)):
        if t != u:
            break
        prefix.append(t)
    return prefix


@record
class EtaLimitResult:
    def __init__(self, zeta: QuadraticSurd, surd: QuadraticSurd, expansion: CFExpansion,
                 depths_used: tuple[int, int], prefix_length: int):
        setfield(self, "zeta", zeta)
        setfield(self, "surd", surd)
        setfield(self, "expansion", expansion)
        setfield(self, "depths_used", depths_used)
        setfield(self, "prefix_length", prefix_length)


def eta_limit_numeric(
    zeta: QuadraticSurd,
    depth_schedule: tuple[tuple[int, int], ...] = DEFAULT_DEPTH_SCHEDULE,
) -> EtaLimitResult:
    """Limit of eta along zeta's approximants, reconstructed as an exact surd.

    Each rung (d1, d2) takes the approximants with denominators near 10^d1
    and 10^d2 and expands their eta in lockstep, stopping at the first
    term where the two continued fractions differ or either one ends.  The
    common prefix (minus a 5-term safety margin) must contain at least
    three full repeats of a candidate period, the reconstruction must land
    in Q(sqrt(d)), and re-expanding the reconstructed surd must reproduce
    the whole trimmed prefix.  A rung whose two depths pick the same
    approximant is skipped: its "common prefix" would be the whole
    expansion of one rational, which says nothing about the limit.  A rung
    with d1 == d2 always does that, so it raises DomainError.  Raises
    UndeterminedError when no rung of the schedule satisfies all checks.
    """
    _check_unit_zeta(zeta)
    for d1, d2 in depth_schedule:
        if d1 == d2:
            raise DomainError(f"rung ({d1}, {d2}) needs two different depths")
    walk = _Walk(zeta)
    for d1, d2 in depth_schedule:
        r1 = approximant(zeta, 10 ** d1, walk)
        f1 = walk.fold
        r2 = approximant(zeta, 10 ** d2, walk)
        if r1 == r2:
            continue
        prefix = _agreeing_prefix(_eta(r1, f1), _eta(r2, walk.fold))
        del prefix[max(0, len(prefix) - 5) :]
        hit = _detect_period(prefix)
        if hit is None:
            continue
        start, period = hit
        try:
            surd = surd_from_periodic_cf(
                CFExpansion(tuple(prefix[:start]), tuple(period)), known_radicand=zeta.d
            )
        except DomainError:
            continue
        regenerated = periodic_cf_of_surd(surd).terms(len(prefix))
        if regenerated != prefix:
            continue
        return EtaLimitResult(
            zeta=zeta,
            surd=surd,
            expansion=CFExpansion(tuple(prefix[:start]), tuple(period)),
            depths_used=(d1, d2),
            prefix_length=len(prefix),
        )
    raise UndeterminedError(
        f"no stable period for zeta={zeta} within schedule {depth_schedule}"
    )


def _detect_period(terms: list[int]):
    """Smallest (start, period) with >= 3 full repeats filling the suffix.

    The suffix terms[start:] read backwards is a prefix of the reversed
    list, and a sequence and its reverse have the same smallest period, so
    one KMP failure table over the reversed list gives the period of every
    suffix: L - border[L - 1] for the suffix of length L.
    """
    rev = terms[::-1]
    n = len(rev)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and rev[i] != rev[k]:
            k = border[k - 1]
        if rev[i] == rev[k]:
            k += 1
        border[i] = k
    for start in range(n - 2):
        length = n - start
        p = length - border[length - 1]
        if length >= 3 * p:
            return start, terms[start : start + p]
    return None


@record
class ScanRow:
    def __init__(self, n: int, p: int, q: int, fold: int, faces: int, fold_ratio: Fraction,
                 eta_ratio: Fraction):
        setfield(self, "n", n)
        setfield(self, "p", p)
        setfield(self, "q", q)
        setfield(self, "fold", fold)
        setfield(self, "faces", faces)
        setfield(self, "fold_ratio", fold_ratio)
        setfield(self, "eta_ratio", eta_ratio)


def ratio_scan(zeta: QuadraticSurd, n_max: int) -> list[ScanRow]:
    """Exact per-approximant fold and eta ratios for convergence inspection.

    Row n uses the n-th continued-fraction convergent of zeta; for the
    golden aspect that is the pair of consecutive Fibonacci numbers
    (a_n, a_{n+1}).  zeta must lie in (0, 1), where each convergent indexes
    a coloring.
    """
    _check_unit_zeta(zeta)
    rows = []
    steps = islice(_convergents(periodic_cf_of_surd(zeta)), n_max)
    for n, (p, q, f) in enumerate(steps, start=1):
        faces = cf_face_count(p, q)
        rows.append(
            ScanRow(n, p, q, f, faces, Fraction(f, faces), Fraction(f * f, faces))
        )
    return rows
