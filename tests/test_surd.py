import random
from fractions import Fraction

import pytest

from eisenfold.eisenstein import DomainError
from eisenfold.surd import (
    CFExpansion,
    QuadraticSurd,
    periodic_cf_of_surd,
    surd_from_periodic_cf,
)
from eisenfold.surd import _extract_square


def golden_conjugate():
    return QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)


def test_golden_expansion():
    e = periodic_cf_of_surd(golden_conjugate())
    assert e.preperiod == (0,)
    assert e.period == (1,)


def test_sqrt2_minus_1():
    x = QuadraticSurd(Fraction(-1), Fraction(1), 2)
    e = periodic_cf_of_surd(x)
    assert e.preperiod == (0,)
    assert e.period == (2,)


def test_sqrt7_minus_2():
    x = QuadraticSurd(Fraction(-2), Fraction(1), 7)
    e = periodic_cf_of_surd(x)
    assert e.preperiod == (0,)
    assert e.period == (1, 1, 1, 4)
    back = surd_from_periodic_cf(e)
    assert back == x


def test_reconstruct_golden():
    x = surd_from_periodic_cf(CFExpansion((0,), (1,)))
    assert x == golden_conjugate()


def test_reconstruct_silver():
    # [2; 2, 2, ...] = 1 + sqrt(2)
    x = surd_from_periodic_cf(CFExpansion((), (2,)))
    assert x == QuadraticSurd(Fraction(1), Fraction(1), 2)


def test_round_trip_random_surds():
    rng = random.Random(11)
    done = 0
    while done < 100:
        d = rng.randint(2, 50)
        x = QuadraticSurd.make(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            d,
        )
        if x.is_rational():
            continue  # d collapsed to a square
        e = periodic_cf_of_surd(x)
        assert surd_from_periodic_cf(e, known_radicand=x.d) == x
        done += 1


def test_expansion_minimality():
    e = CFExpansion((0,), (1, 2, 1, 2))
    assert e.period == (1, 2)
    # preperiod tail folding into the cycle
    e = CFExpansion((0, 3), (1, 1, 3))
    assert e.preperiod == (0,)
    assert e.period == (3, 1, 1)


def test_expansion_rejects_nonpositive_quotients():
    with pytest.raises(DomainError):
        CFExpansion((0, 0), (1,))
    with pytest.raises(DomainError):
        CFExpansion((0,), (1, 0))


def test_rational_input_rejected():
    with pytest.raises(DomainError):
        periodic_cf_of_surd(QuadraticSurd(Fraction(1, 2), Fraction(0), 1))


def test_make_normalizes_radicand():
    x = QuadraticSurd.make(Fraction(-2), Fraction(2), 2)  # 2*sqrt(2) - 2
    assert (x.r, x.s, x.d) == (Fraction(-2), Fraction(2), 2)
    y = QuadraticSurd.make(Fraction(0), Fraction(1), 8)  # sqrt(8) = 2 sqrt(2)
    assert (y.r, y.s, y.d) == (Fraction(0), Fraction(2), 2)
    z = QuadraticSurd.make(Fraction(3), Fraction(5), 9)  # sqrt(9) = 3
    assert z.is_rational() and z.r == 18


def test_arithmetic_and_order():
    a = QuadraticSurd(Fraction(9), Fraction(4), 5)       # phi^6
    b = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)  # phi^-1
    phi = b + 1
    assert phi * phi == phi + 1
    assert a == (phi * phi * phi) * (phi * phi * phi)
    assert a > 17 and a < 18
    assert abs(-a) == a
    assert (a - a).sign() == 0
    assert float(a) == pytest.approx(17.944271909999157)


def test_mixed_radicand_rejected():
    a = QuadraticSurd(Fraction(0), Fraction(1), 2)
    b = QuadraticSurd(Fraction(0), Fraction(1), 3)
    with pytest.raises(DomainError):
        _ = a + b


def test_extract_square_past_the_trial_limit():
    p = 1_000_003  # a prime above the trial-division limit
    assert _extract_square(p * p) == (p, 1)
    assert _extract_square(12 * p) == (2, 3 * p)
    with pytest.raises(DomainError):
        _extract_square(2 * p * p)
