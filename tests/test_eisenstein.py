import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eisenfold.eisenstein import (
    ALPHA,
    DomainError,
    EisensteinInt,
    canonicalize,
    continued_fraction_euclid,
    continued_fraction_terms,
    is_primitive,
    slow_gauss,
)
from oracles import (
    comparison_exponent,
    continued_fraction,
    evaluate_continued_fraction,
    g_sequence,
    gauss_star,
    tree_children,
)


def test_mul_necklace_identity():
    # alpha * (a + (b-a) alpha) = (a-b) + b alpha with (a, b) = (2, 3)
    assert ALPHA * EisensteinInt(2, 1) == EisensteinInt(-1, 3)


def test_mul_identity():
    z = EisensteinInt(17, -5)
    assert EisensteinInt(1, 0) * z == z


def test_norm_multiplicative_example():
    z, w = EisensteinInt(2, 3), EisensteinInt(1, 2)
    assert z.norm() == 19 and w.norm() == 7
    assert (z * w).norm() == 133


def test_norm_multiplicative_random():
    rng = random.Random(1)
    for _ in range(10_000):
        z = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        w = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (z * w).norm() == z.norm() * w.norm()


def test_norm_positive_definite():
    assert EisensteinInt(0, 0).norm() == 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a, b) != (0, 0):
                assert EisensteinInt(a, b).norm() > 0


def test_alpha_has_order_six():
    z = EisensteinInt(1, 0)
    powers = []
    for _ in range(6):
        z = z * ALPHA
        powers.append(z)
    assert powers[-1] == EisensteinInt(1, 0)
    assert len(set(powers)) == 6
    assert ALPHA * ALPHA == EisensteinInt(-1, 1)  # alpha^2 = alpha - 1


@pytest.mark.parametrize(
    "z, expected",
    [
        (EisensteinInt(2, 3), True),
        (EisensteinInt(2, 4), False),
        (EisensteinInt(8, 13), True),
    ],
)
def test_is_primitive(z, expected):
    assert is_primitive(z) is expected


def test_is_primitive_rejects_zero():
    with pytest.raises(DomainError):
        is_primitive(EisensteinInt(0, 0))


@pytest.mark.parametrize(
    "z, expected",
    [
        (EisensteinInt(-3, 5), (2, 3)),
        (EisensteinInt(0, 1), (0, 1)),
        (EisensteinInt(1, 0), (0, 1)),  # unit orbit
        (EisensteinInt(3, 5), (3, 5)),
    ],
)
def test_canonicalize(z, expected):
    assert canonicalize(z) == expected


def test_canonicalize_preserves_norm_and_is_orbit_invariant():
    rng = random.Random(2)
    for _ in range(500):
        z = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        if z.is_zero():
            continue
        a, b = canonicalize(z)
        assert EisensteinInt(a, b).norm() == z.norm()
        assert canonicalize(z * ALPHA) == (a, b)
        assert canonicalize(z.conj()) == (a, b)


def test_canonicalize_rejects_zero():
    with pytest.raises(DomainError):
        canonicalize(EisensteinInt(0, 0))


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(3, 5), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(1, 1)),
        (Fraction(3, 7), Fraction(3, 4)),
    ],
)
def test_slow_gauss(r, expected):
    assert slow_gauss(r) == expected


def test_slow_gauss_domain():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            slow_gauss(bad)


def test_g_sequence_examples():
    assert g_sequence(Fraction(3, 7)) == [
        Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(3, 7)
    ]
    assert g_sequence(Fraction(1)) == [Fraction(1)]
    assert g_sequence(Fraction(3, 5)) == [
        Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)
    ]


def test_g_sequence_numerators_monotone():
    # weak term-to-term monotonicity of numerators, all denominators <= 500
    for q in range(2, 501):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            nums = [x.numerator for x in g_sequence(Fraction(p, q))]
            assert all(u <= v for u, v in zip(nums, nums[1:]))


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(3, 7), 2),
        (Fraction(1, 2), 1),
        (Fraction(2, 5), 2),
    ],
)
def test_comparison_exponent(r, expected):
    assert comparison_exponent(r) == expected


def test_comparison_exponent_rejects_one():
    with pytest.raises(DomainError):
        comparison_exponent(Fraction(1))


def test_continued_fraction_examples():
    assert continued_fraction(Fraction(3, 7)) == [0, 2, 3]
    assert continued_fraction(Fraction(1)) == [1]
    assert continued_fraction(Fraction(5, 8)) == [0, 1, 1, 1, 2]


def test_continued_fraction_matches_euclid_and_roundtrips():
    for q in range(2, 201):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            cf = continued_fraction(Fraction(p, q))
            assert cf == continued_fraction_euclid(p, q)
            assert evaluate_continued_fraction(cf) == Fraction(p, q)


# partial quotients, a few of them long; a0 may be 0, the rest are >= 1
CF_TERMS = st.lists(
    st.one_of(st.integers(1, 9), st.integers(1, 10 ** 30)), min_size=1, max_size=12
).flatmap(lambda rest: st.integers(0, 9).map(lambda a0: [a0] + rest[1:]))


def canonical_terms(terms: list[int]) -> list[int]:
    """terms with a final quotient of 1 merged into the one before it."""
    if len(terms) > 1 and terms[-1] == 1:
        return terms[:-2] + [terms[-2] + 1]
    return terms


@settings(max_examples=400, deadline=None)
@given(terms=CF_TERMS)
def test_lazy_terms_are_the_canonical_expansion(terms):
    # a term list ending in 1 spells the same rational as its canonical form
    x = evaluate_continued_fraction(terms)
    assume(x > 0)
    lazy = list(continued_fraction_terms(x.numerator, x.denominator))
    assert lazy == continued_fraction_euclid(x.numerator, x.denominator)
    assert lazy == canonical_terms(terms)
    assert len(lazy) == 1 or lazy[-1] >= 2


@pytest.mark.parametrize("p, q, terms", [
    (1, 1, [1]), (7, 7, [1]), (5, 1, [5]), (3, 2, [1, 2]), (2, 3, [0, 1, 2]),
])
def test_lazy_terms_of_integers_and_a_last_quotient_of_1(p, q, terms):
    assert list(continued_fraction_terms(p, q)) == terms == continued_fraction_euclid(p, q)


def test_continued_fraction_euclid_rejects_non_positive():
    for p, q in [(0, 1), (1, 0), (-1, 2), (2, -3)]:
        with pytest.raises(DomainError):
            continued_fraction_euclid(p, q)


def test_continued_fraction_roundtrip_all_denominators_to_500():
    for q in range(201, 501):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            assert evaluate_continued_fraction(continued_fraction(r)) == r


def test_comparison_exponents_concatenate_to_partial_quotients():
    # Walking the gauss_star orbit records a1 ... a_{m-1}; the terminal
    # integer reciprocal 1/n carries exponent n - 1 and quotient a_m = n.
    for q in range(2, 120):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            recorded = []
            while r.numerator != 1:
                recorded.append(comparison_exponent(r))
                r = gauss_star(r)
            recorded.append(comparison_exponent(r) + 1 if r != 1 else 1)
            cf = continued_fraction(Fraction(p, q))
            assert recorded == cf[1:]


def test_tree_children_examples():
    assert tree_children(Fraction(1)) == (Fraction(1, 2), Fraction(1, 2))
    assert tree_children(Fraction(2, 3)) == (Fraction(2, 5), Fraction(3, 5))
    assert tree_children(Fraction(1, 2)) == (Fraction(1, 3), Fraction(2, 3))


def test_tree_children_round_trip():
    for q in range(2, 201):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            left, right = tree_children(r)
            assert slow_gauss(left) == r
            assert slow_gauss(right) == r
