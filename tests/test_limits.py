import random
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eisenfold.eisenstein import DomainError, continued_fraction_euclid
from eisenfold.flower import cf_face_count, cf_fold_count
from eisenfold.limits import (
    DEFAULT_DEPTH_SCHEDULE,
    UndeterminedError,
    _CHUNK_BITS,
    _agreeing_prefix,
    _convergents,
    _detect_period,
    approximant,
    eta_limit_numeric,
    eta_of_approximant,
    fib_face_count,
    fib_fold_count,
    golden_zeta,
    parse_zeta,
    ratio_scan,
    sqrt_zeta,
)
from eisenfold.surd import QuadraticSurd, periodic_cf_of_surd
from oracles import convergents, evaluate_continued_fraction, lockstep_prefix


FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]


@pytest.mark.parametrize("n, f", [(2, 13), (3, 23), (4, 39), (5, 65), (6, 107)])
def test_fib_fold_count_table(n, f):
    assert fib_fold_count(n) == f


@pytest.mark.parametrize("n, F", [(2, 14), (3, 38), (4, 98), (5, 258), (6, 674)])
def test_fib_face_count_table(n, F):
    assert fib_face_count(n) == F


def test_fib_formulas_match_orbit_formulas_through_n_20():
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    for n in range(2, 21):
        a, b = fib[n - 1], fib[n]
        assert fib_fold_count(n) == cf_fold_count(a, b)
        assert fib_face_count(n) == cf_face_count(a, b)


def test_fib_domain():
    with pytest.raises(DomainError):
        fib_fold_count(1)


def test_parse_zeta():
    assert parse_zeta("golden") == golden_zeta()
    assert parse_zeta("sqrt:2") == QuadraticSurd(Fraction(-1), Fraction(1), 2)
    with pytest.raises(DomainError):
        parse_zeta("sqrt:4")
    with pytest.raises(DomainError):
        parse_zeta("tau")


def test_golden_convergents_are_fibonacci():
    for n, r in enumerate(convergents(golden_zeta(), 10), start=1):
        assert (r.numerator, r.denominator) == (FIB[n - 1], FIB[n])


def test_approximant_depth():
    r = approximant(golden_zeta(), 10 ** 12)
    assert r.denominator >= 10 ** 12
    assert 0 < r < 1


@pytest.mark.parametrize("text", ["golden", "sqrt:2", "sqrt:7", "sqrt:23", "sqrt:89"])
def test_the_walks_fold_is_the_euclid_fold_at_every_convergent(text):
    seen = 0
    for h, k, f in _convergents(periodic_cf_of_surd(parse_zeta(text))):
        if k >= 10 ** 300:
            break
        assert f == cf_fold_count(h, k)
        seen += 1
    assert seen > 400


def test_convergents_and_approximant_keep_working_outside_the_unit_interval():
    root2 = QuadraticSurd(Fraction(0), Fraction(1), 2)
    assert approximant(root2, 10) == Fraction(17, 12)
    assert convergents(root2, 4) == [Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12)]


@pytest.mark.parametrize("zeta", [
    QuadraticSurd(Fraction(1, 2), Fraction(-1), 2),
    QuadraticSurd(Fraction(-1), Fraction(-1), 2),
])
def test_approximant_rejects_a_zeta_at_or_below_zero(monkeypatch, zeta):
    # no convergent of such a zeta is positive, and the walk once stepped
    # forever looking for one; a bounded walk fails here instead of hanging
    import eisenfold.limits as limits

    terms_of = limits._terms
    monkeypatch.setattr(limits, "_terms", lambda e, n: islice(terms_of(e, n), 10_000))
    with pytest.raises(DomainError):
        approximant(zeta, 10)


def _plain_seeks(zeta: QuadraticSurd, targets) -> dict:
    """Oracle: (index, h, k, fold) of the first nonzero convergent with
    k >= m, for each target m, from one pass of single `_convergents` steps."""
    pending = sorted(set(targets))
    want = {}
    for index, (h, k, f) in enumerate(_convergents(periodic_cf_of_surd(zeta))):
        while pending and k >= pending[0]:
            want[pending.pop(0)] = (index, h, k, f)
        if not pending:
            return want


def _assert_jumps_match_plain_steps(monkeypatch, zeta: QuadraticSurd, targets) -> None:
    # a restart happens exactly when the target lies behind the walk
    import eisenfold.limits as limits

    restarts = []
    restart = limits._Walk._restart

    def counted(walk):
        restarts.append(walk)
        restart(walk)

    monkeypatch.setattr(limits._Walk, "_restart", counted)
    want = _plain_seeks(zeta, targets)
    walk = limits._Walk(zeta)
    position = 0
    for m in targets:
        before = len(restarts)
        walk.seek(m)
        index, h, k, f = want[m]
        assert (walk.h, walk.k, walk.fold) == (h, k, f), (zeta, m)
        assert len(restarts) - before == (index < position), (zeta, m)
        position = index


PLAIN_ZETAS = [golden_zeta()] + [sqrt_zeta(n) for n in range(2, 100) if isqrt(n) ** 2 != n]
# outside (0, 1): sqrt(2), and (1 + sqrt 5)/2 with an empty preperiod; and two
# whose preperiod's last term is not the period's, [0; 3, 1, (2)] and
# [0; 5, 1, 1, (1, 2, 3)]
ODD_ZETAS = [
    QuadraticSurd(Fraction(0), Fraction(1), 2),
    QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5),
    QuadraticSurd(Fraction(6, 17), Fraction(-1, 17), 2),
    QuadraticSurd(Fraction(68, 417), Fraction(1, 417), 37),
]


def test_odd_zetas_have_the_expansions_they_are_chosen_for():
    shapes = [(e.preperiod, e.period) for e in map(periodic_cf_of_surd, ODD_ZETAS)]
    assert shapes == [
        ((1,), (2,)), ((), (1,)), ((0, 3, 1), (2,)), ((0, 5, 1, 1), (1, 2, 3))
    ]


def test_jumping_walk_matches_plain_steps_on_the_default_schedule_up_and_down(monkeypatch):
    up = [10 ** d for rung in DEFAULT_DEPTH_SCHEDULE for d in rung]
    for zeta in PLAIN_ZETAS + ODD_ZETAS:
        _assert_jumps_match_plain_steps(monkeypatch, zeta, up)
        _assert_jumps_match_plain_steps(monkeypatch, zeta, up[::-1])


@pytest.mark.parametrize("depths", [
    (400, 500, 40, 60), (60, 40), (40, 60, 40, 60), (500, 400), (30, 20, 20, 30), (200, 150),
    (1, 1, 0, 2, 2, 1600, 1600, 3),
])
@pytest.mark.parametrize(
    "zeta", [golden_zeta(), sqrt_zeta(6), sqrt_zeta(13), sqrt_zeta(19)] + ODD_ZETAS
)
def test_jumping_walk_matches_plain_steps_on_schedule_shapes(monkeypatch, zeta, depths):
    _assert_jumps_match_plain_steps(monkeypatch, zeta, [10 ** d for d in depths])


@pytest.mark.parametrize("seed", range(4))
def test_jumping_walk_matches_plain_steps_at_random_depths(monkeypatch, seed):
    # half the targets sit on a convergent's denominator k or next to it;
    # k + 1 then k puts the second target at the convergent before the walk's
    rng = random.Random(seed)
    for zeta in [golden_zeta(), sqrt_zeta(23), sqrt_zeta(94)] + ODD_ZETAS:
        ks = [k for _, k, _ in islice(_convergents(periodic_cf_of_surd(zeta)), 2000)]
        targets = [[rng.randrange(1, 10 ** rng.randrange(1, 1601))] for _ in range(8)]
        targets += [[max(1, rng.choice(ks) + rng.choice((-1, 0, 1)))] for _ in range(4)]
        targets += [[k + 1, k] for k in rng.sample(ks, 4)]
        rng.shuffle(targets)
        _assert_jumps_match_plain_steps(monkeypatch, zeta, [m for pair in targets for m in pair])


def test_a_seek_single_steps_only_inside_the_last_period(monkeypatch):
    import eisenfold.limits as limits

    steps = []
    convergents = limits._convergents

    def counted(e, at=None):
        for out in convergents(e, at):
            steps.append(out)
            yield out

    monkeypatch.setattr(limits, "_convergents", counted)
    for zeta in PLAIN_ZETAS + ODD_ZETAS:
        e = periodic_cf_of_surd(zeta)
        walk = limits._Walk(zeta)
        for d in (1600, 40, 1200, 1500, 1500, 600):
            steps.clear()
            walk.seek(10 ** d)
            # to the end of the preperiod and one full period (after a
            # restart) or of this period, then inside the last period
            assert len(steps) <= len(e.preperiod) + 2 * len(e.period), (zeta, d)


@pytest.mark.parametrize("zeta", [
    QuadraticSurd(Fraction(0), Fraction(1), 2),  # sqrt(2) > 1 failed partway through
    QuadraticSurd(Fraction(-1), Fraction(-1), 2),
    QuadraticSurd(Fraction(1, 2), Fraction(0), 1),
])
def test_ratio_scan_needs_a_quadratic_irrational_in_the_unit_interval(zeta):
    with pytest.raises(DomainError):
        ratio_scan(zeta, 3)


def test_eta_limit_takes_each_approximant_from_approximant(monkeypatch):
    # the benchmark's tracer times limits.approximant by rebinding the name
    import eisenfold.limits as limits

    calls = []

    def counted(zeta, min_denominator, walk=None):
        calls.append(min_denominator)
        return approximant(zeta, min_denominator, walk)

    monkeypatch.setattr(limits, "approximant", counted)
    eta_limit_numeric(golden_zeta(), ((40, 60),))
    assert calls == [10 ** 40, 10 ** 60]


def _common_prefix(xs: list[int], ys: list[int]) -> list[int]:
    m = 0
    while m < min(len(xs), len(ys)) and xs[m] == ys[m]:
        m += 1
    return xs[:m]


CF_TAIL = st.lists(st.one_of(st.integers(1, 4), st.integers(1, 10 ** 20)), max_size=8)


@settings(max_examples=400, deadline=None)
@given(head=st.integers(0, 5), common=CF_TAIL, tail1=CF_TAIL, tail2=CF_TAIL, equal=st.booleans())
def test_lockstep_prefix_is_the_common_prefix_of_the_full_expansions(head, common, tail1, tail2, equal):
    # equal pairs, one expansion a prefix of the other (an empty tail),
    # integers (head alone) and a last quotient of 1 all arise
    if equal:
        tail2 = tail1
    x = evaluate_continued_fraction([head] + common + tail1)
    y = evaluate_continued_fraction([head] + common + tail2)
    assume(x > 0 and y > 0)
    full = [continued_fraction_euclid(v.numerator, v.denominator) for v in (x, y)]
    pairs = [(v.numerator, v.denominator) for v in (x, y)]
    assert _agreeing_prefix(*pairs) == _common_prefix(*full)


@pytest.mark.parametrize("x, y, prefix", [
    ((3, 1), (3, 1), [3]),
    ((3, 1), (4, 1), []),
    ((3, 1), (7, 2), [3]),
    ((10, 7), (10, 7), [1, 2, 3]),
    ((3, 2), (10, 7), [1, 2]),
    ((16, 11), (21, 16), [1]),  # [1; 2, 5] and [1; 3, 5]
])
def test_lockstep_prefix_examples(x, y, prefix):
    assert _agreeing_prefix(x, y) == _agreeing_prefix(y, x) == prefix


@settings(max_examples=300, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
    y=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
    g=st.integers(1, 10 ** 30),
    h=st.integers(1, 10 ** 30),
)
def test_lockstep_prefix_of_unreduced_pairs(x, y, g, h):
    # eta_limit_numeric expands (f^2, F) without dividing out their gcd
    p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    assert _agreeing_prefix((g * p, g * q), (h * r, h * s)) == _agreeing_prefix((p, q), (r, s))
    assert _agreeing_prefix((g * p, g * q), (p, q)) == continued_fraction_euclid(p, q)


def _continuants(terms: list[int]) -> tuple[int, int]:
    """[t0; t1, ..., tn] as the coprime pair (h, k) of its continuants."""
    h, h1, k, k1 = 1, 0, 0, 1
    for t in terms:
        h, h1, k, k1 = t * h + h1, h, t * k + k1, k
    return h, k


def _random_terms(rng: random.Random, n: int, wide: float) -> list[int]:
    """n partial quotients, mostly small, a share `wide` of them wider than
    a chunk, the rest up to 10^6."""
    out = []
    for _ in range(n):
        u = rng.random()
        if u < wide:
            out.append(rng.getrandbits(rng.randint(_CHUNK_BITS + 1, 4 * _CHUNK_BITS)) | 1)
        elif u < 0.97:
            out.append(rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 7, 12)))
        else:
            out.append(rng.randint(1, 10 ** 6))
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32),
    common=st.integers(400, 3000),
    tails=st.tuples(st.integers(0, 60), st.integers(0, 60)),
    wide=st.sampled_from([0.0, 0.01, 0.1]),
    relation=st.sampled_from(["diverging", "convergent", "equal"]),
    scales=st.tuples(st.sampled_from([0, 1, 600, 3000]), st.sampled_from([0, 1, 600, 3000])),
)
def test_chunked_prefix_matches_the_lockstep_oracle_on_wide_pairs(seed, common, tails, wide, relation, scales):
    # thousands of bits, so the certified chunks carry most of the prefix:
    # a long shared prefix with diverging tails, quotients wider than a
    # chunk, one number a convergent of the other, x == y, and pairs
    # (g*p, g*q) scaled by a g of up to 3000 bits
    rng = random.Random(seed)
    head = [rng.randint(0, 3)] + _random_terms(rng, common, wide)
    tail1 = _random_terms(rng, tails[0], wide)
    tail2 = {"diverging": _random_terms(rng, tails[1], wide), "convergent": [], "equal": tail1}[relation]
    x, y = _continuants(head + tail1), _continuants(head + tail2)
    assume(x[0] > 0 and y[0] > 0)
    g, h = (rng.getrandbits(bits) | 1 << bits for bits in scales)
    x, y = (g * x[0], g * x[1]), (h * y[0], h * y[1])
    want = lockstep_prefix(x, y)
    assert _agreeing_prefix(x, y) == want
    assert _agreeing_prefix(y, x) == want


def _count_chunked_terms(monkeypatch) -> list[int]:
    """A list whose last entry each certified chunk from now on adds its
    terms to; append a 0 to start a new count."""
    import eisenfold.limits as limits

    chunked = [0]
    certified_terms = limits._certified_terms

    def counted(p, q, r, s):
        terms, matrix = certified_terms(p, q, r, s)
        chunked[-1] += len(terms)
        return terms, matrix

    monkeypatch.setattr(limits, "_certified_terms", counted)
    return chunked


def test_a_quotient_wider_than_a_chunk_costs_two_exact_steps(monkeypatch):
    # the chunks stop at the term before the wide one, since x lies within
    # 2^-1000 of that term's convergent; one exact step takes each of the
    # two, and the chunks go on to where the tails part.  Were the rest
    # left to exact Euclid, it would take a thousand terms.
    chunked = _count_chunked_terms(monkeypatch)
    head = [0] + [1, 2] * 500 + [2 ** 1000 + 1] + [3, 1] * 500
    x = _continuants(head + [1] + [2, 1] * 500)
    y = _continuants(head + [2] + [1, 2] * 500)
    prefix = _agreeing_prefix(x, y)
    assert prefix == head == lockstep_prefix(x, y)
    assert len(prefix) - chunked[-1] == 2


def _record_prefix_calls(monkeypatch, zetas) -> list[tuple]:
    """Every (x, y, prefix, chunked) of the `_agreeing_prefix` calls that
    eta_limit_numeric makes on the zetas under the default schedule, where
    chunked counts the terms that certified chunks gave."""
    import eisenfold.limits as limits

    calls = []
    chunked = _count_chunked_terms(monkeypatch)
    agreeing_prefix = limits._agreeing_prefix

    def recorded(x, y):
        chunked.append(0)
        prefix = agreeing_prefix(x, y)
        calls.append((x, y, prefix[:], chunked[-1]))  # the caller trims its list
        return prefix

    monkeypatch.setattr(limits, "_agreeing_prefix", recorded)
    for zeta in zetas:
        try:
            eta_limit_numeric(zeta)
        except UndeterminedError:
            pass
    return calls


def test_every_prefix_of_the_default_schedule_matches_the_lockstep_oracle(monkeypatch):
    calls = _record_prefix_calls(monkeypatch, PLAIN_ZETAS)
    assert len(calls) > 300
    for x, y, prefix, _ in calls:
        assert prefix == lockstep_prefix(x, y)
    # the chunks give most of the terms
    assert sum(c for *_, c in calls) > 0.9 * sum(len(prefix) for _, _, prefix, _ in calls)


# sqrt:19 is undetermined under the default schedule, so it expands all
# four rungs.  Per rung: the shared terms that exact Euclid on the full
# numbers found (one-step fallbacks and the finish below 2 * _CHUNK_BITS
# bits), and the terms that certified chunks gave.  The first rung's eta
# have under 300 bits, so exact Euclid takes all of it; on the deeper
# ones only the step that finds the first differing term is exact.
SQRT19_EXACT_AND_CHUNKED = [(37, 0), (0, 132), (0, 369), (0, 1150)]


def test_exact_euclid_takes_no_shared_term_of_a_deep_sqrt19_rung(monkeypatch):
    calls = _record_prefix_calls(monkeypatch, [sqrt_zeta(19)])
    counts = [(len(prefix) - chunked, chunked) for _, _, prefix, chunked in calls]
    assert counts == SQRT19_EXACT_AND_CHUNKED


@pytest.mark.parametrize("schedule", [((150, 150),), ((40, 60), (150, 150))])
def test_eta_limit_rejects_a_rung_with_equal_depths(monkeypatch, schedule):
    # checked before any rung is computed
    import eisenfold.limits as limits

    monkeypatch.setattr(limits, "approximant", None)
    with pytest.raises(DomainError):
        eta_limit_numeric(sqrt_zeta(6), schedule)


def test_eta_limit_skips_a_rung_whose_depths_pick_one_approximant(monkeypatch):
    # 10^49 and 10^50 select one convergent of sqrt(80); the whole
    # expansion of its eta then passed every check as a wrong "exact" limit
    import eisenfold.limits as limits

    zeta = sqrt_zeta(80)
    assert approximant(zeta, 10 ** 49) == approximant(zeta, 10 ** 50)
    expanded = []
    agreeing_prefix = limits._agreeing_prefix

    def spy(x, y):
        expanded.append((x, y))
        return agreeing_prefix(x, y)

    monkeypatch.setattr(limits, "_agreeing_prefix", spy)
    with pytest.raises(UndeterminedError):
        eta_limit_numeric(zeta, ((49, 50),))
    assert expanded == []


def test_eta_limit_goes_on_past_a_skipped_rung():
    zeta = sqrt_zeta(40)
    assert approximant(zeta, 10 ** 40) == approximant(zeta, 10 ** 41)
    res = eta_limit_numeric(zeta, ((40, 41), (400, 500)))
    assert res.depths_used == (400, 500)
    assert res.surd == QuadraticSurd(Fraction(18965, 402), Fraction(-190, 201), 10)


# recorded before the depths of a limit shared one walk over the convergents;
# a rung that goes down, or repeats, walks back to a shallower convergent
SCHEDULE_PINS = {
    ("sqrt:13", "400,500;40,60"): ((400, 500), 361, (Fraction(5897, 405), Fraction(757, 405), 13)),
    ("sqrt:13", "60,40"): None,
    ("sqrt:13", "40,60;40,60"): None,
    ("sqrt:13", "500,400"): ((500, 400), 361, (Fraction(5897, 405), Fraction(757, 405), 13)),
    ("sqrt:19", "400,500;40,60"): None,
    ("sqrt:19", "60,40"): None,
    ("sqrt:19", "40,60;40,60"): None,
    ("golden", "60,40"): ((60, 40), 27, (Fraction(9), Fraction(4), 5)),
    ("golden", "30,20;20,30"): ((30, 20), 11, (Fraction(9), Fraction(4), 5)),
    ("sqrt:6", "40,60;40,60"): ((40, 60), 34, (Fraction(27, 2), Fraction(9, 2), 6)),
    ("sqrt:6", "200,150"): ((200, 150), 145, (Fraction(27, 2), Fraction(9, 2), 6)),
}


@pytest.mark.parametrize("text, depths", sorted(SCHEDULE_PINS))
def test_eta_limit_schedule_pins(text, depths):
    schedule = tuple(tuple(int(d) for d in rung.split(",")) for rung in depths.split(";"))
    pin = SCHEDULE_PINS[text, depths]
    if pin is None:
        with pytest.raises(UndeterminedError):
            eta_limit_numeric(parse_zeta(text), schedule)
        return
    res = eta_limit_numeric(parse_zeta(text), schedule)
    assert (res.depths_used, res.prefix_length, (res.surd.r, res.surd.s, res.surd.d)) == pin


def test_eta_of_approximant_guards():
    # cf_eta holds the rule: a pair is taken iff it is reduced with 1 <= p <= q
    for p in range(-2, 8):
        for q in range(-2, 8):
            if gcd(p, q) == 1 and 1 <= p <= q:
                f = cf_fold_count(p, q)
                assert eta_of_approximant(p, q) == Fraction(f * f, cf_face_count(p, q))
            else:
                with pytest.raises(DomainError):
                    eta_of_approximant(p, q)


def test_eta_limit_golden_is_phi_sixth():
    res = eta_limit_numeric(golden_zeta())
    assert res.surd == QuadraticSurd(Fraction(9), Fraction(4), 5)
    assert res.depths_used == (40, 60)


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, (Fraction(75, 7), Fraction(53, 7), 2)),
        (3, (Fraction(132, 13), Fraction(72, 13), 3)),
        (5, (Fraction(321, 19), Fraction(137, 19), 5)),
        (6, (Fraction(27, 2), Fraction(9, 2), 6)),
        (7, (Fraction(3100, 259), Fraction(856, 259), 7)),
        (8, (Fraction(1569, 98), Fraction(370, 49), 2)),
    ],
)
def test_eta_limit_sqrt_family(n, expected):
    res = eta_limit_numeric(sqrt_zeta(n))
    r, s, d = expected
    assert res.surd == QuadraticSurd(r, s, d)
    assert res.surd.d == res.zeta.d  # limit lies in Q(zeta)


def test_eta_limit_undetermined_when_schedule_too_shallow():
    with pytest.raises(UndeterminedError):
        eta_limit_numeric(sqrt_zeta(7), depth_schedule=((40, 60),))


# A custom schedule can be fooled.  At each rung below the trimmed common
# prefix ends in three or more 1s, so the period (1) passes the three-repeat
# rule, reconstructs inside Q(sqrt 5) and regenerates the prefix.  The
# default schedule finds the true limit of both, as `LIMIT_PINS` records.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="a prefix ending in a run of 1s passes as period (1)"
)
@pytest.mark.parametrize("text, schedule, limit", [
    ("sqrt:5", ((35, 40),), (Fraction(321, 19), Fraction(137, 19), 5)),
    ("sqrt:20", ((17, 18),), (Fraction(3009, 109), Fraction(355, 109), 5)),
])
def test_eta_limit_under_custom_depths_is_undetermined_or_true(text, schedule, limit):
    try:
        res = eta_limit_numeric(parse_zeta(text), schedule)
    except UndeterminedError:
        return
    assert res.surd == QuadraticSurd(*limit)


def test_eta_limit_rejects_rationals():
    with pytest.raises(DomainError):
        eta_limit_numeric(QuadraticSurd(Fraction(1, 2), Fraction(0), 1))


def test_ratio_scan_golden_rows():
    rows = ratio_scan(golden_zeta(), 12)
    by_n = {row.n: row for row in rows}
    assert (by_n[2].p, by_n[2].q, by_n[2].fold, by_n[2].faces) == (1, 2, 13, 14)
    assert (by_n[6].fold, by_n[6].faces) == (107, 674)
    ratios = [by_n[n].fold_ratio for n in range(2, 13)]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < Fraction(5, 100)


def test_ratio_scan_phi6_normalized_column():
    # high-precision phi^-6 = 9 - 4*sqrt(5)
    scale = 10 ** 30
    sqrt5 = Fraction(isqrt(5 * scale * scale), scale)
    phi_minus_6 = 9 - 4 * sqrt5
    rows = {row.n: row for row in ratio_scan(golden_zeta(), 6)}
    normalized = {n: float(rows[n].eta_ratio * phi_minus_6) for n in range(2, 7)}
    assert abs(normalized[2] - 0.672718) < 5e-7
    assert abs(normalized[4] - 0.864923) < 5e-7
    assert abs(normalized[5] - 0.912601) < 5e-7
    assert abs(normalized[6] - 0.946633) < 5e-7
    # the n = 3 entry is forced by f = 23, F = 38 to be 0.775794 (6 dp)
    assert abs(normalized[3] - 0.775794) < 5e-7


def test_fold_count_tracks_phi_power_asymptotics():
    # f_n^2 / ((4/5) phi^(2n+8)) stays within [1/2, 2]
    phi = (1 + 5 ** 0.5) / 2
    for n in range(2, 21):
        f = fib_fold_count(n)
        target = 0.8 * phi ** (2 * n + 8)
        assert 0.5 <= f * f / target <= 2.0


def test_eta_limit_monotone_convergence_evidence():
    for zeta in (golden_zeta(), sqrt_zeta(2), sqrt_zeta(6)):
        limit = eta_limit_numeric(zeta).surd
        errors = []
        for r in convergents(zeta, 16)[-5:]:
            e = eta_of_approximant(r.numerator, r.denominator)
            errors.append(abs(QuadraticSurd(e, Fraction(0), 1) - limit))
        assert all(x > y for x, y in zip(errors, errors[1:]))


# depths_used, prefix_length and the surd (r, s, d) of every determined limit,
# None where the default schedule reports it undetermined
LIMIT_PINS = {
    "golden": ((40, 60), 27, (Fraction(9), Fraction(4), 5)),
    "sqrt:2": ((150, 200), 135, (Fraction(75, 7), Fraction(53, 7), 2)),
    "sqrt:3": ((150, 200), 156, (Fraction(132, 13), Fraction(72, 13), 3)),
    "sqrt:5": ((150, 200), 113, (Fraction(321, 19), Fraction(137, 19), 5)),
    "sqrt:6": ((40, 60), 34, (Fraction(27, 2), Fraction(9, 2), 6)),
    "sqrt:7": ((1200, 1500), 1169, (Fraction(3100, 259), Fraction(856, 259), 7)),
    "sqrt:8": ((1200, 1500), 1191, (Fraction(1569, 98), Fraction(370, 49), 2)),
    "sqrt:10": ((150, 200), 123, (Fraction(1051, 39), Fraction(277, 39), 10)),
    "sqrt:11": ((400, 500), 323, (Fraction(940, 49), Fraction(174, 49), 11)),
    "sqrt:12": None,
    "sqrt:13": ((400, 500), 361, (Fraction(5897, 405), Fraction(757, 405), 13)),
    "sqrt:14": None,
    "sqrt:15": ((1200, 1500), 1153, (Fraction(8128, 327), Fraction(896, 327), 15)),
    "sqrt:17": ((1200, 1500), 1096, (Fraction(2745, 67), Fraction(473, 67), 17)),
    "sqrt:18": None,
    "sqrt:19": None,
    "sqrt:20": ((400, 500), 423, (Fraction(3009, 109), Fraction(355, 109), 5)),
    "sqrt:21": None,
    "sqrt:22": None,
    "sqrt:23": ((1200, 1500), 1305, (Fraction(576, 23), Fraction(10, 23), 23)),
    "sqrt:24": None,
    "sqrt:26": ((400, 500), 300, (Fraction(6075, 103), Fraction(725, 103), 26)),
    "sqrt:27": ((150, 200), 156, (Fraction(492, 13), Fraction(72, 13), 3)),
    "sqrt:28": ((400, 500), 381, (Fraction(542, 19), Fraction(-276, 931), 7)),
    "sqrt:29": None,
    "sqrt:30": ((1200, 1500), 1081, (Fraction(3633, 95), Fraction(51, 95), 30)),
    "sqrt:31": None,
    "sqrt:32": None,
    "sqrt:33": None,
    "sqrt:34": None,
    "sqrt:35": ((1200, 1500), 1203, (Fraction(10908, 215), Fraction(1672, 1505), 35)),
    "sqrt:37": ((400, 500), 397, (Fraction(11905, 147), Fraction(1033, 147), 37)),
    "sqrt:38": ((1200, 1500), 1091, (Fraction(16589, 326), Fraction(339, 326), 38)),
    "sqrt:39": ((1200, 1500), 1021, (Fraction(25445, 543), Fraction(-74, 543), 39)),
    "sqrt:40": ((400, 500), 398, (Fraction(18965, 402), Fraction(-190, 201), 10)),
}


def test_limit_pins_cover_golden_and_every_non_square_below_41():
    assert set(LIMIT_PINS) == {"golden"} | {
        f"sqrt:{n}" for n in range(2, 41) if isqrt(n) ** 2 != n
    }


@pytest.mark.parametrize("text", sorted(LIMIT_PINS))
def test_eta_limit_pins(text):
    pin = LIMIT_PINS[text]
    if pin is None:
        with pytest.raises(UndeterminedError):
            eta_limit_numeric(parse_zeta(text))
        return
    res = eta_limit_numeric(parse_zeta(text))
    assert (res.depths_used, res.prefix_length, (res.surd.r, res.surd.s, res.surd.d)) == pin


def smallest_shift_period(seq) -> int:
    """Oracle: smallest p with seq[i] == seq[i+p] wherever defined (KMP border)."""
    n = len(seq)
    if n == 0:
        return 0
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = pi[k - 1]
        if seq[i] == seq[k]:
            k += 1
        pi[i] = k
    return n - pi[-1]


def detect_period_per_start(terms: list[int]):
    """Oracle: one KMP pass per candidate start."""
    n = len(terms)
    for start in range(n - 2):
        suffix = terms[start:]
        p = smallest_shift_period(suffix)
        if p and len(suffix) >= 3 * p:
            return start, suffix[:p]
    return None


@settings(max_examples=300, deadline=None)
@given(
    preperiod=st.lists(st.integers(1, 3), max_size=12),
    period=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    repeats=st.integers(0, 5),
    partial=st.integers(0, 5),
)
def test_one_pass_period_detection_matches_the_per_start_oracle(preperiod, period, repeats, partial):
    terms = preperiod + period * repeats + period[: partial % len(period)]
    assert _detect_period(terms) == detect_period_per_start(terms)


def test_period_detection_edge_cases():
    assert _detect_period([]) is None
    assert _detect_period([1, 2]) is None
    assert _detect_period([7, 7, 7]) == (0, [7])
    assert _detect_period([5, 1, 2, 1, 2, 1, 2]) == (1, [1, 2])
