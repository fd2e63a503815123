import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from eisenfold.coloring import paint_from_flower
from eisenfold.eisenstein import EisensteinInt, DomainError
from eisenfold.flower import (
    BLACK,
    WHITE,
    capped_flower,
    cf_face_count,
    cf_fold_count,
    empty_flower,
    fill_and_cap,
    necklace,
    necklace_gamma,
)
from eisenfold.limits import approximant, parse_zeta
from eisenfold.surface import DOWN, UP, build_complex
from oracles import (
    PlaneTriangleId,
    check_necklace,
    check_nesting,
    color_at,
    continued_fraction,
    per_run_fold_count,
    stripe_counts,
    tile_regions,
    triangle_count,
)


def _pairs(points):
    return {(p.a, p.b) for p in points}


def test_necklace_model_vertices_3_5():
    n = necklace(Fraction(3, 5))
    assert _pairs(n.trapezoids[0].corners()) == {(3, 5), (-2, 5), (1, 2), (3, 2)}


def test_necklace_degenerate_1_1():
    n = necklace(Fraction(1, 1))
    assert _pairs(n.trapezoids[0].corners()) == {(1, 1), (0, 1), (1, 0)}


def _rotated(z: EisensteinInt, k: int) -> EisensteinInt:
    for _ in range(k % 6):
        z = EisensteinInt(0, 1) * z
    return z


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (3, 5), (3, 7), (5, 13)])
def test_adjacent_trapezoids_meet_at_the_formula_point(a, b):
    # slots k and k + 1 meet at alpha^k (a - b + b alpha); the mirrored
    # necklace is the conjugate of the unmirrored one, so its slots k and
    # k + 1 meet at the conjugate of the point where slots -k - 1 and -k do
    p = EisensteinInt(a - b, b)
    for mirrored in (False, True):
        n = necklace(Fraction(a, b), mirrored)
        for k in range(6):
            v1 = set(n.trapezoids[k].corners())
            v2 = set(n.trapezoids[(k + 1) % 6].corners())
            if mirrored:
                q = _rotated(p, -k - 1)
                meet = EisensteinInt(q.a + q.b, -q.b)
            else:
                meet = _rotated(p, k)
            assert v1 & v2 == {meet}, (mirrored, k)


def test_necklace_gamma_aspects():
    n = necklace(Fraction(3, 5))
    assert necklace_gamma(n).aspect == Fraction(2, 3)
    n = necklace(Fraction(3, 7))
    assert necklace_gamma(n).aspect == Fraction(3, 4)
    n = necklace(Fraction(1, 2))
    assert necklace_gamma(n).aspect == Fraction(1, 1)


def test_necklace_gamma_rejects_floor():
    with pytest.raises(DomainError):
        necklace_gamma(necklace(Fraction(1, 1)))


def test_necklace_gamma_chain_verifies_incidences_broadly():
    # the oracles raise if a necklace's or a nesting's incidences fail
    for b in range(1, 41):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            chain = necklace(Fraction(a, b))
            check_necklace(chain)
            while chain.aspect != 1:
                child = necklace_gamma(chain)
                check_necklace(child)
                check_nesting(chain, child)
                chain = child


# Each (beta, level) flips the chirality of one level below the outermost.
# Every flip but the innermost breaks the nesting and the tile partition;
# both chiralities of the 1/1 necklace cover the same six triangles.
CHIRALITY_FLOWERS = [(1, 2), (1, 4), (2, 3), (3, 5), (3, 7), (4, 9), (5, 13), (8, 13)]


@pytest.mark.parametrize("a, b", CHIRALITY_FLOWERS)
def test_wrong_chirality_child_is_rejected_below_the_innermost_level(a, b):
    beta = EisensteinInt(a, b)
    c = build_complex(beta)
    flower = empty_flower(Fraction(a, b))
    colors = paint_from_flower(fill_and_cap(flower, beta), c).colors
    for i in range(1, len(flower)):
        n, color = flower[i]
        flipped = necklace(n.aspect, not n.mirrored)
        mutant = flower[:i] + [(flipped, color)] + flower[i + 1:]
        if i < len(flower) - 1:
            with pytest.raises(AssertionError):
                check_nesting(flower[i - 1][0], flipped)
            with pytest.raises(AssertionError):
                paint_from_flower(fill_and_cap(mutant, beta), c)
        else:
            check_nesting(flower[i - 1][0], flipped)
            assert paint_from_flower(fill_and_cap(mutant, beta), c).colors == colors


def test_aspect_functoriality_b_le_100():
    from eisenfold.eisenstein import slow_gauss

    for b in range(2, 101):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            x = necklace(Fraction(a, b))
            assert necklace_gamma(x).aspect == slow_gauss(x.aspect)


@pytest.mark.parametrize("aspect", [0.5, Fraction(3, 2), Fraction(0)])
@pytest.mark.parametrize("build", [necklace, empty_flower], ids=["necklace", "empty_flower"])
def test_aspect_outside_the_rule_is_a_domain_error(build, aspect):
    # necklace holds the rule, a Fraction in (0, 1]; empty_flower and (see
    # test_render.py) render_flower_svg reach it through necklace
    with pytest.raises(DomainError, match="aspect must be a Fraction in"):
        build(aspect)


@pytest.mark.parametrize(
    "aspect, levels",
    [(Fraction(3, 5), 4), (Fraction(1, 1), 1), (Fraction(3, 7), 5)],
)
def test_empty_flower_levels(aspect, levels):
    ef = empty_flower(aspect)
    assert len(ef) == levels
    assert ef[-1][0].aspect == 1
    assert ef[-1][1] == WHITE
    colors = [c for _, c in ef]
    assert all(c1 != c2 for c1, c2 in zip(colors, colors[1:]))


def test_fill_and_cap_triangle_counts():
    cf = capped_flower(EisensteinInt(3, 5))
    assert triangle_count(tile_regions(cf)) == 294
    assert triangle_count(cf.regions()) == 98
    cf = capped_flower(EisensteinInt(1, 1))
    assert triangle_count(tile_regions(cf)) == 18
    assert triangle_count(cf.regions()) == 6


def test_fill_and_cap_rejects_bad_beta():
    with pytest.raises(DomainError):
        capped_flower(EisensteinInt(2, 4))
    with pytest.raises(DomainError):
        capped_flower(EisensteinInt(0, 1))
    with pytest.raises(DomainError):
        fill_and_cap(empty_flower(Fraction(2, 3)), EisensteinInt(3, 5))
    for beta in [(1, 0), (0, 0), (-2, -3), (3, 2), (2, -3)]:
        with pytest.raises(DomainError):
            capped_flower(EisensteinInt(*beta))


def test_cap_color_opposite_outer_necklace():
    for beta in [(1, 2), (2, 3), (3, 7), (1, 1)]:
        cf = capped_flower(EisensteinInt(*beta))
        assert cf.cap_color == 1 - cf.necklace_colors[0]


def test_area_audit_all_primitive_b_le_34():
    for b in range(1, 35):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            # necklaces, the six central triangles and the caps tile the hexagon
            cf = capped_flower(EisensteinInt(a, b))
            total = 0
            for n in cf.necklaces:
                p, q = n.aspect.numerator, n.aspect.denominator
                total += 6 * (q * q - (q - p) ** 2)
            assert total + 6 + 6 * a * b == 6 * cf.beta.norm() == triangle_count(tile_regions(cf))
            # one rotation class of the tile: F = 2 norm(beta) triangles
            assert triangle_count(cf.regions()) == cf_face_count(a, b)


def test_fill_triangles_alternate_around_origin():
    cf = capped_flower(EisensteinInt(2, 3))
    star = [
        PlaneTriangleId(EisensteinInt(0, 0), UP),
        PlaneTriangleId(EisensteinInt(-1, 0), DOWN),
        PlaneTriangleId(EisensteinInt(-1, 0), UP),
        PlaneTriangleId(EisensteinInt(-1, -1), DOWN),
        PlaneTriangleId(EisensteinInt(0, -1), UP),
        PlaneTriangleId(EisensteinInt(0, -1), DOWN),
    ]
    cols = [color_at(cf, t) for t in star]
    assert cols.count(BLACK) == 3 and cols.count(WHITE) == 3
    assert all(c1 != c2 for c1, c2 in zip(cols, cols[1:] + cols[:1]))


def test_color_at_invariant_under_symmetry_generators():
    rng = random.Random(7)
    om = EisensteinInt(-1, 1)
    for beta in [(2, 3), (1, 4), (3, 7)]:
        cf = capped_flower(EisensteinInt(*beta))
        delta = EisensteinInt(2, -1) * EisensteinInt(*beta)
        for _ in range(400):
            z = EisensteinInt(rng.randint(-30, 30), rng.randint(-30, 30))
            o = rng.choice((UP, DOWN))
            t = PlaneTriangleId(z, o)
            c = color_at(cf, t)
            # translation by delta
            assert color_at(cf, PlaneTriangleId(z + delta, o)) == c
            # rotation by alpha^2 about 0
            za = om * z
            rot = (
                PlaneTriangleId(za - EisensteinInt(1, 0), UP)
                if o == UP
                else PlaneTriangleId(za - EisensteinInt(2, 0), DOWN)
            )
            assert color_at(cf, rot) == c
            # rotation about beta: conjugate of the rotation about 0
            zb = om * (z - EisensteinInt(*beta)) + EisensteinInt(*beta)
            rot_b = (
                PlaneTriangleId(zb - EisensteinInt(1, 0), UP)
                if o == UP
                else PlaneTriangleId(zb - EisensteinInt(2, 0), DOWN)
            )
            assert color_at(cf, rot_b) == c


def test_color_at_is_not_six_fold_symmetric():
    cf = capped_flower(EisensteinInt(2, 3))
    al = EisensteinInt(0, 1)
    diffs = 0
    for z in [EisensteinInt(0, 0), EisensteinInt(1, 0), EisensteinInt(-1, 1)]:
        for o in (UP, DOWN):
            t = PlaneTriangleId(z, o)
            za = al * z
            rot = (
                PlaneTriangleId(za - EisensteinInt(1, 0), DOWN)
                if o == UP
                else PlaneTriangleId(za + al - EisensteinInt(1, 0), UP)
            )
            # a 60-degree rotation flips triangle orientation class; the
            # image of Up(z) is the down triangle with vertex set alpha*{...}
            if color_at(cf, t) != color_at(cf, rot):
                diffs += 1
    assert diffs > 0


@pytest.mark.parametrize(
    "a, b, expected",
    [(3, 7, [2, 3]), (1, 2, [2]), (3, 5, [1, 1, 2])],
)
def test_stripe_counts_examples(a, b, expected):
    assert stripe_counts(capped_flower(EisensteinInt(a, b))) == expected


def test_stripe_counts_equal_continued_fraction_b_le_60():
    for b in range(1, 61):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            cf = capped_flower(EisensteinInt(a, b))
            quotients = continued_fraction(Fraction(a, b))
            if (a, b) == (1, 1):
                assert stripe_counts(cf) == [1] and quotients == [1]
            else:
                assert stripe_counts(cf) == quotients[1:]


def gamma_orbit_pairs(a: int, b: int) -> list[tuple[int, int]]:
    """Oracle: the slow-Gauss orbit of a/b down to (1, 1), one subtraction a step."""
    if gcd(a, b) != 1 or not (1 <= a <= b):
        raise DomainError(f"need reduced 1 <= a <= b, got ({a}, {b})")
    out = [(a, b)]
    while (a, b) != (1, 1):
        if 2 * a > b:
            a, b = b - a, a
        else:
            b = b - a
        out.append((a, b))
    return out


def _orbit_fold_count(a: int, b: int) -> int:
    return 3 + 2 * sum(x + y for (x, y) in gamma_orbit_pairs(a, b))


def test_cf_fold_count_matches_the_orbit_sum_through_b_300():
    for b in range(1, 301):
        for a in range(1, b + 1):
            if gcd(a, b) == 1:
                f = cf_fold_count(a, b)
                assert f == _orbit_fold_count(a, b) == per_run_fold_count(a, b), (a, b)


@pytest.mark.parametrize("digits", [40, 400])
def test_cf_fold_count_matches_the_orbit_sum_on_long_pairs(digits):
    rng = random.Random(digits)
    pairs = 0
    while pairs < 200:
        a, b = sorted(rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(2))
        if gcd(a, b) != 1:
            continue
        assert cf_fold_count(a, b) == _orbit_fold_count(a, b), (a, b)
        pairs += 1


@pytest.mark.parametrize("digits", [1200, 1500])
@pytest.mark.parametrize("zeta", ["golden", "sqrt:2", "sqrt:7", "sqrt:23", "sqrt:89"])
def test_cf_fold_count_matches_the_per_run_sum_at_deep_convergents(zeta, digits):
    r = approximant(parse_zeta(zeta), 10 ** digits)
    a, b = r.numerator, r.denominator
    assert cf_fold_count(a, b) == per_run_fold_count(a, b)


@pytest.mark.parametrize("a, b", [(2, 4), (3, 2), (0, 1), (0, 0), (-1, 2), (6, 9)])
def test_cf_fold_count_rejects_unreduced_pairs(a, b):
    with pytest.raises(DomainError):
        cf_fold_count(a, b)


def test_gamma_orbit_pairs_and_formulas():
    assert gamma_orbit_pairs(3, 5) == [(3, 5), (2, 3), (1, 2), (1, 1)]
    assert cf_fold_count(1, 2) == 13
    assert cf_fold_count(2, 3) == 23
    assert cf_fold_count(8, 13) == 107
    assert cf_face_count(3, 5) == 98


# sha256 of repr(list(tile_regions(capped_flower(beta)))), recorded while
# the flower still stored each level's quads a second time and its regions
# were the whole tile
REGIONS_PINS = {
    (1, 1): "8058eb54ac55fc2a093801a3650b9ff9bdc4e69d730256ed7add154537a03dae",
    (1, 2): "a5ae7bf94a53a3663dcd5fb249ec80f837a28a5e411a5217685abf5bbf1cecb5",
    (2, 3): "bb8a0d1ac13810876f6439158962587643485a9b2798a25a69f87f6f0a4f69cd",
    (3, 7): "eea26cedbb1c3dd0a6406283a232840de6c6d670fe636a29908b8b0a2b8f247b",
    (5, 13): "d1c7a27b786f73ab9b23020cfc0480a58bd2202ba89ef43f5c46f8c63619dd19",
    (8, 13): "e055e03e4b6493628a54f886aded4f46a592960574ea613ce3c05eeb4df85efa",
    (1, 29): "648f5ee6eb4525e926993faad7a763ec876c5e3a71e6629dd5e678db08667e6c",
    (21, 34): "fa8732624470f1e14b8228ac1d51893e5b452172183874f576bc7c7435033c01",
}


@pytest.mark.parametrize("beta", sorted(REGIONS_PINS))
def test_regions_are_pinned(beta):
    regions = repr(list(tile_regions(capped_flower(EisensteinInt(*beta)))))
    assert hashlib.sha256(regions.encode()).hexdigest() == REGIONS_PINS[beta]


def test_regions_sequence_is_pinned_for_every_primitive_beta_b_le_60():
    # one digest over the region sequences of every primitive 1 <= a <= b <= 60,
    # in (b, a) order, each with colors kept and inverted
    h = hashlib.sha256()
    for b in range(1, 61):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            cf = capped_flower(EisensteinInt(a, b))
            for swap in (False, True):
                h.update(repr(list(tile_regions(cf, swap))).encode())
    assert h.hexdigest() == "5f32f69af0c3cf19228a4f86312a3773e07048c366323b522714cc33c897f535"


def test_cap_parallelograms_merge_across_hull_edges():
    # each cap region plus its neighbor's mirror image forms a lattice
    # parallelogram symmetric about the shared hull edge's midpoint
    for beta in [(1, 2), (2, 3), (3, 7)]:
        a, b = beta
        cf = capped_flower(EisensteinInt(a, b))
        quad = cf._caps[0]
        alb = EisensteinInt(0, 1) * EisensteinInt(a, b)
        corners = {(3 * a, 3 * b), (3 * alb.a, 3 * alb.b)}
        assert corners <= set(quad)
        center2 = (3 * (a + alb.a), 3 * (b + alb.b))
        rotated = {(center2[0] - x, center2[1] - y) for (x, y) in quad}
        assert rotated == set(quad)
