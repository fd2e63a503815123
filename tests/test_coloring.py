import hashlib
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from eisenfold import coloring
from eisenfold.eisenstein import EisensteinInt, DomainError
from eisenfold.coloring import (
    _PARITY,
    DevelopmentError,
    FaceColoring,
    GoodnessError,
    GoodnessReport,
    alternating_coloring,
    color_balance,
    continued_fraction_coloring,
    eta,
    fold_count,
    from_json_dict,
    induced_face_coloring,
    is_good,
    monochrome_regions,
    paint_from_flower,
    scaled_coloring,
    to_json_dict,
    vertex_four_coloring,
)
from eisenfold.flower import BLACK, WHITE, capped_flower, cf_fold_count
from eisenfold.isoperimetric import region_isoperimetric_check
from eisenfold.search import swappable_vertices, vertex_swap
from eisenfold.surface import QuotientComplex, build_complex
from oracles import (
    color_at,
    lift,
    parity,
    reference_is_good,
    reference_monochrome_regions,
    reference_vertex_four_coloring,
    tile_regions,
)


def all_black(c):
    return FaceColoring(c, tuple(BLACK for _ in range(c.face_count)))


@pytest.mark.parametrize(
    "beta, fold",
    [((2, 3), 57), ((1, 0), 3), ((1, 2), 21)],
)
def test_alternating_fold_counts(beta, fold):
    c = build_complex(EisensteinInt(*beta))
    col = alternating_coloring(c)
    assert fold_count(col) == fold == 3 * c.face_count // 2
    assert is_good(col).good


def test_alternating_is_good_everywhere_small():
    for b in range(1, 14):
        for a in range(0, b + 1):
            if gcd(a, b) != 1:
                continue
            c = build_complex(EisensteinInt(a, b))
            col = alternating_coloring(c)
            assert fold_count(col) == 3 * c.face_count // 2
            rep = is_good(col)
            assert rep.good and rep.mod6


@pytest.mark.parametrize(
    "beta, fold, F",
    [((1, 2), 13, 14), ((8, 13), 107, 674), ((3, 5), 39, 98), ((2, 3), 23, 38)],
)
def test_continued_fraction_coloring_table(beta, fold, F):
    col = continued_fraction_coloring(EisensteinInt(*beta))
    assert col.complex.face_count == F
    assert fold_count(col) == fold
    rep = is_good(col)
    assert rep.good and rep.mod6
    assert color_balance(col) == (F // 2, F // 2)


def test_continued_fraction_coloring_rejections():
    with pytest.raises(DomainError):
        continued_fraction_coloring(EisensteinInt(2, 4))
    with pytest.raises(DomainError):
        continued_fraction_coloring(EisensteinInt(0, 1))
    with pytest.raises(DomainError):
        continued_fraction_coloring(EisensteinInt(1, 0))  # canonical (0,1)


_NORM_19 = [(a, b) for b in range(1, 5) for a in range(b + 1) if a * a + a * b + b * b <= 19]


@pytest.mark.parametrize("beta", _NORM_19)
def test_scaled_colorings_are_good_balanced_and_k_times_the_folds(beta):
    small = build_complex(EisensteinInt(*beta))
    cols = [alternating_coloring(small)]
    if beta[0] >= 1 and gcd(*beta) == 1:
        cols.append(continued_fraction_coloring(small.beta, small))
    for k in range(1, 5):
        c = build_complex(EisensteinInt(k * beta[0], k * beta[1]))
        for col in cols:
            scaled = scaled_coloring(col, c)
            assert is_good(scaled).good
            assert color_balance(scaled) == (c.face_count // 2, c.face_count // 2)
            assert fold_count(scaled) == k * fold_count(col)
            assert region_isoperimetric_check(scaled).eta_lower_bound_holds
        if k == 1:
            assert [scaled_coloring(col, c).colors for col in cols] == [col.colors for col in cols]


@pytest.mark.parametrize("small, big", [((1, 2), (2, 3)), ((1, 2), (2, 5)), ((2, 4), (1, 2)),
                                        ((0, 1), (1, 1)), ((1, 1), (0, 3))])
def test_scaled_coloring_needs_an_integer_multiple(small, big):
    col = alternating_coloring(build_complex(EisensteinInt(*small)))
    with pytest.raises(DomainError, match="not a positive integer multiple"):
        scaled_coloring(col, build_complex(EisensteinInt(*big)))


def test_painting_agrees_with_color_at_exhaustively_b_le_13():
    for b in range(1, 14):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            be = EisensteinInt(a, b)
            c = build_complex(be)
            col = continued_fraction_coloring(be, c)
            cf = capped_flower(be)
            for f in range(c.face_count):
                assert col.colors[f] == color_at(cf, lift(c, f))


def test_convention_independence_b_le_21():
    # global swap and the alternate fill pattern change no measured quantity
    for b in range(2, 22):
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            be = EisensteinInt(a, b)
            c = build_complex(be)
            base = continued_fraction_coloring(be, c)
            f0 = fold_count(base)
            assert f0 == cf_fold_count(a, b)
            alternate = continued_fraction_coloring(be, c, fill_phase=1)
            for other in (base.swapped(), alternate, alternate.swapped()):
                assert fold_count(other) == f0
                assert is_good(other).good


def test_is_good_reports_violations():
    c = build_complex(EisensteinInt(2, 3))
    rep = is_good(all_black(c))
    assert not rep.good
    # exactly the three degree-2 vertices break all-black
    assert all(c.degrees[v] == 2 for v in rep.violations)
    assert len(rep.violations) == 3


def test_face_coloring_rejects_colors_other_than_0_and_1():
    c = build_complex(EisensteinInt(1, 2))
    for colors in [(0, 2) * 7, (1,) * 13 + (-1,), (0,) * 13 + (None,)]:
        with pytest.raises(DomainError, match="0 .white. or 1 .black."):
            FaceColoring(c, colors)
    assert FaceColoring(c, (0, 1) * 7).colors == (0, 1) * 7


def test_one_face_flip_breaks_goodness():
    c = build_complex(EisensteinInt(1, 2))
    col = alternating_coloring(c).flipped([0])
    assert not is_good(col).good


def test_eta_values():
    assert eta(continued_fraction_coloring(EisensteinInt(1, 2))) == Fraction(169, 14)
    c = build_complex(EisensteinInt(1, 0))
    assert eta(alternating_coloring(c)) == Fraction(9, 2)


def test_balance_contrapositive():
    c = build_complex(EisensteinInt(1, 0))
    assert color_balance(all_black(c)) == (2, 0)
    assert not is_good(all_black(c)).good


def test_vertex_four_coloring_taco():
    c = build_complex(EisensteinInt(1, 0))
    col = FaceColoring(c, (BLACK, WHITE))
    vc = vertex_four_coloring(col)
    assert len(set(vc)) == 3
    assert induced_face_coloring(c, vc).colors == col.colors


def test_vertex_four_coloring_round_trip():
    for beta in [(2, 3), (1, 5), (3, 5)]:
        col = continued_fraction_coloring(EisensteinInt(*beta))
        vc = vertex_four_coloring(col)
        assert induced_face_coloring(col.complex, vc).colors == col.colors
        # properness across every edge
        c = col.complex
        for f, ids in enumerate(c.face_vertices):
            assert len({vc[v] for v in ids}) == 3


def test_vertex_four_coloring_alternating_uses_three_colors():
    c = build_complex(EisensteinInt(2, 3))
    vc = vertex_four_coloring(alternating_coloring(c))
    assert len(set(vc)) == 3


def test_vertex_four_coloring_rejects_bad():
    c = build_complex(EisensteinInt(1, 2))
    with pytest.raises(GoodnessError):
        vertex_four_coloring(all_black(c))


def test_parity_table_matches_permutation_sign():
    triples = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)
               if len({x, y, z}) == 3]
    assert len(triples) == 24 and sorted(_PARITY) == triples
    for t in triples:
        assert _PARITY[t] == parity(*t)


_PRIMITIVE_NORM_150 = [
    (a, b) for b in range(1, 13) for a in range(1, b + 1)
    if gcd(a, b) == 1 and a * a + a * b + b * b <= 150
]


@pytest.mark.parametrize("beta", _PRIMITIVE_NORM_150)
def test_goodness_and_four_coloring_match_the_reference(beta):
    c = build_complex(EisensteinInt(*beta))
    for col in (continued_fraction_coloring(EisensteinInt(*beta), c), alternating_coloring(c)):
        assert is_good(col) == reference_is_good(col)
        assert vertex_four_coloring(col) == reference_vertex_four_coloring(col)


@pytest.mark.parametrize("beta", [(1, 2), (2, 3), (3, 5), (4, 7)])
def test_bad_colorings_fail_like_the_reference(beta):
    c = build_complex(EisensteinInt(*beta))
    good = continued_fraction_coloring(EisensteinInt(*beta), c)
    for col in (all_black(c), good.flipped([0]), good.flipped(range(0, c.face_count, 5))):
        report = is_good(col)
        assert not report.good
        assert report == reference_is_good(col)
        with pytest.raises(GoodnessError) as got:
            vertex_four_coloring(col)
        with pytest.raises(GoodnessError) as want:
            reference_vertex_four_coloring(col)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("beta", [(1, 2), (2, 3), (3, 5), (4, 7)])
def test_four_coloring_of_a_bad_coloring_past_the_goodness_gate_fails_its_face_check(
    beta, monkeypatch
):
    # with is_good forced to pass, the propagation meets faces whose known
    # corners clash; the final per-face check still rejects the result
    c = build_complex(EisensteinInt(*beta))
    good = continued_fraction_coloring(EisensteinInt(*beta), c)
    monkeypatch.setattr(coloring, "is_good", lambda col: GoodnessReport(True, (), True))
    for col in (all_black(c), good.flipped([0]), good.flipped(range(0, c.face_count, 5))):
        with pytest.raises(GoodnessError, match="verification failed at face"):
            vertex_four_coloring(col)


def _swap_walk(col, steps, seed):
    """The colorings met on a seeded random walk of star swaps from col."""
    rng = random.Random(seed)
    out = [col]
    for _ in range(steps):
        options = swappable_vertices(col)
        if not options:
            break
        col = vertex_swap(col, rng.choice(options))
        out.append(col)
    return out


def _region_cases():
    for beta in _PRIMITIVE_NORM_150:
        c = build_complex(EisensteinInt(*beta))
        yield continued_fraction_coloring(EisensteinInt(*beta), c)
        yield alternating_coloring(c)
    for beta in [(0, 5), (2, 4), (3, 3)]:
        yield alternating_coloring(build_complex(EisensteinInt(*beta)))
    # thin beta: long thin regions, whose faces are placed at every shift
    for beta in [(1, 30), (2, 45)]:
        yield continued_fraction_coloring(EisensteinInt(*beta))
    for beta in [(8, 13), (0, 5)]:
        yield from _swap_walk(alternating_coloring(build_complex(EisensteinInt(*beta))), 60, 10)


def test_monochrome_regions_match_the_reference():
    cases = 0
    for col in _region_cases():
        assert monochrome_regions(col) == reference_monochrome_regions(col)
        cases += 1
    assert cases == 2 * len(_PRIMITIVE_NORM_150) + 3 + 2 + 2 * 61


@pytest.mark.parametrize("beta", [(1, 2), (2, 3), (3, 5), (4, 7)])
def test_monochrome_regions_reject_bad_colorings_like_the_reference(beta):
    c = build_complex(EisensteinInt(*beta))
    good = continued_fraction_coloring(EisensteinInt(*beta), c)
    for col in (all_black(c), good.flipped([0]), good.flipped(range(0, c.face_count, 5))):
        with pytest.raises(DevelopmentError) as got:
            monochrome_regions(col)
        with pytest.raises(DevelopmentError) as want:
            reference_monochrome_regions(col)
        assert str(got.value) == str(want.value)


def test_monochrome_regions_alternating_all_triangles():
    c = build_complex(EisensteinInt(1, 2))
    regs = monochrome_regions(alternating_coloring(c))
    assert len(regs) == c.face_count
    for r in regs:
        assert len(r.faces) == 1
        assert r.boundary_length == 3
        assert len(r.lifted_polygon) == 3


def test_monochrome_regions_cf_coloring():
    for beta in [(2, 3), (3, 5), (1, 5)]:
        col = continued_fraction_coloring(EisensteinInt(*beta))
        regs = monochrome_regions(col)
        whites = [r for r in regs if r.color == WHITE]
        blacks = [r for r in regs if r.color == BLACK]
        F = col.complex.face_count
        assert sum(len(r.faces) for r in whites) == F // 2
        assert sum(len(r.faces) for r in blacks) == F // 2
        assert sum(r.boundary_length for r in whites) == fold_count(col)
        assert sum(r.boundary_length for r in blacks) == fold_count(col)


def test_region_polygons_are_convex_eisenstein():
    col = continued_fraction_coloring(EisensteinInt(2, 3))
    for r in monochrome_regions(col):
        k = len(r.lifted_polygon)
        assert 3 <= k <= 6
        # interior angles 60 or 120: corner turns are strict left turns and
        # consecutive polygon edges are lattice-direction segments
        for i in range(k):
            p = r.lifted_polygon[i]
            q = r.lifted_polygon[(i + 1) % k]
            d = q - p
            g = gcd(abs(d.a), abs(d.b))
            assert (d.a // g, d.b // g) in {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)}


def test_coloring_json_round_trip():
    col = continued_fraction_coloring(EisensteinInt(2, 3))
    doc = to_json_dict(col)
    assert doc["schema"] == "coloring.v1"
    assert doc["fold_count"] == 23
    assert doc["eta"] == [529, 38]
    assert doc["good"] is True
    back = from_json_dict(doc)
    assert back.colors == col.colors
    assert back.complex.face_count == col.complex.face_count


def test_vertex_four_coloring_round_trips_every_good_coloring_1_2():
    from eisenfold.search import iter_good_colorings

    c = build_complex(EisensteinInt(1, 2))
    for col in iter_good_colorings(c):
        vc = vertex_four_coloring(col)
        assert induced_face_coloring(c, vc).colors == col.colors


# sha256 of canonical coloring.v1 JSON, recorded before paint looked faces
# up through the torus index
COLORING_PINS = {
    (2, 3): "a1bcc0334dc570c1a3d9986bb936cc99de75bfc77ed7a92dcf560d2d9133a4ca",
    (8, 13): "068a4273f508c777de99d5e77a45c9ccf92abe6ad815a91597ee265e1921317e",
    (1, 29): "7a035d3eeed04444c5c7a887e41b0a7f3c8f870275432e461182fb0e1bccc9f4",
}


@pytest.mark.parametrize("beta", sorted(COLORING_PINS))
def test_coloring_json_bytes_are_pinned(beta):
    from eisenfold.jsonio import dumps

    doc = dumps(to_json_dict(continued_fraction_coloring(EisensteinInt(*beta))))
    assert hashlib.sha256(doc.encode()).hexdigest() == COLORING_PINS[beta]


def _oracle_paint(cf, c):
    """paint_from_flower as it was before the scan-line fill and before it
    painted one rotation class: every triangle of each whole-tile quad's
    bounding box is tested against the quad's ccw edges, and every face
    must be painted 3 times, once per turn by alpha^2, all in one color."""
    hits = [[] for _ in range(c.face_count)]
    for kind, data, color in tile_regions(cf):
        if kind == "fill":
            x, y = data
            o = 0 if x % 3 == 1 else 1
            hits[c.face_at((x - 1 - o) // 3, (y - 1 - o) // 3, o)].append(color)
            continue
        xs = [p[0] for p in data]
        ys = [p[1] for p in data]
        for a in range(min(xs) // 3 - 1, max(xs) // 3 + 2):
            for b in range(min(ys) // 3 - 1, max(ys) // 3 + 2):
                for o, off in ((0, 1), (1, 2)):
                    if _in_quad(data, 3 * a + off, 3 * b + off):
                        hits[c.face_at(a, b, o)].append(color)
    for f, h in enumerate(hits):
        assert len(h) == 3 and len(set(h)) == 1, f"face {f} painted {h}"
    return tuple(h[0] for h in hits)


def _in_quad(quad, px, py):
    m = len(quad)
    for i in range(m):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        if ex == 0 and ey == 0:
            continue
        if ex * (py - ay) - ey * (px - ax) < 0:
            return False
    return True


def _assert_paint_matches_oracle(beta):
    be = EisensteinInt(*beta)
    c = build_complex(be)
    cf = capped_flower(be)
    assert paint_from_flower(cf, c).colors == _oracle_paint(cf, c)


def test_paint_matches_bounding_box_oracle_b_le_30():
    for b in range(1, 31):
        for a in range(1, b + 1):
            if gcd(a, b) == 1:
                _assert_paint_matches_oracle((a, b))


# thin beta (long slanted trapezoids in nearly empty boxes), the four
# Fibonacci tiers of the golden benchmark workload, and a sample of a <= 3
THIN_AND_GOLDEN = sorted(
    {(1, 30), (2, 45), (1, 78), (3, 125), (13, 21), (21, 34), (34, 55), (55, 89)}
    | {(a, b) for a in (1, 2, 3) for b in range(31, 131, 17) if gcd(a, b) == 1}
)


@pytest.mark.parametrize("beta", THIN_AND_GOLDEN)
def test_paint_matches_bounding_box_oracle_thin_and_golden(beta):
    _assert_paint_matches_oracle(beta)


def _paint_with_regions(be, edit):
    """Paint T(be) from its flower's regions as changed by edit."""
    cf = capped_flower(be)
    flower = SimpleNamespace(regions=lambda: iter(edit(list(cf.regions()))))
    return paint_from_flower(flower, build_complex(be))


def test_paint_audit_fires_when_a_quad_is_missing():
    with pytest.raises(AssertionError, match="not painted"):
        _paint_with_regions(EisensteinInt(2, 5), lambda regions: regions[1:])


def test_paint_audit_fires_when_a_quad_is_painted_twice():
    with pytest.raises(AssertionError, match="painted twice"):
        _paint_with_regions(EisensteinInt(2, 5), lambda regions: regions[:1] + regions)


# (beta, columns): thin quads are painted along their length, and one
# rotation class of the tile is painted, so (3,125) takes 512 columns where
# scanning each quad of the whole tile as given took 22,208, and (1,77) 308
# where it took 24,332; golden (55,89) takes 680 for 2,952
@pytest.mark.parametrize("beta, cols", [((3, 125), 512), ((1, 77), 308), ((55, 89), 680)])
def test_paint_takes_few_columns_and_paints_each_face_once(beta, cols, monkeypatch):
    c = build_complex(EisensteinInt(*beta))
    cf = capped_flower(c.beta)
    counts = {"columns": 0, "triangles": 0, "fills": 0}
    column_faces, face_at = QuotientComplex.column_faces, QuotientComplex.face_at

    def counted_column_faces(self, a, lo, hi, o):
        counts["columns"] += 1
        counts["triangles"] += hi - lo + 1
        return column_faces(self, a, lo, hi, o)

    def counted_face_at(self, a, b, o):
        counts["fills"] += 1
        return face_at(self, a, b, o)

    monkeypatch.setattr(QuotientComplex, "column_faces", counted_column_faces)
    monkeypatch.setattr(QuotientComplex, "face_at", counted_face_at)
    paint_from_flower(cf, c)
    # the two central triangles of the class are painted one face_at each
    assert counts == {"columns": cols, "triangles": c.face_count - 2, "fills": 2}
