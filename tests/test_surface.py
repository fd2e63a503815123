from math import gcd

import pytest

from eisenfold.eisenstein import DomainError, EisensteinInt
from eisenfold.surface import (
    DOWN,
    UP,
    PlaneTriangleId,
    build_complex,
    degree_sequence,
    plane_neighbor,
)


def test_taco():
    c = build_complex(EisensteinInt(1, 0))
    assert c.face_count == 2
    assert c.vertex_count == 3
    assert degree_sequence(c) == [2, 2, 2]


@pytest.mark.parametrize(
    "beta, F",
    [((2, 3), 38), ((3, 5), 98), ((1, 2), 14), ((8, 13), 674)],
)
def test_face_counts(beta, F):
    c = build_complex(EisensteinInt(*beta))
    assert c.face_count == F
    assert c.vertex_count == F // 2 + 2


def test_degree_sequences():
    c = build_complex(EisensteinInt(1, 2))
    assert degree_sequence(c) == [2, 2, 2] + [6] * 6
    c = build_complex(EisensteinInt(8, 13))
    seq = degree_sequence(c)
    assert seq[:3] == [2, 2, 2]
    assert len(seq) == 339 and all(d == 6 for d in seq[3:])
    assert sum(6 - d for d in seq if d != 6) == 12


def test_rejects_zero():
    with pytest.raises(DomainError):
        build_complex(EisensteinInt(0, 0))


def test_euler_formula_and_structure_small_sweep():
    for b in range(1, 13):
        for a in range(0, b + 1):
            if (a, b) == (0, 0) or gcd(a, b) != 1:
                continue
            c = build_complex(EisensteinInt(a, b))
            F = c.face_count
            V = c.vertex_count
            E = 3 * F // 2
            assert F == 2 * (a * a + a * b + b * b)
            assert V - E + F == 2
            assert len(c.edges()) == E


def test_project_section_and_invariance():
    c = build_complex(EisensteinInt(2, 3))
    for f in range(c.face_count):
        assert c.project(c.lift(f)) == f
    # translation invariance along delta*E and rotation invariance
    d = c.delta
    om = EisensteinInt(-1, 1)
    for f in range(0, c.face_count, 3):
        t = c.lift(f)
        shifted = PlaneTriangleId(t.anchor + d, t.orientation)
        assert c.project(shifted) == f
        za = om * t.anchor
        if t.orientation == UP:
            rot = PlaneTriangleId(za - EisensteinInt(1, 0), UP)
        else:
            rot = PlaneTriangleId(za - EisensteinInt(2, 0), DOWN)
        assert c.project(rot) == f


def test_pairing_respects_planar_adjacency():
    c = build_complex(EisensteinInt(1, 3))
    for f in range(c.face_count):
        t = c.lift(f)
        for s in range(3):
            (na, nb), no, _ = plane_neighbor((t.anchor.a, t.anchor.b), t.orientation, s)
            neighbor = PlaneTriangleId(EisensteinInt(na, nb), no)
            assert c.project(neighbor) == c.pairing[f][s][0]


def test_pairing_is_free_involution():
    c = build_complex(EisensteinInt(3, 5))
    for f, row in enumerate(c.pairing):
        for s, (f2, s2) in enumerate(row):
            assert (f2, s2) != (f, s)
            assert c.pairing[f2][s2] == (f, s)


def test_vertex_star_cycles():
    c = build_complex(EisensteinInt(2, 3))
    for v in range(c.vertex_count):
        star = c.vertex_star(v)
        assert len(star) == c.vertices[v].degree
        # every star face is incident to v
        for f in star:
            assert v in c.face_vertices[f]


def _vertex_star_by_scan(c, v):
    """Oracle: the star walked from v's first corner, found by scanning faces."""
    start = next((f, k) for f, ids in enumerate(c.face_vertices)
                 for k in range(3) if ids[k] == v)
    cycle = []
    f, k = start
    while True:
        cycle.append(f)
        f2, s2 = c.pairing[f][k]  # side k runs from corner k to k+1
        k2 = s2 if c.face_vertices[f2][s2] == v else (s2 + 1) % 3
        assert c.face_vertices[f2][k2] == v, "vertex walk left the star"
        f, k = f2, k2
        if (f, k) == start:
            break
        assert len(cycle) <= c.vertices[v].degree, "vertex star does not close up"
    assert len(cycle) == c.vertices[v].degree
    return cycle


@pytest.mark.parametrize("beta", [(1, 0), (1, 1), (0, 2), (1, 2), (0, 3), (2, 3), (2, 4),
                                  (3, 3), (5, 8)])
def test_vertex_star_matches_face_scan(beta):
    c = build_complex(EisensteinInt(*beta))
    for v in range(c.vertex_count):
        assert c.vertex_star(v) == _vertex_star_by_scan(c, v)
    for v in (-1, c.vertex_count):
        with pytest.raises(DomainError):
            c.vertex_star(v)


def test_non_primitive_beta_supported():
    c = build_complex(EisensteinInt(0, 2))  # 2*alpha, canonical (0, 2)
    assert c.face_count == 8
    assert degree_sequence(c) == [2, 2, 2, 6, 6, 6]


def test_json_shape_and_determinism():
    from eisenfold.jsonio import dumps

    c1 = build_complex(EisensteinInt(2, 3))
    c2 = build_complex(EisensteinInt(2, 3))
    d1, d2 = c1.to_json_dict(), c2.to_json_dict()
    assert dumps(d1) == dumps(d2)
    assert d1["schema"] == "complex.v1"
    assert d1["beta"] == [2, 3]
    assert len(d1["faces"]) == 38
    assert len(d1["pairing"]) == 57
    assert len(d1["vertices"]) == 21
