import gc
import hashlib
import json
import math
import random
from math import gcd

import pytest

from eisenfold import coloring, isoperimetric, jsonio, render
from eisenfold.eisenstein import DomainError, EisensteinInt, canonical
from eisenfold.surface import (
    CORNERS,
    DOWN,
    NEIGHBOR,
    UP,
    build_complex,
    columns,
)
from oracles import PlaneTriangleId, complex_json_dict, divmod_build, lift, project


def plane_neighbor(anchor: tuple[int, int], orientation: int, side: int):
    """Oracle: the triangle sharing the given side, with the matching side index."""
    a, b = anchor
    if orientation == UP:
        return (((a, b - 1), DOWN, 1), ((a, b), DOWN, 2), ((a - 1, b), DOWN, 0))[side]
    return (((a + 1, b), UP, 2), ((a, b + 1), UP, 0), ((a, b), UP, 1))[side]


def _random_convex(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """Ccw corners of a random strictly convex k-gon, k = 3 or 4, in [-12, 12]^2."""
    while True:
        pts = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(k)]
        c = (sum(x for x, _ in pts) / k, sum(y for _, y in pts) / k)
        pts.sort(key=lambda p: math.atan2(p[1] - c[1], p[0] - c[0]))
        turns = [
            (q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0])
            for p, q, r in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])
        ]
        if all(t > 0 for t in turns):
            return pts


def test_columns_match_brute_force_membership():
    rng = random.Random(12)
    for trial in range(600):
        corners = _random_convex(rng, 3 + trial % 2)
        if trial % 3 == 0:  # a repeated corner makes a side of length zero
            i = rng.randrange(len(corners))
            corners.insert(i, corners[i])
        open_sides = tuple(i for i in range(len(corners)) if rng.random() < 0.5)
        for s in (1, 2, 3):
            for t in range(s):
                want = set()
                span = range(-13 // s - 1, 13 // s + 1)  # s*a + t covers [-12, 12]
                for a in span:
                    for b in span:
                        x, y = s * a + t, s * b + t
                        sides = zip(corners, corners[1:] + corners[:1])
                        if all(
                            (bx - ax) * (y - ay) - (by - ay) * (x - ax) > (i in open_sides) - 1
                            for i, ((ax, ay), (bx, by)) in enumerate(sides)
                            if (ax, ay) != (bx, by)
                        ):
                            want.add((a, b))
                cols = list(columns(corners, s, t, open_sides))
                assert [a for a, _, _ in cols] == sorted({a for a, _, _ in cols})
                assert all(lo <= hi for _, lo, hi in cols)
                got = {(a, b) for a, lo, hi in cols for b in range(lo, hi + 1)}
                assert got == want, (corners, s, t, open_sides)


def test_taco():
    c = build_complex(EisensteinInt(1, 0))
    assert c.face_count == 2
    assert c.vertex_count == 3
    assert c.degree_sequence() == [2, 2, 2]


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
    assert c.degree_sequence() == [2, 2, 2] + [6] * 6
    c = build_complex(EisensteinInt(8, 13))
    seq = c.degree_sequence()
    assert seq[:3] == [2, 2, 2]
    assert len(seq) == 339 and all(d == 6 for d in seq[3:])
    assert sum(6 - d for d in seq if d != 6) == 12


def test_rejects_zero():
    with pytest.raises(DomainError):
        build_complex(EisensteinInt(0, 0))


@pytest.mark.parametrize("beta", [(99999999999, 1), (1_500_000_000, 0)])
def test_rejects_beta_whose_torus_exceeds_an_index(beta):
    # 2 norm(delta) = 6 norm(beta) > sys.maxsize, so no list can hold the
    # torus faces; at (1.5e9, 0) norm(delta) itself is still below sys.maxsize
    with pytest.raises(DomainError, match="too large"):
        build_complex(EisensteinInt(*beta))


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
            # each glued side pair once, from its lesser side
            assert sum((f, s) < pair for f, row in enumerate(c.pairing)
                       for s, pair in enumerate(row)) == E


def test_project_section_and_invariance():
    c = build_complex(EisensteinInt(2, 3))
    for f in range(c.face_count):
        assert project(c, lift(c, f)) == f
    # translation invariance along delta*E and rotation invariance
    d = c.delta
    om = EisensteinInt(-1, 1)
    for f in range(0, c.face_count, 3):
        t = lift(c, f)
        shifted = PlaneTriangleId(t.anchor + d, t.orientation)
        assert project(c, shifted) == f
        za = om * t.anchor
        if t.orientation == UP:
            rot = PlaneTriangleId(za - EisensteinInt(1, 0), UP)
        else:
            rot = PlaneTriangleId(za - EisensteinInt(2, 0), DOWN)
        assert project(c, rot) == f


def test_lift_rejects_faces_out_of_range():
    c = build_complex(EisensteinInt(2, 3))
    (a, b), o = c._anchors[-1], c._orient[-1]
    assert lift(c, c.face_count - 1) == PlaneTriangleId(EisensteinInt(a, b), o)
    for f in (-1, c.face_count, 10**6):
        with pytest.raises(DomainError):
            lift(c, f)


def test_pairing_respects_planar_adjacency():
    c = build_complex(EisensteinInt(1, 3))
    for f in range(c.face_count):
        t = lift(c, f)
        for s in range(3):
            (na, nb), no, _ = plane_neighbor((t.anchor.a, t.anchor.b), t.orientation, s)
            neighbor = PlaneTriangleId(EisensteinInt(na, nb), no)
            assert project(c, neighbor) == c.pairing[f][s][0]


# every canonical beta 0 <= a <= b of norm <= 100, and two large ones
_INVOLUTION_BETAS = [
    (a, b) for b in range(1, 11) for a in range(b + 1) if a * a + a * b + b * b <= 100
] + [(56, 89), (3, 125)]


def test_pairing_is_free_involution():
    # the global rule, which cross-checks the build's one check per glued
    # pair, made as its later face is written, and its count of such pairs
    for beta in _INVOLUTION_BETAS:
        c = build_complex(EisensteinInt(*beta))
        for f, row in enumerate(c.pairing):
            for s, (f2, s2) in enumerate(row):
                assert (f2, s2) != (f, s), beta
                assert c.pairing[f2][s2] == (f, s), beta


def test_vertex_star_cycles():
    c = build_complex(EisensteinInt(2, 3))
    for v in range(c.vertex_count):
        star = c.vertex_star(v)
        assert len(star) == c.degrees[v]
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
        assert len(cycle) <= c.degrees[v], "vertex star does not close up"
    assert len(cycle) == c.degrees[v]
    return cycle


@pytest.mark.parametrize("beta", [(1, 0), (1, 1), (0, 2), (1, 2), (0, 3), (2, 3), (2, 4),
                                  (3, 3), (5, 8)])
def test_vertex_star_matches_face_scan(beta):
    c = build_complex(EisensteinInt(*beta))
    for v in range(c.vertex_count):
        assert c.vertex_star(v) == _vertex_star_by_scan(c, v)
        assert c.vertex_stars()[v] == tuple(_vertex_star_by_scan(c, v))
    assert c.vertex_stars() is c.vertex_stars()
    for v in (-1, c.vertex_count):
        with pytest.raises(DomainError):
            c.vertex_star(v)


def test_non_primitive_beta_supported():
    c = build_complex(EisensteinInt(0, 2))  # 2*alpha, canonical (0, 2)
    assert c.face_count == 8
    assert c.degree_sequence() == [2, 2, 2, 6, 6, 6]


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


# sha256 of canonical complex.v1 JSON, recorded before the torus index
# replaced the dict face map
COMPLEX_PINS = {
    (1, 0): "d1c4ef5ea6fdf76317bfc8d5c7c824dfa9c3774b36e12d70f90cadef8ce1c81c",
    (0, 2): "ef26af8271502728134efa5fcdcbcc4c7759c01eb33ac31e59b0014f481a1da4",
    (1, 4): "278792cc19ef6b16b4e150ef16e136331fbec94a8173f4129814e68122ada4fb",
    (2, 5): "33c28772e9f0f000f4f322a2586918611c10b499205529afb0dec8858dc05dfc",
    (3, 6): "a87765d0bc6360389ba6ce00f2d956f7a240f769e1e6a76e7b1c84ebd5abb28e",
    (8, 13): "d04770586acf62ae0e4d5aa44ccf4a170b0a033cbddf65934c77f87103e791e5",
    (-3, 5): "c5d7e389d7c5cd8d0ee9bcea408ede11f8dcb247c821860cac252828522db844",
    # the benchmark-sized shapes, h2 = 3 and h2 = 1, recorded before the
    # document was built from the complex's own tuples
    (56, 89): "24560f8c14cef46a5333b763f15d66c40021223080987a79b4c21aabbd030afe",
    (3, 125): "0faf556402ec2a22d31419990670d50b54affea71cdda7c42fbf51f3a216e58f",
}


@pytest.mark.parametrize("beta", sorted(COMPLEX_PINS))
def test_complex_json_bytes_are_pinned(beta):
    from eisenfold.jsonio import dumps

    doc = dumps(build_complex(EisensteinInt(*beta)).to_json_dict())
    assert hashlib.sha256(doc.encode()).hexdigest() == COMPLEX_PINS[beta]


def _face_map_by_reduction(c):
    """Oracle: the plane-to-face map as a dict over parallelogram-reduced anchors.

    Torus faces are grouped into rotation orbits, each orbit is named by
    its least member, and faces are numbered in sorted order of those names.
    """
    d1, d2 = c.delta.a, c.delta.b
    n = c.delta.norm()

    def reduce(a, b):
        m = a * (d1 + d2) + b * d2
        k = b * d1 - a * d2
        fu, fv = m // n, k // n
        return (a - fu * d1 + fv * d2, b - fu * d2 - fv * (d1 + d2))

    def rotate(a, b, o):
        return (*reduce(-a - b - 1 - o, a), o)

    # the cell spanned by delta and delta*alpha holds the reduced anchors; its
    # corners lie within 2(|d1| + |d2|) of the origin in each coordinate
    R = 2 * (abs(d1) + abs(d2)) + 2
    cell = {reduce(a, b) for a in range(-R, R) for b in range(-R, R)}
    assert len(cell) == n
    orbit_of = {}
    for a, b in cell:
        for o in (UP, DOWN):
            t1 = rotate(a, b, o)
            orbit_of[(a, b, o)] = min((a, b, o), t1, rotate(*t1))
    number = {rep: f for f, rep in enumerate(sorted(set(orbit_of.values())))}
    faces = {t: number[rep] for t, rep in orbit_of.items()}

    def face(a, b, o):
        return faces[(*reduce(a, b), o)]

    return face, sorted(number)


# (beta, h2): h2 = gcd(b - a, 3a) for canonical beta = a + b*alpha, so a
# primitive beta has h2 = 3 when a = b (mod 3) and h2 = 1 otherwise
@pytest.mark.parametrize("beta, h2", [
    ((1, 0), 1), ((1, 2), 1), ((2, 3), 1), ((8, 13), 1), ((4, -1), 1),
    ((1, 1), 3), ((1, 4), 3), ((2, 5), 3), ((-3, 5), 1),
    ((0, 2), 2), ((2, 4), 2), ((3, 6), 3), ((3, 3), 9), ((6, 6), 18),
])
def test_face_at_matches_reduction_oracle(beta, h2):
    c = build_complex(EisensteinInt(*beta))
    assert c._h2 == h2 and c._h1 * c._h2 == c.delta.norm()
    face, reps = _face_map_by_reduction(c)
    assert [(a, b, o) for (a, b), o in zip(c._anchors, c._orient)] == reps
    rng = random.Random(0)
    R = 3 * (abs(c.delta.a) + abs(c.delta.b)) + 4
    for _ in range(2000):
        a, b, o = rng.randint(-R, R), rng.randint(-R, R), rng.randint(0, 1)
        f = face(a, b, o)
        assert c.face_at(a, b, o) == f
        assert project(c, PlaneTriangleId(EisensteinInt(a, b), o)) == f


def _build_by_box_scan(beta: EisensteinInt) -> dict:
    """Oracle: the quotient complex built by scanning the fundamental cell's
    bounding box, with a torus-index closure, `plane_neighbor` and explicit
    triangle corners; returns its fields by attribute name."""
    beta = canonical(beta)
    delta = EisensteinInt(2, -1) * beta
    d1, d2 = delta.a, delta.b
    n = delta.norm()

    r0, r1, x0, x1, y0, y1 = d2, d1 + d2, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    h2, va = r0, x0 * d1 - y0 * d2
    h1 = n // h2

    def index(x: int, y: int) -> int:
        q, j = divmod(y, h2)
        return j * h1 + (x - q * va) % h1

    red = [None] * n
    anchors = []
    for a in range(-d2 - 1, d1 + 2):
        m_base = a * (d1 + d2)
        k_base = -a * d2
        for b in range(-1, d1 + 2 * d2 + 2):
            if not (0 <= m_base + b * d2 < n and 0 <= k_base + b * d1 < n):
                continue
            i = index(a, b)
            assert red[i] is None, f"anchors {red[i]} and {(a, b)} share torus index {i}"
            red[i] = (a, b)
            anchors.append((a, b, i))
    assert len(anchors) == n

    face_of = [-1] * (2 * n)
    shift_of = [0] * (2 * n)
    faces = []
    for a, b, i in anchors:
        for o in (UP, DOWN):
            t0 = 2 * i + o
            if face_of[t0] >= 0:
                continue
            orbit = [t0]
            x, y = a, b
            for _ in range(3):
                x, y = -x - y - 1 - o, x
                orbit.append(2 * index(x, y) + o)
            assert len(set(orbit[:3])) == 3 and orbit[3] == t0
            f = len(faces)
            for t, k in zip(orbit, (0, 2, 1)):
                face_of[t] = f
                shift_of[t] = k
            faces.append(PlaneTriangleId(EisensteinInt(a, b), o))
    assert len(faces) == 2 * beta.norm()

    pairing = []
    for tri in faces:
        row = []
        for s in range(3):
            (na, nb), no, ns = plane_neighbor((tri.anchor.a, tri.anchor.b), tri.orientation, s)
            t = 2 * index(na, nb) + no
            row.append((face_of[t], (ns + shift_of[t]) % 3))
        pairing.append(tuple(row))

    vid = [-1] * n
    vpoints = []
    degrees = []
    face_vertices = []
    for tri in faces:
        ids = []
        a, b = tri.anchor.a, tri.anchor.b
        if tri.orientation == UP:
            corners = ((a, b), (a + 1, b), (a, b + 1))
        else:
            corners = ((a + 1, b), (a + 1, b + 1), (a, b + 1))
        for x, y in corners:
            i = index(x, y)
            v = vid[i]
            if v < 0:
                v = len(vpoints)
                members = [i, index(-x - y, x), index(y, -x - y)]
                for m in members:
                    vid[m] = v
                vpoints.append(min(red[m] for m in members))
                degrees.append(0)
            degrees[v] += 1
            ids.append(v)
        face_vertices.append(tuple(ids))
    return {
        "_anchors": [(t.anchor.a, t.anchor.b) for t in faces],
        "_orient": bytearray(t.orientation for t in faces),
        "pairing": pairing, "face_vertices": face_vertices,
        "_vpoints": vpoints, "degrees": degrees,
        "_face_of": face_of, "_h1": h1, "_h2": h2, "_va": va,
    }


_CANONICAL_NORM_150 = [
    (a, b) for b in range(1, 13) for a in range(b + 1) if a * a + a * b + b * b <= 150
]


@pytest.mark.parametrize("beta", _CANONICAL_NORM_150 + [
    (4, -1), (-3, 5), (1, 1), (4, 4), (3, 3), (6, 6), (13, 21), (1, 29),
])
def test_build_matches_box_scan_oracle(beta):
    c = build_complex(EisensteinInt(*beta))
    for name, value in _build_by_box_scan(EisensteinInt(*beta)).items():
        assert getattr(c, name) == value, name


def test_neighbor_and_corner_tables_match_the_plane():
    for a, b in [(0, 0), (3, -2), (-5, 7)]:
        for o in (UP, DOWN):
            corners = [(a + da, b + db) for da, db in CORNERS[o]]
            # ccw unit triangle whose corners sum to the tripled centroid
            (x0, y0), (x1, y1), (x2, y2) = corners
            assert (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) == 1
            centroid = PlaneTriangleId(EisensteinInt(a, b), o).centroid_tripled()
            assert (x0 + x1 + x2, y0 + y1 + y2) == centroid
            for s, (da, db, no, ns) in enumerate(NEIGHBOR[o]):
                assert plane_neighbor((a, b), o, s) == ((a + da, b + db), no, ns)
                # the shared side, walked the other way round
                other = [(a + da + ea, b + db + eb) for ea, eb in CORNERS[no]]
                assert (corners[s], corners[(s + 1) % 3]) == (other[(ns + 1) % 3], other[ns])


def test_golden_sequence_leaves_no_per_face_objects():
    # The build, the coloring and every certificate of `eisenfold build`,
    # `color` and `render` read the flat tables: afterwards the complex holds
    # no per-face object that the cyclic garbage collector must trace, and
    # no attribute beyond the flat tables and scalars, so a new per-face
    # cache shows here.
    beta = EisensteinInt(13, 21)
    c = build_complex(beta)
    jsonio.dumps(c.to_json_dict())
    col = coloring.continued_fraction_coloring(beta, c)
    jsonio.dumps(coloring.to_json_dict(col))
    assert coloring.is_good(col).good
    folds = coloring.fold_count(col)
    assert isoperimetric.region_isoperimetric_check(col).fold_total == folds
    coloring.vertex_four_coloring(col)
    render.render_svg(render.RenderSpec(beta=beta))
    gc.collect()
    assert not any(gc.is_tracked(row) for row in c.pairing)
    assert not any(gc.is_tracked(ids) for ids in c.face_vertices)
    assert not any(gc.is_tracked(p) for p in c._anchors)
    assert not any(gc.is_tracked(p) for p in c._vpoints)
    # the faces made at one cell anchor share its tuple
    assert len({id(p) for p in c._anchors}) < c.face_count
    assert set(vars(c)) == {
        "beta", "delta", "face_count", "vertex_count", "_h1", "_h2", "_va",
        "_face_of", "_anchors", "_orient", "_vpoints", "pairing", "face_vertices",
        "degrees",
    }

    # a dict holding only untracked objects stays untracked, so the
    # document's face and vertex dicts give the collector nothing to trace
    probe = tuple([1, 2])
    gc.collect()
    if gc.is_tracked({"k": probe}):
        pytest.skip("this interpreter tracks a dict holding only an untracked tuple")
    doc = c.to_json_dict()
    assert not any(gc.is_tracked(face) for face in doc["faces"])
    assert not any(gc.is_tracked(vertex) for vertex in doc["vertices"])


@pytest.mark.parametrize("beta", _CANONICAL_NORM_150 + [(4, -1), (-3, 5), (2, 4), (3, 3)])
def test_complex_json_matches_list_building_reference(beta):
    c = build_complex(EisensteinInt(*beta))
    want = json.dumps(complex_json_dict(c), separators=(",", ":"))
    assert jsonio.dumps(c.to_json_dict()) == want


def _assert_matches_divmod_build(beta):
    c = build_complex(EisensteinInt(*beta))
    for name, value in divmod_build(EisensteinInt(*beta)).items():
        assert getattr(c, name) == value, (beta, name)


def test_stepping_build_matches_divmod_build_for_every_small_beta():
    for a in range(-13, 14):
        for b in range(-13, 14):
            if (a, b) != (0, 0):
                _assert_matches_divmod_build((a, b))


# (beta, h2): h2 = 3 for (1,76) and (56,89), 1 for (13,21) and (3,125), and
# 2, 5 and 9 for the imprimitive (2,4), (0,5) and (3,3)
@pytest.mark.parametrize("beta, h2", [
    ((1, 76), 3), ((56, 89), 3), ((13, 21), 1), ((3, 125), 1),
    ((2, 4), 2), ((0, 5), 5), ((3, 3), 9),
])
def test_stepping_build_matches_divmod_build(beta, h2):
    assert build_complex(EisensteinInt(*beta))._h2 == h2
    _assert_matches_divmod_build(beta)


@pytest.mark.parametrize("beta, h2", [
    ((2, 3), 1), ((2, 4), 2), ((1, 4), 3), ((0, 5), 5), ((3, 3), 9),
])
def test_column_faces_step_like_face_at(beta, h2):
    c = build_complex(EisensteinInt(*beta))
    assert c._h2 == h2
    rng = random.Random(14)
    R = 3 * (abs(c.delta.a) + abs(c.delta.b)) + 4
    wrapped = 0
    for k in range(300):
        a, lo = rng.randint(-R, R), rng.randint(-R, R)
        if k % 2:
            # start in the last row, whose indices are >= n - h1, so the
            # first step by +alpha wraps into row 0
            lo += (h2 - 1 - lo) % h2
        hi = lo + rng.randint(-1, 4 * h2 + 6)
        wrapped += lo % h2 == h2 - 1 and hi > lo
        for o in (UP, DOWN):
            assert c.column_faces(a, lo, hi, o) == [c.face_at(a, b, o) for b in range(lo, hi + 1)]
    assert wrapped >= 100
