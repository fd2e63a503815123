"""Face two-colorings of quotient triangulations and their measurements.

A coloring is good when, around every vertex, the black and white incident
face counts agree mod 3; on these all-even-degree surfaces goodness
automatically strengthens to mod 6 and forces an equal global split of
black and white faces.  Good colorings are exactly the face shadows of
proper vertex 4-colorings, recovered here by deterministic propagation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from ._record import record, setfield
from .eisenstein import DomainError, EisensteinInt, canonicalize, is_primitive
from .flower import BLACK, WHITE, CappedFlower, capped_flower
from .jsonio import decimal_int, jint
from .surface import CORNERS, DOWN, NEIGHBOR, UP, QuotientComplex, columns


class GoodnessError(ValueError):
    """An operation that needs a good coloring received a bad one."""


class DevelopmentError(RuntimeError):
    """A monochrome region failed to develop into an embedded lattice polygon."""


@record(frozen=True)
class FaceColoring:
    def __init__(self, complex: QuotientComplex, colors: tuple[int, ...]):
        setfield(self, "complex", complex)
        setfield(self, "colors", colors)
        if len(colors) != complex.face_count:
            raise DomainError("color array length must equal face count")
        if colors.count(0) + colors.count(1) != len(colors):
            raise DomainError("colors must be 0 (white) or 1 (black)")

    def flipped(self, faces) -> FaceColoring:
        cols = list(self.colors)
        for f in faces:
            cols[f] = 1 - cols[f]
        return FaceColoring(self.complex, tuple(cols))

    def swapped(self) -> FaceColoring:
        return FaceColoring(self.complex, tuple(1 - c for c in self.colors))

    def bitstring(self) -> str:
        return "".join("1" if c == BLACK else "0" for c in self.colors)


@record(frozen=True)
class GoodnessReport:
    def __init__(self, good: bool, violations: tuple[int, ...], mod6: bool):
        setfield(self, "good", good)
        setfield(self, "violations", violations)
        setfield(self, "mod6", mod6)


def alternating_coloring(c: QuotientComplex) -> FaceColoring:
    """Checkerboard coloring by triangle orientation class; always good."""
    colors = tuple(BLACK if o == UP else WHITE for o in c._orient)
    for f, row in enumerate(c.pairing):
        for f2, _ in row:
            if colors[f] == colors[f2]:
                raise AssertionError("dual graph is not bipartite by orientation")
    return FaceColoring(c, colors)


def paint_from_flower(cf: CappedFlower, c: QuotientComplex) -> FaceColoring:
    """Project the flower's plane coloring onto the quotient faces.

    The flower yields one alpha^2-rotation class of its tile; each region
    is painted onto its member triangles, and each quotient face must be
    painted exactly once.  A face's three tile copies are turns of one
    another, so this audits the tile partition and the rotation invariance
    as painting the whole tile three times in one color would.

    A convex quad's triangles (a, b, o) are those whose tripled centroids
    (3a + 1 + o, 3b + 1 + o) it contains, listed by `columns`; no centroid
    lies on a region's boundary, so every side is closed.  Each column's
    faces come from `QuotientComplex.column_faces`.

    A quad is painted as itself or as its turn about 0 by alpha^2 or
    alpha^4, (x, y) -> (-x - y, x) in tripled coordinates, whichever has
    the least x-extent (the earliest on a tie): the fewest columns, so a
    long thin trapezoid is scanned along its length.  The turn is in the
    quotient's symmetry group and keeps orientation, so each turned
    triangle is a copy of the same face.
    """
    colors = [-1] * c.face_count
    for kind, data, color in cf.regions():
        if kind == "fill":
            x, y = data
            o = UP if x % 3 == 1 else DOWN  # tripled centroid 3z + (1 + o)(1 + alpha)
            faces = (c.face_at((x - 1 - o) // 3, (y - 1 - o) // 3, o),)
        else:
            turned = [(-x - y, x) for x, y in data]
            quad = min(
                (data, turned, [(-x - y, x) for x, y in turned]),
                key=lambda q: max(x for x, _ in q) - min(x for x, _ in q),
            )
            faces = [f for o in (UP, DOWN) for a, lo, hi in columns(quad, 3, 1 + o)
                     for f in c.column_faces(a, lo, hi, o)]
        for f in faces:
            if colors[f] >= 0:
                raise AssertionError(f"face {f} painted twice")
            colors[f] = color
    if -1 in colors:
        raise AssertionError(f"face {colors.index(-1)} not painted")
    return FaceColoring(c, tuple(colors))


def continued_fraction_coloring(
    beta: EisensteinInt,
    c: QuotientComplex | None = None,
    fill_phase: int = 0,
) -> FaceColoring:
    """The quotient of the capped-flower plane coloring; good by construction."""
    if beta.is_zero() or not is_primitive(beta):
        raise DomainError("continued-fraction coloring needs primitive beta")
    if c is None:
        c = QuotientComplex(beta)
    elif (c.beta.a, c.beta.b) != canonicalize(beta):
        raise DomainError("complex does not belong to beta")
    if c.beta.a < 1:
        raise DomainError(f"degenerate beta {c.beta}: the flower needs 1 <= a <= b")
    cf = capped_flower(c.beta, fill_phase=fill_phase)
    return paint_from_flower(cf, c)


def scaled_coloring(col: FaceColoring, c: QuotientComplex) -> FaceColoring:
    """col, a coloring of T(beta'), drawn on c = T(k beta') for an integer
    k >= 1: each face takes the color of the T(beta') triangle that holds
    its centroid once the plane is shrunk by k.  Goodness and balance carry
    over, and every fold of col becomes k folds.

    Face (a, b, o) has the tripled centroid (3a + 1 + o, 3b + 1 + o).
    divmod by 3k gives the anchor of the T(beta') cell holding it and the
    offsets rx, ry in that cell; the triangle is down when rx + ry > 3k.
    Neither offset nor their sum is a multiple of 3, so no centroid lies
    on a side.
    """
    small = col.complex
    k = c.beta.b // small.beta.b  # a canonical beta has b >= 1
    if k < 1 or c.beta != EisensteinInt(k * small.beta.a, k * small.beta.b):
        raise DomainError(f"beta {c.beta} is not a positive integer multiple of {small.beta}")
    colors, face_at, n = col.colors, small.face_at, 3 * k
    out = []
    for (a, b), o in zip(c._anchors, c._orient):
        x, rx = divmod(3 * a + 1 + o, n)
        y, ry = divmod(3 * b + 1 + o, n)
        out.append(colors[face_at(x, y, DOWN if rx + ry > n else UP)])
    return FaceColoring(c, tuple(out))


def is_good(col: FaceColoring) -> GoodnessReport:
    """Mod-3 balance of black and white around every vertex, with mod-6 flag."""
    # x[v] = black minus white corners at v
    x = [0] * col.complex.vertex_count
    for (u, v, w), color in zip(col.complex.face_vertices, col.colors):
        s = 1 if color == BLACK else -1
        x[u] += s
        x[v] += s
        x[w] += s
    violations = tuple(v for v, d in enumerate(x) if d % 3)
    mod6 = all(d % 6 == 0 for d in x)
    return GoodnessReport(not violations, violations, mod6)


def fold_count(col: FaceColoring) -> int:
    """Number of edges whose two glued faces differ in color."""
    colors = col.colors
    total = 0
    for f, row in enumerate(col.complex.pairing):
        for f2, _ in row:
            if colors[f] != colors[f2]:
                total += 1
    return total // 2


def color_balance(col: FaceColoring) -> tuple[int, int]:
    black = sum(1 for c in col.colors if c == BLACK)
    return black, len(col.colors) - black


def eta(col: FaceColoring) -> Fraction:
    """Squared fold count per face, exactly."""
    f = fold_count(col)
    return Fraction(f * f, col.complex.face_count)


# ---------------------------------------------------------------------------
# Proper vertex 4-colorings


# _PARITY[(x, y, z)]: sign of the permutation (x, y, z, w) of 0..3, for
# the 24 ordered triples of distinct colors; a repeated color has no entry
_PARITY = {
    p[:3]: (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
    for p in permutations(range(4))
}

# _THIRD[(p, q, t)]: the color k for which (k, p, q) has parity t.  An
# improper pair p == q gets p back, which no proper face can take, so the
# final per-face check of vertex_four_coloring rejects it.
_THIRD = {(p, q, t): k for (k, p, q), t in _PARITY.items()}
_THIRD.update({(p, p, t): p for p in range(4) for t in (1, -1)})


def vertex_four_coloring(col: FaceColoring) -> list[int]:
    """Proper vertex 4-coloring whose orientation classes reproduce col.

    Walking ccw around a black face reads an even permutation of its three
    colors, around a white face an odd one.  Propagation is deterministic
    BFS from face 0, whose first corner, vertex 0, takes color 0; a
    contradiction means the input was not good.
    """
    report = is_good(col)
    if not report.good:
        raise GoodnessError(f"coloring is not good at vertices {report.violations[:6]}")
    c = col.complex
    target = [1 if x == BLACK else -1 for x in col.colors]
    vcolor = [-1] * c.vertex_count

    v0, v1, _ = c.face_vertices[0]
    vcolor[v0], vcolor[v1] = 0, 1

    # BFS over faces; a face with one uncolored corner gets the unused
    # color of its orientation parity from _THIRD.  Rotating the corners so
    # the missing one comes first is a 3-cycle and keeps the parity.  The
    # final loop checks every face.
    face_vertices = c.face_vertices
    seen = [False] * c.face_count
    seen[0] = True
    queue = [0]
    for f in queue:
        a, b, cc = face_vertices[f]
        x, y, z = vcolor[a], vcolor[b], vcolor[cc]
        if (x < 0) + (y < 0) + (z < 0) == 1:
            v, p, q = (a, y, z) if x < 0 else (b, z, x) if y < 0 else (cc, x, y)
            vcolor[v] = _THIRD[(p, q, target[f])]
        for f2, _ in c.pairing[f]:
            if not seen[f2]:
                seen[f2] = True
                queue.append(f2)
    if len(queue) != c.face_count or any(x < 0 for x in vcolor):
        raise AssertionError("propagation did not reach the whole surface")

    for f, (a, b, cc) in enumerate(c.face_vertices):
        if _PARITY.get((vcolor[a], vcolor[b], vcolor[cc])) != target[f]:
            raise GoodnessError(f"verification failed at face {f}")
    return vcolor


def induced_face_coloring(c: QuotientComplex, vcolor: list[int]) -> FaceColoring:
    """Face coloring read back from a proper vertex 4-coloring."""
    colors = []
    for a, b, cc in c.face_vertices:
        sign = _PARITY.get((vcolor[a], vcolor[b], vcolor[cc]))
        if sign is None:
            raise DomainError("vertex coloring is not proper on some face")
        colors.append(BLACK if sign > 0 else WHITE)
    return FaceColoring(c, tuple(colors))


# ---------------------------------------------------------------------------
# Monochrome regions


# _SIDES[o][k]: for a face placed as a plane triangle of orientation o whose
# plane side s is its side (s + k) % 3, one row per plane side s:
# (da, db, ns, face side, ua, ub, va, vb).  The neighbour across it is
# anchored da, db away and meets it along its plane side ns; the side runs
# from the corner (ua, ub) to the corner (va, vb), both offsets from the
# anchor.
_SIDES = tuple(
    tuple(
        tuple(
            (da, db, ns, (s + k) % 3, *CORNERS[o][s], *CORNERS[o][(s + 1) % 3])
            for s, (da, db, _, ns) in enumerate(NEIGHBOR[o])
        )
        for k in range(3)
    )
    for o in (UP, DOWN)
)


@record(frozen=True)
class MonochromeRegion:
    def __init__(self, color: int, faces: frozenset[int], boundary_length: int,
                 lifted_polygon: tuple[EisensteinInt, ...]):
        setfield(self, "color", color)
        setfield(self, "faces", faces)
        setfield(self, "boundary_length", boundary_length)
        setfield(self, "lifted_polygon", lifted_polygon)


def monochrome_regions(col: FaceColoring) -> list[MonochromeRegion]:
    """Edge-connected components of one color, developed into the plane.

    Each region of a good coloring develops isometrically onto a convex
    lattice polygon with interior angles 60 or 120 degrees; failure to
    embed signals a bad input.

    One plane BFS per region, started at its least face on that face's
    canonical anchor, finds, measures and places the region: a side to a
    face of the same color places that face (or checks its earlier spot),
    a side to the other color is one boundary side and one directed edge
    of the polygon.  Regions come out in order of least face.

    Sides are crossed through `c.pairing`.  Each placed face keeps its
    rotation shift k, so that its plane side s is its side (s + k) % 3,
    and the neighbour met along its side s2 at plane side ns has shift
    (s2 - ns) % 3.  The pairing agrees with face_at, which
    test_pairing_respects_planar_adjacency checks, so a spot holds the one
    face that face_at gives it and two faces never share a spot.
    """
    c = col.complex
    colors = col.colors
    anchors, orient = c._anchors, c._orient
    pairing = c.pairing
    spot: list[tuple[int, int] | None] = [None] * c.face_count  # placed anchor
    shift = bytearray(c.face_count)  # placed rotation shift k
    out = []
    for seed, p in enumerate(anchors):
        if spot[seed] is not None:
            continue
        color = colors[seed]
        spot[seed] = p
        queue = [seed]
        edges = []  # boundary sides, ccw, as (start, end) plane points
        for f in queue:
            a, b = spot[f]
            row = pairing[f]
            for da, db, ns, fs, ua, ub, va, vb in _SIDES[orient[f]][shift[f]]:
                f2, s2 = row[fs]
                if colors[f2] != color:
                    edges.append(((a + ua, b + ub), (a + va, b + vb)))
                elif spot[f2] is None:
                    spot[f2] = (a + da, b + db)
                    shift[f2] = (s2 - ns) % 3
                    queue.append(f2)
                elif spot[f2] != (a + da, b + db):
                    raise DevelopmentError("region does not embed in the plane")

        directed = dict(edges)
        if len(directed) != len(edges):
            raise DevelopmentError("region boundary is pinched")
        start = min(directed)
        chain = [start]
        cur = directed[start]
        while cur != start:
            chain.append(cur)
            cur = directed[cur]
        if len(chain) != len(directed):
            raise DevelopmentError("region boundary is disconnected")

        # corner extraction + convexity: every turn must be to the left
        corners = []
        n = len(chain)
        area2 = 0
        for i in range(n):
            p, q, r = chain[i - 1], chain[i], chain[(i + 1) % n]
            d1 = (q[0] - p[0], q[1] - p[1])
            d2 = (r[0] - q[0], r[1] - q[1])
            cross = d1[0] * d2[1] - d1[1] * d2[0]
            if cross < 0:
                raise DevelopmentError("region polygon is not convex")
            if cross > 0:
                corners.append(EisensteinInt(*q))
            area2 += q[0] * r[1] - q[1] * r[0]
        if area2 != len(queue):
            raise DevelopmentError("polygon area disagrees with face count")
        out.append(MonochromeRegion(color, frozenset(queue), len(edges), tuple(corners)))
    return out


def to_json_dict(col: FaceColoring) -> dict:
    report = is_good(col)
    f = fold_count(col)
    e = Fraction(f * f, col.complex.face_count)
    return {
        "schema": "coloring.v1",
        "complex_ref": {"beta": [jint(col.complex.beta.a), jint(col.complex.beta.b)]},
        "colors": col.bitstring(),
        "fold_count": jint(f),
        "eta": [jint(e.numerator), jint(e.denominator)],
        "good": report.good,
    }


def _json_int(x) -> int:
    """An integer as jsonio.jint writes it: a JSON integer, or a decimal
    string for one beyond 64 bits."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        return decimal_int(x)
    raise DomainError(f"expected an integer, got {x!r}")


def from_json_dict(doc: dict) -> FaceColoring:
    if not isinstance(doc, dict) or doc.get("schema") != "coloring.v1":
        raise DomainError("expected a coloring.v1 document")
    ref = doc.get("complex_ref")
    pair = ref.get("beta") if isinstance(ref, dict) else None
    if not isinstance(pair, list) or len(pair) != 2:
        raise DomainError("complex_ref.beta must be a list of two integers")
    beta = EisensteinInt(_json_int(pair[0]), _json_int(pair[1]))
    bits = doc.get("colors")
    if not isinstance(bits, str) or not set(bits) <= {"0", "1"}:
        raise DomainError("colors must be a bitstring of 0s and 1s")
    # T(beta) has 2 norm(beta) faces; checked before the complex is built
    if len(bits) != 2 * beta.norm():
        raise DomainError("color bitstring length disagrees with face count")
    c = QuotientComplex(beta)
    colors = tuple(BLACK if ch == "1" else WHITE for ch in bits)
    return FaceColoring(c, colors)
