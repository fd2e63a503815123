"""Face two-colorings of quotient triangulations and their measurements.

A coloring is good when, around every vertex, the black and white incident
face counts agree mod 3; on these all-even-degree surfaces goodness
automatically strengthens to mod 6 and forces an equal global split of
black and white faces.  Good colorings are exactly the face shadows of
proper vertex 4-colorings, recovered here by deterministic propagation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .eisenstein import DomainError, EisensteinInt, canonicalize, is_primitive
from .flower import BLACK, WHITE, CappedFlower, capped_flower
from .surface import CORNERS, DOWN, NEIGHBOR, UP, QuotientComplex


class GoodnessError(ValueError):
    """An operation that needs a good coloring received a bad one."""


class DevelopmentError(RuntimeError):
    """A monochrome region failed to develop into an embedded lattice polygon."""


@dataclass(frozen=True)
class FaceColoring:
    complex: QuotientComplex
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.complex.face_count:
            raise DomainError("color array length must equal face count")

    def flipped(self, faces) -> FaceColoring:
        cols = list(self.colors)
        for f in faces:
            cols[f] = 1 - cols[f]
        return FaceColoring(self.complex, tuple(cols))

    def swapped(self) -> FaceColoring:
        return FaceColoring(self.complex, tuple(1 - c for c in self.colors))

    def bitstring(self) -> str:
        return "".join("1" if c == BLACK else "0" for c in self.colors)


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    violations: tuple[int, ...]
    mod6: bool


def alternating_coloring(c: QuotientComplex) -> FaceColoring:
    """Checkerboard coloring by triangle orientation class; always good."""
    colors = tuple(BLACK if o == UP else WHITE for _, _, o in c._tris)
    for f, row in enumerate(c.pairing):
        for f2, _ in row:
            if colors[f] == colors[f2]:
                raise AssertionError("dual graph is not bipartite by orientation")
    return FaceColoring(c, colors)


def paint_from_flower(cf: CappedFlower, c: QuotientComplex) -> FaceColoring:
    """Project the flower's plane coloring onto the quotient faces.

    Every region of one fundamental cell is painted onto its member
    triangles; each quotient face must be claimed exactly three times (its
    three rotation copies) with a consistent color, which simultaneously
    audits the tile partition and the rotation invariance.

    A convex quad is painted column by column: the tripled centroid
    (3a + off, 3b + off) of triangle (a, b, o), off = 1 + o, lies on the
    left of a ccw edge (ax, ay) -> (ax + ex, ay + ey) exactly when
    3 ex b >= r with r = ey (3a + off - ax) - ex (off - ay), so each edge
    bounds b from one side and the members of a column form one interval,
    found by integer floor division.
    """
    F = c.face_count
    colors = [-1] * F
    counts = [0] * F
    face_at = c.face_at

    def assign(face: int, color: int) -> None:
        if colors[face] not in (-1, color):
            raise AssertionError(f"inconsistent paint on face {face}")
        colors[face] = color
        counts[face] += 1

    for kind, data, color in cf.regions():
        if kind == "fill":
            x, y = data
            o = UP if x % 3 == 1 else DOWN  # tripled centroid 3z + (1 + o)(1 + alpha)
            assign(face_at((x - 1 - o) // 3, (y - 1 - o) // 3, o), color)
            continue
        quad = data
        edges = [
            (ax, ay, bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(quad, quad[1:] + quad[:1])
            if (ax, ay) != (bx, by)
        ]
        xs = [p[0] for p in quad]
        ys = [p[1] for p in quad]
        b_min, b_max = min(ys) // 3 - 1, max(ys) // 3 + 1
        for a in range(min(xs) // 3 - 1, max(xs) // 3 + 2):
            for o, off in ((UP, 1), (DOWN, 2)):
                px = 3 * a + off
                lo, hi = b_min, b_max
                for ax, ay, ex, ey in edges:
                    r = ey * (px - ax) - ex * (off - ay)
                    if ex > 0:
                        lo = max(lo, -(-r // (3 * ex)))
                    elif ex < 0:
                        hi = min(hi, r // (3 * ex))
                    elif r > 0:
                        hi = lo - 1
                        break
                for b in range(lo, hi + 1):
                    assign(face_at(a, b, o), color)
    if any(n != 3 for n in counts):
        raise AssertionError("tile partition did not cover each face exactly 3 times")
    return FaceColoring(c, tuple(colors))


def continued_fraction_coloring(
    beta: EisensteinInt,
    c: QuotientComplex | None = None,
    swap: bool = False,
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
    cf = capped_flower(c.beta, swap=swap, fill_phase=fill_phase)
    return paint_from_flower(cf, c)


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


def vertex_four_coloring(col: FaceColoring, base: int = 0, base_color: int = 0) -> list[int]:
    """Proper vertex 4-coloring whose orientation classes reproduce col.

    Walking ccw around a black face reads an even permutation of its three
    colors, around a white face an odd one.  Propagation is deterministic
    BFS from `base`; a contradiction means the input was not good.
    """
    report = is_good(col)
    if not report.good:
        raise GoodnessError(f"coloring is not good at vertices {report.violations[:6]}")
    if not 0 <= base_color <= 3:
        raise DomainError("base_color must be in 0..3")
    c = col.complex
    if not 0 <= base < c.vertex_count:
        raise DomainError(f"no such vertex {base}")
    target = [1 if x == BLACK else -1 for x in col.colors]
    vcolor = [-1] * c.vertex_count

    f0 = min(f for f, ids in enumerate(c.face_vertices) if base in ids)
    ids = c.face_vertices[f0]
    k = ids.index(base)
    v0, v1, v2 = ids[k], ids[(k + 1) % 3], ids[(k + 2) % 3]
    vcolor[v0] = base_color
    vcolor[v1] = (base_color + 1) % 4

    def force_third(f: int) -> bool:
        """Fill the single missing corner of f; returns False if untouched."""
        a, b, cc = c.face_vertices[f]
        known = [vcolor[a], vcolor[b], vcolor[cc]]
        missing = [i for i, x in enumerate(known) if x < 0]
        if len(missing) != 1:
            if not missing:
                if _PARITY.get(tuple(known)) != target[f]:
                    raise GoodnessError(f"orientation parity clash at face {f}")
            return False
        i = missing[0]
        used = {x for x in known if x >= 0}
        if len(used) != 2:
            raise GoodnessError(f"repeated vertex colors on face {f}")
        cands = [x for x in range(4) if x not in used]
        trial = list(known)
        picked = None
        for cand in cands:
            trial[i] = cand
            if _PARITY[tuple(trial)] == target[f]:
                picked = cand
                break
        if picked is None:
            raise GoodnessError(f"no consistent color at face {f}")
        vcolor[c.face_vertices[f][i]] = picked
        return True

    force_third(f0)
    seen = {f0}
    queue = [f0]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        for f2, _ in c.pairing[f]:
            if f2 not in seen:
                seen.add(f2)
                force_third(f2)
                queue.append(f2)
    if len(seen) != c.face_count or any(x < 0 for x in vcolor):
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


@dataclass(frozen=True)
class MonochromeRegion:
    color: int
    faces: frozenset[int]
    boundary_length: int
    lifted_polygon: tuple[EisensteinInt, ...]


def monochrome_regions(col: FaceColoring) -> list[MonochromeRegion]:
    """Edge-connected components of one color, developed into the plane.

    Each region of a good coloring develops isometrically onto a convex
    lattice polygon with interior angles 60 or 120 degrees; failure to
    embed signals a bad input.
    """
    c = col.complex
    colors = col.colors
    comp = [-1] * c.face_count
    comps: list[list[int]] = []
    for f in range(c.face_count):
        if comp[f] >= 0:
            continue
        comp[f] = len(comps)
        stack = [f]
        members = [f]
        while stack:
            g = stack.pop()
            for g2, _ in c.pairing[g]:
                if colors[g2] == colors[f] and comp[g2] < 0:
                    comp[g2] = comp[f]
                    stack.append(g2)
                    members.append(g2)
        comps.append(members)

    out = []
    for members in comps:
        region = frozenset(members)
        color = colors[members[0]]
        boundary = 0
        for f in members:
            for f2, _ in c.pairing[f]:
                if colors[f2] != color:
                    boundary += 1
        polygon = _develop(c, colors, region)
        out.append(MonochromeRegion(color, region, boundary, polygon))
    out.sort(key=lambda r: min(r.faces))
    return out


def _develop(c: QuotientComplex, colors, region: frozenset[int]):
    face_at = c.face_at
    seed = min(region)
    t0 = c.lift(seed)
    placed: dict[int, tuple[tuple[int, int], int]] = {
        seed: ((t0.anchor.a, t0.anchor.b), t0.orientation)
    }
    queue = [seed]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        (a, b), o = placed[f]
        for da, db, no, _ in NEIGHBOR[o]:
            na, nb = a + da, b + db
            f2 = face_at(na, nb, no)
            if f2 not in region:
                continue
            spot = ((na, nb), no)
            if f2 in placed:
                if placed[f2] != spot:
                    raise DevelopmentError("region does not embed in the plane")
            else:
                placed[f2] = spot
                queue.append(f2)
    if len(placed) != len(region):
        raise DevelopmentError("region development did not cover the region")
    spots = set(placed.values())
    if len(spots) != len(region):
        raise DevelopmentError("region development is not injective")

    # boundary = directed sides not shared with another placed triangle;
    # side i runs ccw from corner i to corner i + 1
    directed = {}
    for (a, b), o in spots:
        corners = [(a + da, b + db) for da, db in CORNERS[o]]
        for i, (da, db, no, _) in enumerate(NEIGHBOR[o]):
            if ((a + da, b + db), no) in spots:
                continue
            u = corners[i]
            if u in directed:
                raise DevelopmentError("region boundary is pinched")
            directed[u] = corners[(i + 1) % 3]
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
    if area2 != len(region):
        raise DevelopmentError("polygon area disagrees with face count")
    return tuple(corners)


def to_json_dict(col: FaceColoring) -> dict:
    from .jsonio import jint

    report = is_good(col)
    e = eta(col)
    return {
        "schema": "coloring.v1",
        "complex_ref": {"beta": [jint(col.complex.beta.a), jint(col.complex.beta.b)]},
        "colors": col.bitstring(),
        "fold_count": jint(fold_count(col)),
        "eta": [jint(e.numerator), jint(e.denominator)],
        "good": report.good,
    }


def _json_int(x) -> int:
    """An integer as jsonio.jint writes it: a JSON integer, or a decimal
    string for one beyond 64 bits."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        try:
            return int(x)
        except ValueError:  # past the interpreter's digit limit
            pass
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
