"""Sphere triangulations built as quotients of the planar Eisenstein lattice.

For a nonzero lattice element beta, the symmetry group generated by
order-3 rotations about the points of beta*E contains the translation
lattice delta*E with delta = (2 - alpha) * beta, plus a residual order-3
rotation.  The quotient surface is assembled concretely: unit triangles of
the torus C/(delta*E) are grouped into rotation orbits, which become the
faces of a sphere triangulation with face count 2*norm(beta), vertex count
norm(beta) + 2, and exactly three vertices of degree 2.

Every torus point has an integer index.  With the Hermite basis (h1, 0),
(va, h2) of delta*E, where h1*h2 = norm(delta), the point a + b*alpha has
index (b mod h2)*h1 + (a - floor(b/h2)*va) mod h1 (`QuotientComplex._index`,
the one place that formula is written), so a plane triangle
(a, b, orientation o) sits at torus face 2*index + o.  One flat table over
these 2*norm(delta) slots gives each plane triangle's quotient face
(`QuotientComplex.face_at`); building the complex, painting a coloring and
rendering look faces up there, developing a coloring's regions reads them
from the edge pairing, and all of them cross sides and find corners
through the constant tables `NEIGHBOR` and `CORNERS`.

The index i = j*h1 + x of the point x + j*alpha (0 <= x < h1, 0 <= j < h2)
moves by unit steps without a divmod.  A step by +-1 stays in its row and
wraps at the row end.  A step by +alpha adds h1, and an index i + h1 >=
n = norm(delta) wraps to (i + h1 - n - va) mod h1 in row 0; -alpha is its
inverse.  The rotation z -> alpha^2 z takes z + alpha to alpha^2 z - 1,
so along a column the rotated index steps by -1.  The build walks each
column of the fundamental cell this way after one divmod at its foot, and
`QuotientComplex.column_faces` lists the faces of one column for painting.

Faces are named in scan order: the anchors of one fundamental cell are
visited in lexicographic order, and a face is numbered when the first of
its three rotation copies is met.  No sort is needed, and serialized
output is bit-stable.
"""

from __future__ import annotations

import sys
from itertools import chain, islice

from .eisenstein import DomainError, EisensteinInt, canonical

# Orientation of a unit triangle: an "up" triangle anchored at z has
# vertices z, z+1, z+alpha (ccw); a "down" triangle anchored at z has
# vertices z+1, z+1+alpha, z+alpha (ccw).
UP, DOWN = 0, 1
_ORIENT_NAMES = ("up", "down")

# CORNERS[o]: offsets from the anchor of the ccw corners of a triangle of
# orientation o; side s runs from corner s to corner s + 1.
CORNERS = (((0, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 1)))

# NEIGHBOR[o][s] = (da, db, no, ns): across side s, the triangle (a, b, o)
# meets the triangle (a + da, b + db, no) along that triangle's side ns.
NEIGHBOR = (
    ((0, -1, DOWN, 1), (0, 0, DOWN, 2), (-1, 0, DOWN, 0)),
    ((1, 0, UP, 2), (0, 1, UP, 0), (0, 0, UP, 1)),
)

# The fundamental cell {m/n delta + k/n delta*alpha : 0 <= m, k < n} keeps
# its two sides through 0 and opens its two far sides.
CELL_OPEN_SIDES = (1, 2)


def cell(delta: EisensteinInt, k: int) -> tuple[tuple[int, int], ...]:
    """Ccw corners 0, k delta, k (delta + delta*alpha), k delta*alpha."""
    d1, d2 = k * delta.a, k * delta.b
    return ((0, 0), (d1, d2), (d1 - d2, d1 + 2 * d2), (-d2, d1 + d2))


def columns(corners, s: int, t: int, open_sides=()):
    """Column intervals of the points (s*a + t, s*b + t) in a convex polygon.

    corners are the (x, y) corners of a convex polygon of positive area in
    ccw order, side i running from corner i to corner i + 1; consecutive
    corners may coincide, and a side of length zero bounds nothing.  Points
    on a side listed in open_sides lie outside.  Yields (a, lo, hi) in
    increasing a for every nonempty column: its points in the polygon are
    exactly those with lo <= b <= hi.

    The point (x, y) is inside the side (ax, ay) -> (ax + ex, ay + ey) when
    ex (y - ay) - ey (x - ax) >= 0, or > 0 if the side is open.  At
    (s*a + t, s*b + t) this reads s ex b >= s ey a + r, with the integer
    r = ey (t - ax) - ex (t - ay), plus 1 if the side is open.  So a side
    with ex > 0 bounds b from below, one with ex < 0 from above, and one
    with ex = 0 bounds a, each by floor division.
    """
    xs = [x for x, _ in corners]
    a0, a1 = -((t - min(xs)) // s), (max(xs) - t) // s
    lower, upper = [], []
    for i, (ax, ay) in enumerate(corners):
        bx, by = corners[(i + 1) % len(corners)]
        ex, ey = bx - ax, by - ay
        r = ey * (t - ax) - ex * (t - ay) + (i in open_sides)
        if ex > 0:
            lower.append((s * ey, r, s * ex))
        elif ex < 0:
            upper.append((s * ey, r, s * ex))
        elif ey > 0:
            a1 = min(a1, -r // (s * ey))
        elif ey < 0:
            a0 = max(a0, -(r // (s * ey)))
    for a in range(a0, a1 + 1):
        lo = max([-((-u * a - r) // d) for u, r, d in lower])
        hi = min([(u * a + r) // d for u, r, d in upper])
        if lo <= hi:
            yield a, lo, hi


class QuotientComplex:
    """Faces, edge pairings, and vertex orbits of the quotient sphere.

    Each of a face's three rotation copies has one anchor in the cell
    {m/n delta + k/n delta*alpha : 0 <= m, k < n}, n = norm(delta); the
    face is named by the lexicographically least of the three, and faces
    are numbered in that order.  `face_at` maps any plane triangle to its
    face through the torus index.

    The complex is held in flat tables of ints and tuples of ints:
    `_anchors` gives face f's anchor (a, b), one tuple per cell anchor
    shared by the faces and the vertex point made there, and the bytearray
    `_orient` its orientation; `_vpoints` and `degrees` give vertex v's
    reduced representative point and degree, `face_vertices` the ccw
    corners of each face and `pairing` one tuple row of three (face, side)
    pairs per face.  The cyclic garbage collector untracks such a tuple
    when a collection finds nothing trackable in it; right after a (56,89)
    build in a fresh Python 3.11 process, 2,322 of the 32,082 pairing rows
    are still tracked, 1,820 of them in the oldest generation, which only a
    full collection scans.
    `to_json_dict` puts these tuples into the document as they are, so its
    face and vertex dicts hold nothing the collector must trace.

    Immutable after construction, apart from the table of vertex stars
    that the first `vertex_stars` call fills in; safe to share across
    concurrent readers (racing readers build equal values).
    """

    _stars: tuple[tuple[int, ...], ...] | None = None

    def __init__(self, beta: EisensteinInt):
        if beta.is_zero():
            raise DomainError("beta must be nonzero")
        self.beta = canonical(beta)
        self.delta = EisensteinInt(2, -1) * self.beta
        if 2 * self.delta.norm() > sys.maxsize:
            raise DomainError(
                f"beta {self.beta} is too large: its torus has more than {sys.maxsize} triangles"
            )
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        delta = self.delta
        d1, d2 = delta.a, delta.b
        n = delta.norm()
        # every n-long table is made by repetition before any loop runs, so
        # a size that cannot be allocated fails at once.  A vertex orbit is
        # named by the index of its least point.
        face_of = [-1] * (2 * n)
        shift_of = bytearray(2 * n)
        orbit_of = [-1] * n  # index -> its orbit's name
        point_at: list[tuple[int, int] | None] = [None] * n  # name -> least point
        vertex_of = [-1] * n  # name -> vertex
        seen = bytearray(n)

        # Hermite basis (h1, 0), (va, h2) of delta*E from an extended gcd of
        # the second coordinates d2 and d1 + d2 of delta and delta*alpha
        r0, r1, x0, x1, y0, y1 = d2, d1 + d2, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        h2, va = r0, x0 * d1 - y0 * d2  # x0*delta + y0*delta*alpha = (va, h2)
        h1 = n // h2
        self._h1, self._h2, self._va = h1, h2, va
        index = self._index

        # unit steps between indices, as spans of one list of the indices:
        # R = +1 and L = -1 wrap at the row end, U = +alpha and D = -alpha
        # wrap between the last row and row 0 with a shift by va.  The spans
        # are joined from iterators and idx lives to the end: freeing a large
        # temporary list this early makes the C allocator keep the build's
        # growing lists on its heap, which then holds about 2 MB afterwards.
        idx = list(range(n))

        def joined(*spans):
            return list(chain.from_iterable(islice(idx, lo, hi) for lo, hi in spans))

        c, e = -va % h1, va % h1
        R, L = joined((1, n), (0, 1)), joined((n - 1, n), (0, n - 1))
        for s in range(0, n, h1):
            R[s + h1 - 1], L[s] = idx[s], idx[s + h1 - 1]
        U = joined((h1, n), (c, h1), (0, c))
        D = joined((n - h1 + e, n), (n - h1, n - h1 + e), (0, n - h1))

        # anchors z = a + b*alpha of the fundamental cell, in lexicographic
        # order: the cell 0, delta, delta + delta*alpha, delta*alpha with its
        # two far sides open.  The residual rotation z -> alpha^2 z has order
        # 3 and takes z + alpha to alpha^2 z - 1 and alpha^4 z to
        # alpha^4 z + 1 - alpha, so a column climbs by U while the indices r1
        # of alpha^2 z and r2 of alpha^4 z step by L and by R then D.  The
        # torus faces 2i + o of each anchor, and its vertex i, join rotation
        # orbits of exactly 3 members; the first member met is the least.
        cols = list(columns(cell(delta, 1), 1, 0, CELL_OPEN_SIDES))
        anchor_pts: list[tuple[int, int]] = []  # each face's anchor (a, b)
        orient = bytearray()  # each face's orientation
        anchor_of: list[int] = []  # index of each face's anchor
        anchors = 0
        for a, lo, hi in cols:
            i, r1, r2 = index(a, lo), index(-a - lo, a), index(lo, -a - lo)
            for b in range(lo, hi + 1):
                if seen[i]:
                    first = next(
                        (x, y) for x, l, h in cols for y in range(l, h + 1) if index(x, y) == i
                    )
                    raise AssertionError(f"anchors {first} and {(a, b)} share torus index {i}")
                seen[i] = 1
                p = (a, b)
                if orbit_of[i] < 0:
                    orbit_of[i] = orbit_of[r1] = orbit_of[r2] = i
                    point_at[i] = p
                # the up copies are anchored at alpha^2 z - 1 and alpha^4 z -
                # alpha, the down copies at alpha^2 z - 2 and alpha^4 z - 2 alpha.
                # k = rotation applications carrying a member onto the
                # representative; side labels shift by +k under each
                t0 = 2 * i
                if face_of[t0] < 0:
                    t1, t2 = 2 * L[r1], 2 * D[r2]
                    if t0 == t1 or t1 == t2 or t2 == t0:
                        raise AssertionError(f"degenerate rotation orbit at {(a, b, UP)}")
                    face_of[t0] = face_of[t1] = face_of[t2] = len(orient)
                    shift_of[t1], shift_of[t2] = 2, 1
                    anchor_pts.append(p)
                    orient.append(UP)
                    anchor_of.append(i)
                t0 += 1
                if face_of[t0] < 0:
                    t1, t2 = 2 * L[L[r1]] + 1, 2 * D[D[r2]] + 1
                    if t0 == t1 or t1 == t2 or t2 == t0:
                        raise AssertionError(f"degenerate rotation orbit at {(a, b, DOWN)}")
                    face_of[t0] = face_of[t1] = face_of[t2] = len(orient)
                    shift_of[t1], shift_of[t2] = 2, 1
                    anchor_pts.append(p)
                    orient.append(DOWN)
                    anchor_of.append(i)
                i, r1, r2 = U[i], L[r1], D[R[r2]]
            anchors += hi - lo + 1
        if anchors != n:
            raise AssertionError(f"found {anchors} anchors, expected {n}")
        self._face_of = face_of
        self.face_count = len(orient)
        if self.face_count != 2 * self.beta.norm():
            raise AssertionError("face count must be 2*norm(beta)")

        # edge pairing: step across each side (NEIGHBOR), look the neighbour
        # up, shift its side by k.  The corners (CORNERS) are steps too, and
        # vertex orbits are numbered in order of first corner.
        #
        # A free involution: each pair of sides is checked once, when its
        # later face is written.  A side whose partner lies on an earlier
        # face must be that side's partner in turn, and no side may meet its
        # own face.  The sides with a later partner, D, then receive every
        # side with an earlier one, E, one to one; so |D| = 3F/2 = |E| makes
        # the pairing a bijection E -> D that is its own inverse.
        pairing: list[tuple[tuple[int, int], ...]] = []
        face_vertices: list[tuple[int, int, int]] = []
        vpoints: list[tuple[int, int]] = []
        degrees: list[int] = []
        later = 0
        for f, (o, i) in enumerate(zip(orient, anchor_of)):
            if o == UP:
                t0, t1, t2 = 2 * D[i] + 1, 2 * i + 1, 2 * L[i] + 1
                k0, k1, k2 = i, R[i], U[i]
            else:
                k0 = R[i]
                t0, t1, t2 = 2 * k0, 2 * U[i], 2 * i
                k1, k2 = U[k0], U[i]
            # the neighbour across side s meets it along its side s + 1 + o
            g0, s0 = face_of[t0], (1 + o + shift_of[t0]) % 3
            g1, s1 = face_of[t1], (2 + o + shift_of[t1]) % 3
            g2, s2 = face_of[t2], (o + shift_of[t2]) % 3
            if g0 > f:
                later += 1
            elif g0 == f or pairing[g0][s0] != (f, 0):
                raise AssertionError("edge pairing is not a free involution")
            if g1 > f:
                later += 1
            elif g1 == f or pairing[g1][s1] != (f, 1):
                raise AssertionError("edge pairing is not a free involution")
            if g2 > f:
                later += 1
            elif g2 == f or pairing[g2][s2] != (f, 2):
                raise AssertionError("edge pairing is not a free involution")
            pairing.append(((g0, s0), (g1, s1), (g2, s2)))
            u = orbit_of[k0]
            v0 = vertex_of[u]
            if v0 < 0:
                v0 = vertex_of[u] = len(vpoints)
                vpoints.append(point_at[u])
                degrees.append(0)
            degrees[v0] += 1
            u = orbit_of[k1]
            v1 = vertex_of[u]
            if v1 < 0:
                v1 = vertex_of[u] = len(vpoints)
                vpoints.append(point_at[u])
                degrees.append(0)
            degrees[v1] += 1
            u = orbit_of[k2]
            v2 = vertex_of[u]
            if v2 < 0:
                v2 = vertex_of[u] = len(vpoints)
                vpoints.append(point_at[u])
                degrees.append(0)
            degrees[v2] += 1
            face_vertices.append((v0, v1, v2))
        if 2 * later != 3 * len(pairing):
            raise AssertionError("edge pairing is not a free involution")
        self.pairing = pairing
        self.face_vertices = face_vertices
        self._anchors = anchor_pts
        self._orient = orient
        self._vpoints = vpoints
        self.degrees = degrees
        self.vertex_count = len(vpoints)
        if self.vertex_count != self.beta.norm() + 2:
            raise AssertionError("vertex count must be norm(beta) + 2")
        flat = sorted(degrees)
        if flat[:3] != [2, 2, 2] or any(d != 6 for d in flat[3:]):
            raise AssertionError(f"unexpected degree multiset {flat}")

    def _index(self, a: int, b: int) -> int:
        """Torus index of the point a + b*alpha."""
        q, j = divmod(b, self._h2)
        return j * self._h1 + (a - q * self._va) % self._h1

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        # nothing but the canonical beta enters the build
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.beta == other.beta

    def __hash__(self):
        return hash(self.beta)

    def __repr__(self):
        return f"QuotientComplex({self.beta!r})"

    def face_at(self, a: int, b: int, o: int) -> int:
        """Face index of the plane triangle anchored at a + b*alpha with orientation o."""
        return self._face_of[2 * self._index(a, b) + o]

    def column_faces(self, a: int, lo: int, hi: int, o: int) -> list[int]:
        """Faces of the plane triangles (a, b, o) for lo <= b <= hi, in order of b.

        The first index takes one divmod; each next triangle is one step by
        +alpha, 2*h1 torus faces on, and a step past the last row lands in
        row 0 shifted by -va.
        """
        h1, face_of = self._h1, self._face_of
        t = 2 * self._index(a, lo) + o
        step, end = 2 * h1, len(face_of)
        wrap = 2 * (-self._va % h1) - end
        out = []
        for _ in range(lo, hi + 1):
            out.append(face_of[t])
            t += step
            if t >= end:
                t += wrap
                if t >= step:
                    t -= step
        return out

    def degree_sequence(self) -> list[int]:
        return sorted(self.degrees)

    def vertex_stars(self) -> tuple[tuple[int, ...], ...]:
        """Faces around each vertex in cyclic order (length = degree).

        Each walk starts at the vertex's first corner in face order.
        """
        if self._stars is not None:
            return self._stars
        starts = [None] * self.vertex_count
        for f, ids in enumerate(self.face_vertices):
            for c, u in enumerate(ids):
                if starts[u] is None:
                    starts[u] = (f, c)
        stars = []
        for v, start in enumerate(starts):
            cycle = []
            f, c = start
            while True:
                cycle.append(f)
                f2, s2 = self.pairing[f][c]  # side c runs from corner c to c+1
                c2 = s2 if self.face_vertices[f2][s2] == v else (s2 + 1) % 3
                if self.face_vertices[f2][c2] != v:
                    raise AssertionError("vertex walk left the star")
                f, c = f2, c2
                if (f, c) == start:
                    break
                if len(cycle) > self.degrees[v]:
                    raise AssertionError("vertex star does not close up")
            if len(cycle) != self.degrees[v]:
                raise AssertionError("star length disagrees with degree")
            stars.append(tuple(cycle))
        self._stars = tuple(stars)
        return self._stars

    def vertex_star(self, v: int) -> list[int]:
        """The faces around vertex v, as `vertex_stars()[v]` lists them."""
        if not 0 <= v < self.vertex_count:
            raise DomainError(f"no such vertex {v}")
        return list(self.vertex_stars()[v])

    def to_json_dict(self) -> dict:
        from .jsonio import jint

        # every anchor and vertex point lies in the fundamental cell, so its
        # coordinates fit 64 bits when the cell's corners do
        if any(jint(v) != v for corner in cell(self.delta, 1) for v in corner):
            raise AssertionError("fundamental cell exceeds 64-bit coordinates")
        # tuples, which json writes as arrays: the face and vertex dicts
        # then hold only untracked objects, so the collector skips them.
        # Each pair of sides is written once, from its lesser face: a side
        # joins an up face to a down face, so its two faces differ.
        pairs = []
        for f, ((g0, s0), (g1, s1), (g2, s2)) in enumerate(self.pairing):
            if f < g0:
                pairs.append((f, 0, g0, s0))
            if f < g1:
                pairs.append((f, 1, g1, s1))
            if f < g2:
                pairs.append((f, 2, g2, s2))
        return {
            "schema": "complex.v1",
            "beta": [jint(self.beta.a), jint(self.beta.b)],
            "delta": [jint(self.delta.a), jint(self.delta.b)],
            "faces": [
                {"anchor": p, "orientation": _ORIENT_NAMES[o]}
                for p, o in zip(self._anchors, self._orient)
            ],
            "pairing": pairs,
            "vertices": [
                {"degree": d, "representative_lattice_point": p}
                for p, d in zip(self._vpoints, self.degrees)
            ],
        }


def build_complex(beta: EisensteinInt) -> QuotientComplex:
    """Quotient triangulation for any nonzero beta (primitivity not required)."""
    return QuotientComplex(beta)

