"""Sphere triangulations built as quotients of the planar Eisenstein lattice.

For a nonzero lattice element beta, the symmetry group generated by
order-3 rotations about the points of beta*E contains the translation
lattice delta*E with delta = (2 - alpha) * beta, plus a residual order-3
rotation.  The quotient surface is assembled concretely: unit triangles of
the torus C/(delta*E) are grouped into rotation orbits, which become the
faces of a sphere triangulation with face count 2*norm(beta), vertex count
norm(beta) + 2, and exactly three vertices of degree 2.

Faces are indexed deterministically (sorted by reduced anchor, then
orientation) so serialized output is bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eisenstein import DomainError, EisensteinInt, canonical

# Orientation of a unit triangle: an "up" triangle anchored at z has
# vertices z, z+1, z+alpha (ccw); a "down" triangle anchored at z has
# vertices z+1, z+1+alpha, z+alpha (ccw).
UP, DOWN = 0, 1
_ORIENT_NAMES = ("up", "down")


@dataclass(frozen=True, slots=True)
class PlaneTriangleId:
    """One unit triangle of the planar equilateral triangulation."""

    anchor: EisensteinInt
    orientation: int  # UP or DOWN

    def vertices(self) -> tuple[EisensteinInt, EisensteinInt, EisensteinInt]:
        a, b = self.anchor.a, self.anchor.b
        if self.orientation == UP:
            return (EisensteinInt(a, b), EisensteinInt(a + 1, b), EisensteinInt(a, b + 1))
        return (EisensteinInt(a + 1, b), EisensteinInt(a + 1, b + 1), EisensteinInt(a, b + 1))

    def centroid_tripled(self) -> tuple[int, int]:
        a, b = self.anchor.a, self.anchor.b
        if self.orientation == UP:
            return (3 * a + 1, 3 * b + 1)
        return (3 * a + 2, 3 * b + 2)


def plane_neighbor(anchor: tuple[int, int], orientation: int, side: int):
    """The triangle sharing the given side, with the matching side index."""
    a, b = anchor
    if orientation == UP:
        return (((a, b - 1), DOWN, 1), ((a, b), DOWN, 2), ((a - 1, b), DOWN, 0))[side]
    return (((a + 1, b), UP, 2), ((a, b + 1), UP, 0), ((a, b), UP, 1))[side]


@dataclass(frozen=True, slots=True)
class VertexOrbit:
    point: EisensteinInt  # representative lattice point, reduced
    degree: int


class QuotientComplex:
    """Faces, edge pairings, and vertex orbits of the quotient sphere.

    Immutable after construction, apart from the vertex -> (face, corner)
    start index that the first `vertex_star` call fills in; safe to share
    across concurrent readers (racing readers build equal indexes).
    """

    _star_starts: list[tuple[int, int]] | None = None

    def __init__(self, beta: EisensteinInt):
        if beta.is_zero():
            raise DomainError("beta must be nonzero")
        self.beta = canonical(beta)
        self.delta = EisensteinInt(2, -1) * self.beta
        self._build()

    # -- construction -----------------------------------------------------

    def _reduce(self, a: int, b: int) -> tuple[int, int]:
        """Representative of a + b*alpha modulo delta*E (fundamental cell)."""
        d1, d2 = self.delta.a, self.delta.b
        n = self._norm_delta
        m = a * (d1 + d2) + b * d2
        k = b * d1 - a * d2
        fu, fv = m // n, k // n
        return (a - fu * d1 + fv * d2, b - fu * d2 - fv * (d1 + d2))

    def _rotate_face(self, a: int, b: int, o: int) -> tuple[int, int, int]:
        """Order-3 rotation z -> alpha^2 z on torus faces, anchor reduced."""
        ra, rb = -a - b, a
        if o == UP:
            ra -= 1
        else:
            ra -= 2
        ra, rb = self._reduce(ra, rb)
        return (ra, rb, o)

    def _build(self) -> None:
        delta = self.delta
        d1, d2 = delta.a, delta.b
        n = self._norm_delta = delta.norm()

        corners = [(0, 0), (d1, d2), (-d2, d1 + d2), (d1 - d2, d1 + 2 * d2)]
        amin = min(c[0] for c in corners) - 1
        amax = max(c[0] for c in corners) + 1
        bmin = min(c[1] for c in corners) - 1
        bmax = max(c[1] for c in corners) + 1
        anchors = []
        for a in range(amin, amax + 1):
            m_base = a * (d1 + d2)
            k_base = -a * d2
            for b in range(bmin, bmax + 1):
                if 0 <= m_base + b * d2 < n and 0 <= k_base + b * d1 < n:
                    anchors.append((a, b))
        if len(anchors) != n:
            raise AssertionError(f"found {len(anchors)} anchors, expected {n}")

        # rotation orbits of torus faces; every orbit has exactly 3 members
        torus: dict[tuple[int, int, int], tuple[int, int]] = {}
        reps: list[tuple[int, int, int]] = []
        for a, b in anchors:
            for o in (UP, DOWN):
                if (a, b, o) in torus:
                    continue
                t0 = (a, b, o)
                t1 = self._rotate_face(*t0)
                t2 = self._rotate_face(*t1)
                orbit = (t0, t1, t2)
                if len(set(orbit)) != 3 or self._rotate_face(*t2) != t0:
                    raise AssertionError(f"degenerate rotation orbit at {t0}")
                rep = min(orbit)
                shift = orbit.index(rep)
                for j, t in enumerate(orbit):
                    # k = rotation applications carrying t onto rep; side
                    # labels shift by +k under each application
                    torus[t] = (len(reps), (shift - j) % 3)
                reps.append(rep)
        reps_sorted = sorted(reps)
        renumber = {old: new for new, old in
                    enumerate(sorted(range(len(reps)), key=lambda i: reps[i]))}
        self._torus = {t: (renumber[f], k) for t, (f, k) in torus.items()}
        self.faces = [
            PlaneTriangleId(EisensteinInt(a, b), o) for (a, b, o) in reps_sorted
        ]
        self.face_count = len(self.faces)
        if self.face_count != 2 * self.beta.norm():
            raise AssertionError("face count must be 2*norm(beta)")

        # edge pairing: cross each side in the plane, project, shift side by k
        pairing: list[list[tuple[int, int]]] = []
        for tri in self.faces:
            row = []
            pa, pb = tri.anchor.a, tri.anchor.b
            for s in range(3):
                (na, nb), no, ns = plane_neighbor((pa, pb), tri.orientation, s)
                f2, k = self._torus[(*self._reduce(na, nb), no)]
                row.append((f2, (ns + k) % 3))
            pairing.append(row)
        for i, row in enumerate(pairing):
            for s, (j, s2) in enumerate(row):
                if pairing[j][s2] != (i, s) or (j, s2) == (i, s):
                    raise AssertionError("edge pairing is not a free involution")
        self.pairing = pairing

        # vertex orbits under the residual rotation, with degrees
        vid: dict[tuple[int, int], int] = {}
        vpoints: list[tuple[int, int]] = []
        degrees: list[int] = []
        face_vertices: list[tuple[int, int, int]] = []
        for tri in self.faces:
            ids = []
            for p in tri.vertices():
                key = self._vertex_class(p.a, p.b)
                i = vid.get(key)
                if i is None:
                    i = vid[key] = len(vpoints)
                    vpoints.append(key)
                    degrees.append(0)
                degrees[i] += 1
                ids.append(i)
            face_vertices.append(tuple(ids))
        self.face_vertices = face_vertices
        self.vertices = [
            VertexOrbit(EisensteinInt(*p), degrees[i]) for i, p in enumerate(vpoints)
        ]
        self.vertex_count = len(self.vertices)
        if self.vertex_count != self.beta.norm() + 2:
            raise AssertionError("vertex count must be norm(beta) + 2")
        flat = sorted(degrees)
        if flat[:3] != [2, 2, 2] or any(d != 6 for d in flat[3:]):
            raise AssertionError(f"unexpected degree multiset {flat}")

    def _vertex_class(self, a: int, b: int) -> tuple[int, int]:
        p0 = self._reduce(a, b)
        p1 = self._reduce(-p0[0] - p0[1], p0[0])
        p2 = self._reduce(-p1[0] - p1[1], p1[0])
        return min(p0, p1, p2)

    # -- queries -----------------------------------------------------------

    def lift(self, face: int) -> PlaneTriangleId:
        """The canonical planar representative of a face (section of project)."""
        return self.faces[face]

    def project(self, tri: PlaneTriangleId) -> int:
        """Face index of any planar triangle's orbit; constant on orbits."""
        key = (*self._reduce(tri.anchor.a, tri.anchor.b), tri.orientation)
        return self._torus[key][0]

    def degree_sequence(self) -> list[int]:
        return sorted(v.degree for v in self.vertices)

    def vertex_star(self, v: int) -> list[int]:
        """Faces around vertex v in cyclic order (length = degree).

        The walk starts at v's first corner in face order.
        """
        if not 0 <= v < self.vertex_count:
            raise DomainError(f"no such vertex {v}")
        starts = self._star_starts
        if starts is None:
            starts = [None] * self.vertex_count
            for f, ids in enumerate(self.face_vertices):
                for c, u in enumerate(ids):
                    if starts[u] is None:
                        starts[u] = (f, c)
            self._star_starts = starts
        start = starts[v]
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
            if len(cycle) > self.vertices[v].degree:
                raise AssertionError("vertex star does not close up")
        if len(cycle) != self.vertices[v].degree:
            raise AssertionError("star length disagrees with degree")
        return cycle

    def edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Each glued side pair once, as ((f, s), (f2, s2)) with (f, s) minimal."""
        out = []
        for f, row in enumerate(self.pairing):
            for s, (f2, s2) in enumerate(row):
                if (f, s) < (f2, s2):
                    out.append(((f, s), (f2, s2)))
        return out

    def to_json_dict(self) -> dict:
        from .jsonio import jint

        return {
            "schema": "complex.v1",
            "beta": [jint(self.beta.a), jint(self.beta.b)],
            "delta": [jint(self.delta.a), jint(self.delta.b)],
            "faces": [
                {
                    "anchor": [jint(t.anchor.a), jint(t.anchor.b)],
                    "orientation": _ORIENT_NAMES[t.orientation],
                }
                for t in self.faces
            ],
            "pairing": [
                [f, s, f2, s2] for (f, s), (f2, s2) in self.edges()
            ],
            "vertices": [
                {
                    "degree": v.degree,
                    "representative_lattice_point": [jint(v.point.a), jint(v.point.b)],
                }
                for v in self.vertices
            ],
        }


def build_complex(beta: EisensteinInt) -> QuotientComplex:
    """Quotient triangulation for any nonzero beta (primitivity not required)."""
    return QuotientComplex(beta)


def degree_sequence(c: QuotientComplex) -> list[int]:
    return c.degree_sequence()
