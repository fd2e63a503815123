"""Reference implementations that tests compare the library against, and
the small helpers that only tests need."""

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, sqrt

from eisenfold.coloring import (
    DevelopmentError,
    FaceColoring,
    GoodnessError,
    GoodnessReport,
    MonochromeRegion,
    continued_fraction_coloring,
    is_good,
)
from eisenfold.eisenstein import (
    DomainError,
    EisensteinInt,
    canonical,
    continued_fraction_terms,
    is_primitive,
    slow_gauss,
)
from eisenfold.flower import (
    _FILL_DOWN,
    _FILL_UP,
    _maximal_runs,
    BLACK,
    WHITE,
    CappedFlower,
    Necklace,
    Trapezoid,
    cf_eta,
    cf_face_count,
    cf_fold_count,
)
from eisenfold.isoperimetric import SpecialHexagon
from eisenfold.jsonio import jint
from eisenfold.limits import _convergents
from eisenfold.render import _FILL, _xy
from eisenfold.search import IeSweepReport, iter_good_colorings
from eisenfold.surd import QuadraticSurd, periodic_cf_of_surd
from eisenfold.surface import (
    CELL_OPEN_SIDES,
    CORNERS,
    DOWN,
    NEIGHBOR,
    UP,
    QuotientComplex,
    cell,
    columns,
)


# ---------------------------------------------------------------------------
# Plane triangles as objects.  The library names a face by its anchor (a, b)
# in `QuotientComplex._anchors` and its orientation in `_orient`, and finds
# the face of any plane triangle with `face_at`.


@dataclass(frozen=True, slots=True)
class PlaneTriangleId:
    """One unit triangle of the planar equilateral triangulation."""

    anchor: EisensteinInt
    orientation: int  # UP or DOWN

    def centroid_tripled(self) -> tuple[int, int]:
        a, b = self.anchor.a, self.anchor.b
        if self.orientation == UP:
            return (3 * a + 1, 3 * b + 1)
        return (3 * a + 2, 3 * b + 2)


def lift(c: QuotientComplex, face: int) -> PlaneTriangleId:
    """The canonical planar representative of a face (section of project)."""
    if not 0 <= face < c.face_count:
        raise DomainError(f"no such face {face}")
    (a, b), o = c._anchors[face], c._orient[face]
    return PlaneTriangleId(EisensteinInt(a, b), o)


def project(c: QuotientComplex, tri: PlaneTriangleId) -> int:
    """Face index of any planar triangle's orbit; constant on orbits."""
    return c.face_at(tri.anchor.a, tri.anchor.b, tri.orientation)


# ---------------------------------------------------------------------------
# Good colorings: every 2^F coloring filtered by the goodness predicate, and
# a capped list of the library's DFS enumeration.


def brute_force_good_colorings(c: QuotientComplex) -> list[FaceColoring]:
    """Oracle: filter all 2^F colorings by the goodness predicate."""
    if c.face_count > 16:
        raise DomainError("brute force reserved for F <= 16")
    out = []
    for mask in range(1 << c.face_count):
        colors = tuple(
            BLACK if (mask >> i) & 1 else WHITE for i in range(c.face_count)
        )
        col = FaceColoring(c, colors)
        if is_good(col).good:
            out.append(col)
    return out


@dataclass(frozen=True)
class EnumerationResult:
    colorings: tuple[FaceColoring, ...]
    truncated: bool


def enumerate_good_colorings(c: QuotientComplex, cap: int | None = None) -> EnumerationResult:
    """The first `cap` colorings of `iter_good_colorings`, or all of them."""
    out = list(islice(iter_good_colorings(c), None if cap is None else cap + 1))
    truncated = cap is not None and len(out) > cap
    return EnumerationResult(tuple(out[:cap]), truncated)


# ---------------------------------------------------------------------------
# A reference exact-search DFS with a pair of counters per vertex, an assign
# that commits before it checks and an unassign that undoes it.  The
# library's table-driven DFS must visit the same nodes and emit the same
# leaves in the same order.


class ReferenceBudget:
    """A node budget and a deadline, an absolute time.monotonic() instant."""

    def __init__(self, max_nodes=None, deadline=None):
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0

    def spent(self) -> bool:
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        if self.deadline is not None and self.nodes % 2048 == 1:
            return time.monotonic() > self.deadline
        return False


class ReferenceDfs:
    """Backtracking over good colorings with optional fold bounding.

    Per vertex it keeps u, the corners still uncolored, and x, black minus
    white corners.  Goodness needs x = 0 (mod 3) once u = 0, so a vertex
    stays completable unless u = 0 with x != 0, or u = 1 with x = 0
    (mod 3): one more corner moves x by exactly 1.

    `tables` supplies the face order; the earlier neighbours of each face
    and the corner multiplicities are derived here from its complex.
    """

    def __init__(self, tables):
        self.t = tables
        c = tables.c
        pos = {f: k for k, f in enumerate(tables.order)}
        self.earlier = [tuple(g for g, _ in c.pairing[f] if pos[g] < pos[f])
                        for f in range(tables.F)]
        self.corners = [tuple(Counter(ids).items()) for ids in c.face_vertices]
        self.colors = [-1] * tables.F
        self.u = list(c.degrees)
        self.x = [0] * c.vertex_count
        self.nb = 0
        self.nw = 0

    def _assign(self, f: int, color: int) -> bool:
        """Color face f; False if one of its vertices became infeasible."""
        self.colors[f] = color
        if color == BLACK:
            self.nb += 1
            s = 1
        else:
            self.nw += 1
            s = -1
        u, x = self.u, self.x
        ok = True
        for v, m in self.corners[f]:
            r = u[v] = u[v] - m
            y = x[v] = x[v] + s * m
            if r < 2 and (y % 3 == 0) != (r == 0):
                ok = False
        return ok

    def _unassign(self, f: int, color: int) -> None:
        self.colors[f] = -1
        if color == BLACK:
            self.nb -= 1
            s = 1
        else:
            self.nw -= 1
            s = -1
        u, x = self.u, self.x
        for v, m in self.corners[f]:
            u[v] += m
            x[v] -= s * m

    def _fold_deltas(self, f: int) -> tuple[int, int]:
        """Folds that coloring f black, resp. white, adds to the colored part."""
        colors = self.colors
        earlier = self.earlier[f]
        blacks = 0
        for g in earlier:
            blacks += colors[g]  # colored faces hold BLACK = 1 or WHITE = 0
        return len(earlier) - blacks, blacks

    def _prefix(self, k: int) -> str:
        order, colors = self.t.order, self.colors
        return "".join("1" if colors[order[i]] == BLACK else "0" for i in range(k))

    def search(self, k: int, folds: int, bound, budget, emit, frontier,
               value_order=None):
        """DFS from depth k; emit(colors, folds) at leaves with folds <= bound.

        Returns True when the subtree was exhausted.  When the budget runs
        out, every untried branch is appended to `frontier` as (prefix bits,
        folds so far) and False is returned.  An emit that returns true
        stops the search, which then returns None.
        """
        t = self.t
        F, order, half = t.F, t.order, t.F // 2
        stack = []
        while True:
            budget.nodes += 1
            if bound[0] is not None and folds > bound[0]:
                done = True
            elif k == F:
                if emit(tuple(self.colors), folds):
                    return None
                done = True
            elif budget.spent():
                frontier.append((self._prefix(k), folds))
                done = False
            else:
                f = order[k]
                d_black, d_white = self._fold_deltas(f)
                if k == 0:
                    choices = (BLACK,)
                elif value_order is None:
                    choices = (WHITE, BLACK)
                else:
                    choices = value_order(d_black, d_white)
                i, complete, done = 0, True, None
            while True:
                if done is not None:
                    if not stack:
                        return done
                    k, f, choices, i, folds, d_black, d_white, complete, color = stack.pop()
                    self._unassign(f, color)
                    if not done:
                        complete = False
                while i < len(choices):
                    color = choices[i]
                    i += 1
                    if not complete:
                        frontier.append((self._prefix(k) + ("1" if color == BLACK else "0"),
                                         folds))
                        continue
                    if color == BLACK:
                        if self.nb >= half:
                            continue
                        d = d_black
                    else:
                        if self.nw >= half:
                            continue
                        d = d_white
                    if self._assign(f, color):
                        break
                    self._unassign(f, color)
                else:
                    done = complete
                    continue
                stack.append((k, f, choices, i, folds, d_black, d_white, complete, color))
                k, folds = k + 1, folds + d
                break


def reference_expand_prefixes(tables, depth: int) -> list[str]:
    """All feasible assignments of the first `depth` faces (face 0 black)."""
    out: list[str] = []

    def rec(dfs: ReferenceDfs, k: int, bits: str):
        if k == depth:
            out.append(bits)
            return
        f = tables.order[k]
        for color in ((BLACK,) if k == 0 else (WHITE, BLACK)):
            if dfs._assign(f, color):
                rec(dfs, k + 1, bits + ("1" if color == BLACK else "0"))
            dfs._unassign(f, color)

    rec(ReferenceDfs(tables), 0, "")
    return out


# ---------------------------------------------------------------------------
# The slow-Gauss continued fraction: partial quotients recorded as
# comparison exponents along the gauss_star orbit.  The library computes
# them by the Euclidean algorithm (`continued_fraction_euclid`).


def _check_unit_interval(r: Fraction, *, allow_one: bool) -> None:
    if r <= 0:
        raise DomainError(f"{r} is not positive")
    if r > 1 or (r == 1 and not allow_one):
        raise DomainError(f"{r} is outside the domain")


def g_sequence(r: Fraction) -> list[Fraction]:
    """The slow-Gauss orbit of r down to 1/1, listed in reverse.

    Starts at 1/1 and ends at r; numerators are monotone non-decreasing
    along the list because each orbit step can only shrink the numerator.
    """
    _check_unit_interval(r, allow_one=True)
    orbit = [r]
    while orbit[-1] != 1:
        orbit.append(slow_gauss(orbit[-1]))
    orbit.reverse()
    return orbit


def gauss_star(r: Fraction) -> Fraction:
    """Traditional Gauss map q/p - floor(q/p) of r = p/q."""
    _check_unit_interval(r, allow_one=False)
    p, q = r.numerator, r.denominator
    return Fraction(q % p, p)


def comparison_exponent(r: Fraction) -> int:
    """Smallest k with gamma^k(r) = gauss_star(r).

    gauss_star of an integer reciprocal 1/n is 0, which the slow map never
    attains; the orbit is declared terminal at 1/1 instead, giving 1/n the
    exponent n - 1 (so comparison_exponent(1/2) = 1).
    """
    _check_unit_interval(r, allow_one=False)
    target = gauss_star(r)
    if target == 0:
        target = Fraction(1)
    k, cur = 0, r
    while cur != target:
        cur = slow_gauss(cur)
        k += 1
    return k


def continued_fraction(r: Fraction) -> list[int]:
    """Canonical partial quotients [0; a1, ..., am] of r in (0, 1].

    Recorded by walking the gauss_star orbit and logging comparison
    exponents; the terminal integer reciprocal 1/n contributes n.  The
    canonical form has final quotient >= 2, except continued_fraction(1)
    which is [1].
    """
    _check_unit_interval(r, allow_one=True)
    if r == 1:
        return [1]
    quotients = [0]
    cur = r
    while True:
        if cur.numerator == 1:
            quotients.append(cur.denominator)
            return quotients
        quotients.append(comparison_exponent(cur))
        cur = gauss_star(cur)


def evaluate_continued_fraction(terms: list[int]) -> Fraction:
    """The rational [a0; a1, ..., am], evaluated from the last term up."""
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = t + 1 / value
    return value


def lockstep_prefix(x: tuple[int, int], y: tuple[int, int]) -> list[int]:
    """The leading partial quotients that p/q > 0 and p'/q' > 0 share, given
    x = (p, q) and y = (p', q'): exact Euclid on both pairs in lockstep, up
    to the first term where they differ or either one ends.  The library's
    `limits._agreeing_prefix` reads most of these terms in certified chunks
    instead."""
    prefix = []
    for s, t in zip(continued_fraction_terms(*x), continued_fraction_terms(*y)):
        if s != t:
            break
        prefix.append(s)
    return prefix


def tree_children(r: Fraction) -> tuple[Fraction, Fraction]:
    """Children a/(a+b) and b/(a+b) of r = a/b in the rational tree.

    slow_gauss of either child returns r; the root 1/1 has the collapsed
    single child 1/2 (returned twice).
    """
    _check_unit_interval(r, allow_one=True)
    a, b = r.numerator, r.denominator
    return Fraction(a, a + b), Fraction(b, a + b)


def convergents(zeta: QuadraticSurd, count: int) -> list[Fraction]:
    """The first `count` nonzero convergents of the library's walk; for the
    golden aspect the n-th (1-based) is the Fibonacci ratio a_n / a_{n+1}."""
    return [Fraction(h, k) for h, k, _ in islice(_convergents(periodic_cf_of_surd(zeta)), count)]


# ---------------------------------------------------------------------------
# The capped flower's plane coloring classified one triangle at a time: a
# tripled centroid is reduced into the tile lattice's fundamental cell and
# tested for containment in each region.  The library paints regions onto
# faces instead (`coloring.paint_from_flower`).


class ClassificationError(RuntimeError):
    """A plane triangle escaped the region partition; the partition must be exact."""


def point_in_convex(poly, px, py) -> bool:
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        if ex == 0 and ey == 0:
            continue
        if ex * (py - ay) - ey * (px - ax) < 0:
            return False
    return True


def classify_local(cf: CappedFlower, px: int, py: int):
    if (px, py) in _FILL_UP:
        return BLACK
    if (px, py) in _FILL_DOWN:
        return WHITE
    np_ = px * px + px * py + py * py
    for n, color in zip(cf.necklaces, cf.necklace_colors):
        # no point of a level lies past the norm of its outer corners
        a, b = n.aspect.numerator, n.aspect.denominator
        if np_ > 9 * (a * a + a * b + b * b):
            break
        for t in n.trapezoids:
            if point_in_convex(t.quad_tripled(), px, py):
                return color
    for q in cf._caps:
        if point_in_convex(q, px, py):
            return cf.cap_color
    return None


def classify(cf: CappedFlower, cx: int, cy: int) -> int:
    delta = EisensteinInt(2, -1) * cf.beta
    d3a, d3b = 3 * delta.a, 3 * delta.b
    n9 = 9 * delta.norm()
    # reduce into the fundamental cell of the tripled tile lattice
    m = cx * (d3a + d3b) + cy * d3b
    k = cy * d3a - cx * d3b
    fu, fv = m // n9, k // n9
    rx = cx - fu * d3a + fv * d3b
    ry = cy - fu * d3b - fv * (d3a + d3b)
    # the nearest tile center is one of the cell's four corners
    for tx, ty in ((0, 0), (d3a, d3b), (-d3b, d3a + d3b), (d3a - d3b, d3a + 2 * d3b)):
        c = classify_local(cf, rx - tx, ry - ty)
        if c is not None:
            return c
    raise ClassificationError(f"no region claims centroid ({cx}, {cy})")


def color_at(cf: CappedFlower, tri: PlaneTriangleId) -> int:
    """Color of any plane triangle under the tiled coloring (total map)."""
    cx, cy = tri.centroid_tripled()
    return classify(cf, cx, cy)


def tile_regions(cf: CappedFlower, swap: bool = False):
    """All paint regions of the whole hexagonal tile, three times what
    `CappedFlower.regions` yields: each quotient face has one copy per turn
    by alpha^2 about 0.

    Yields ("quad", quad_tripled, color) for necklace trapezoids, outermost
    level first, and the three cap parallelogram classes, plus ("fill",
    centroid, color) for the six central triangles.  Painting these covers
    every translation class of the plane exactly once.  swap inverts every
    color.
    """
    for n, color in zip(cf.necklaces, cf.necklace_colors):
        for t in n.trapezoids:
            yield ("quad", t.quad_tripled(), color ^ swap)
    for k in range(3):
        yield ("quad", list(cf._caps[k]), cf.cap_color ^ swap)
    fills = [(c3, BLACK) for c3 in _FILL_UP] + [(c3, WHITE) for c3 in _FILL_DOWN]
    for c3, color in sorted(fills):
        yield ("fill", c3, color ^ swap)


# ---------------------------------------------------------------------------
# Counts read off the capped flower's regions and necklaces, for comparison
# with the norm of beta and the continued fraction of its aspect.


def triangle_count(regions) -> int:
    """Unit triangles that paint regions cover, by the shoelace formula.

    In the (1, alpha) basis a unit triangle has doubled area 1, so a quad
    in tripled coordinates covers its doubled area / 9 triangles; a fill
    region is one triangle.
    """
    total = 0
    for kind, data, _ in regions:
        if kind == "fill":
            total += 9
            continue
        total += sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(data, data[1:] + data[:1]))
    count, rest = divmod(total, 9)
    if rest:
        raise AssertionError(f"regions cover {total}/9 triangles")
    return count


def stripe_counts(cf: CappedFlower) -> list[int]:
    """Stripe counts of the maximal trapezoids, outermost run first.

    They equal the continued-fraction partial quotients of the flower's
    aspect.
    """
    return [last - first + 1 for first, last in _maximal_runs(cf.necklaces)]


# ---------------------------------------------------------------------------
# Special hexagons by a second area formula: the shoelace sum over the
# developed corner chain.  The library cuts corners off a triangle
# (`SpecialHexagon.triangle_units`).

# unit hexagon-walk directions in the (1, alpha) basis, 60 degrees apart
_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def hexagon_vertices(h: SpecialHexagon) -> list[tuple[int, int]]:
    """Developed corner chain (may repeat points at zero-length sides)."""
    x, y = 0, 0
    pts = []
    for ln, (dx, dy) in zip(h.lengths, _DIRS):
        pts.append((x, y))
        x, y = x + ln * dx, y + ln * dy
    if (x, y) != (0, 0):
        raise AssertionError("developed hexagon does not close")
    return pts


def shoelace_triangle_units(h: SpecialHexagon) -> int:
    """Doubled area of the developed corner chain, in unit triangles."""
    pts = hexagon_vertices(h)
    total = 0
    for i in range(6):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % 6]
        total += px * qy - py * qx
    return total


def special_hexagon_area(h: SpecialHexagon) -> float:
    """Euclidean area, as a float: triangle units times sqrt(3)/4."""
    return h.triangle_units() * sqrt(3) / 4


# ---------------------------------------------------------------------------
# The defining incidences of a necklace and of its nested child, checked on
# endpoint sets of trapezoid sides.  The library builds necklaces from the
# model trapezoid without checking them; paint_from_flower's exact-cover
# audit is what guards every coloring it makes.


def sides(t: Trapezoid) -> list[tuple[str, frozenset[EisensteinInt]]]:
    """Nondegenerate sides as (kind, endpoint set) with kinds bottom/leg/top."""
    p3, p4, p1, p2 = t.corners()
    out = []
    if p3 != p4:
        out.append(("bottom", frozenset((p3, p4))))
    out.append(("leg", frozenset((p4, p1))))
    out.append(("top", frozenset((p1, p2))))
    out.append(("leg", frozenset((p2, p3))))
    return out


def all_sides(n: Necklace):
    for slot, t in enumerate(n.trapezoids):
        for kind, seg in sides(t):
            yield slot, kind, seg


def check_necklace(n: Necklace) -> None:
    """Consecutive trapezoids share exactly one vertex."""
    for i in range(6):
        vi = set(n.trapezoids[i].vertices())
        vj = set(n.trapezoids[(i + 1) % 6].vertices())
        common = vi & vj
        if len(common) != 1:
            raise AssertionError(f"X{i} and X{i+1} share {len(common)} vertices")


def check_nesting(parent: Necklace, child: Necklace) -> None:
    """Each child trapezoid's top is a side of a parent trapezoid, and one of
    its legs is a side of a parent trapezoid adjacent to that one."""
    parent_sides = list(all_sides(parent))
    for t in child.trapezoids:
        own = sides(t)
        top = next(seg for kind, seg in own if kind == "top")
        legs = [seg for kind, seg in own if kind == "leg"]
        host = [slot for slot, _, seg in parent_sides if seg == top]
        if not host:
            raise AssertionError(f"child top {sorted(map(str, top))} lies on no parent side")
        ok = any(
            seg in legs
            for slot, _, seg in parent_sides
            if any((slot - h) % 6 in (1, 5) for h in host)
        )
        if not ok:
            raise AssertionError("child diagonal side misses the adjacent parent trapezoid")


# ---------------------------------------------------------------------------
# The fold count of the continued-fraction coloring summed one Euclidean run
# at a time with the run's closed form as first derived.  The library's
# `flower.cf_fold_count` adds the same run in fewer long-integer operations.


def per_run_fold_count(a: int, b: int) -> int:
    """3 + 2 * the orbit sum, each run (a, b - i*a), i < q, adding
    q*(a + b) - a*q*(q-1)/2."""
    total = 0
    while a > 1:
        q, r = divmod(b, a)
        total += q * (a + b) - a * q * (q - 1) // 2
        a, b = r, a
    total += b + b * (b + 1) // 2
    return 3 + 2 * total


# ---------------------------------------------------------------------------
# The order-comparison sweep over every (a', b') in row order, with one gcd
# and one Euclid per pair.  The library's `search.ie_sweep` walks the Euclid
# tree instead and must report the same pairs in the same order.


def reference_ie_sweep(betas: list[tuple[int, int]], b_max: int) -> IeSweepReport:
    baselines = {}
    violations = []
    checked = 0
    for a, b in betas:
        if gcd(a, b) != 1 or not (1 <= a <= b):
            raise DomainError(f"baseline ({a}, {b}) is not canonical primitive")
        if (a, b) in baselines:
            raise DomainError(f"baseline ({a}, {b}) is repeated")
        baselines[(a, b)] = cf_eta(a, b)
    for (a, b), base_eta in baselines.items():
        n0, d0 = base_eta.numerator, base_eta.denominator
        for b2 in range(b, b_max):
            for a2 in range(1, b2 + 1):
                if gcd(a2, b2) != 1 or (a2, b2) == (a, b):
                    continue
                checked += 1
                if not n0 * cf_face_count(a2, b2) < cf_fold_count(a2, b2) ** 2 * d0:
                    violations.append(((a, b), (a2, b2)))
    return IeSweepReport(
        baselines=tuple((k, (v.numerator, v.denominator)) for k, v in baselines.items()),
        checked=checked,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Goodness and the vertex 4-coloring with a [black, white] pair per vertex,
# a permutation sign computed per call and a list-popping BFS queue.


def reference_vertex_splits(col: FaceColoring) -> list[tuple[int, int]]:
    c = col.complex
    acc = [[0, 0] for _ in range(c.vertex_count)]
    for f, ids in enumerate(c.face_vertices):
        side = 0 if col.colors[f] == BLACK else 1
        for v in ids:
            acc[v][side] += 1
    return [(b, w) for b, w in acc]


def reference_is_good(col: FaceColoring) -> GoodnessReport:
    """Mod-3 balance of black and white around every vertex, with mod-6 flag."""
    splits = reference_vertex_splits(col)
    violations = tuple(v for v, (b, w) in enumerate(splits) if (b - w) % 3 != 0)
    mod6 = all((b - w) % 6 == 0 for b, w in splits)
    return GoodnessReport(not violations, violations, mod6)


def perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return 1 if inv % 2 == 0 else -1


def parity(x: int, y: int, z: int) -> int:
    return perm_sign((x, y, z, 6 - x - y - z))


def reference_vertex_four_coloring(col: FaceColoring) -> list[int]:
    """Proper vertex 4-coloring whose orientation classes reproduce col.

    Walking ccw around a black face reads an even permutation of its three
    colors, around a white face an odd one.  Propagation is deterministic
    BFS from the least face at vertex 0, which takes color 0; a
    contradiction means the input was not good.
    """
    report = reference_is_good(col)
    if not report.good:
        raise GoodnessError(f"coloring is not good at vertices {report.violations[:6]}")
    c = col.complex
    target = [1 if x == BLACK else -1 for x in col.colors]
    vcolor = [-1] * c.vertex_count

    f0 = min(f for f, ids in enumerate(c.face_vertices) if 0 in ids)
    ids = c.face_vertices[f0]
    k = ids.index(0)
    v0, v1, v2 = ids[k], ids[(k + 1) % 3], ids[(k + 2) % 3]
    vcolor[v0] = 0
    vcolor[v1] = 1

    def force_third(f: int) -> bool:
        """Fill the single missing corner of f; returns False if untouched."""
        a, b, cc = c.face_vertices[f]
        known = [vcolor[a], vcolor[b], vcolor[cc]]
        missing = [i for i, x in enumerate(known) if x < 0]
        if len(missing) != 1:
            if not missing:
                if parity(*known) != target[f]:
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
            if parity(*trial) == target[f]:
                picked = cand
                break
        if picked is None:
            raise GoodnessError(f"no consistent color at face {f}")
        vcolor[c.face_vertices[f][i]] = picked
        return True

    force_third(f0)
    seen = {f0}
    queue = [f0]
    while queue:
        f = queue.pop(0)
        for f2, _ in c.pairing[f]:
            if f2 not in seen:
                seen.add(f2)
                force_third(f2)
                queue.append(f2)
    if len(seen) != c.face_count or any(x < 0 for x in vcolor):
        raise AssertionError("propagation did not reach the whole surface")

    for f, (a, b, cc) in enumerate(c.face_vertices):
        tri = (vcolor[a], vcolor[b], vcolor[cc])
        if len(set(tri)) != 3 or parity(*tri) != target[f]:
            raise GoodnessError(f"verification failed at face {f}")
    return vcolor


# ---------------------------------------------------------------------------
# Monochrome regions in three passes: a component DFS over the pairing, a
# boundary count, then a plane development of the member set that
# re-derives shared sides from a set of placed triangles.


def reference_monochrome_regions(col: FaceColoring) -> list[MonochromeRegion]:
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
        polygon = _reference_develop(c, colors, region)
        out.append(MonochromeRegion(color, region, boundary, polygon))
    out.sort(key=lambda r: min(r.faces))
    return out


def _reference_develop(c: QuotientComplex, colors, region: frozenset[int]):
    face_at = c.face_at
    seed = min(region)
    t0 = lift(c, seed)
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


# ---------------------------------------------------------------------------
# The plane picture from a bounding-box scan of the window, a filter on
# tripled centroids, and a set of sides that draws each fold once.


def box_scan_render_svg(spec) -> str:
    """Oracle: `render_svg` with a bounding-box window and a set of seen sides."""
    beta = canonical(spec.beta)
    if spec.colored:
        if not is_primitive(beta) or beta.a < 1:
            raise DomainError("colored renders need primitive beta with 1 <= a <= b")
        col = continued_fraction_coloring(beta)
        colors, face_at = col.colors, col.complex.face_at

        def color_of(a: int, b: int, o: int) -> int:
            return colors[face_at(a, b, o)]
    else:
        color_of = None
    delta = EisensteinInt(2, -1) * beta
    dom = spec.domains
    n = delta.norm()

    def basis_coords(x: int, y: int) -> tuple[int, int]:
        d1, d2 = delta.a, delta.b
        return x * (d1 + d2) + y * d2, y * d1 - x * d2

    def fmt(x: float) -> str:
        return f"{x:.3f}"

    # triangles whose tripled centroid sits in the half-open window
    tris = []
    al_delta = EisensteinInt(0, 1) * delta
    corners = [(0, 0), (delta.a, delta.b), (al_delta.a, al_delta.b),
               (delta.a + al_delta.a, delta.b + al_delta.b)]
    amin = dom * min(c[0] for c in corners) - 2
    amax = dom * max(c[0] for c in corners) + 2
    bmin = dom * min(c[1] for c in corners) - 2
    bmax = dom * max(c[1] for c in corners) + 2
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            for o in (0, 1):
                m, k = basis_coords(3 * a + 1 + o, 3 * b + 1 + o)
                if 0 <= m < 3 * n * dom and 0 <= k < 3 * n * dom:
                    tris.append((a, b, o))

    scale = spec.scale
    xs, ys = [], []
    polys = []
    for a, b, o in tris:
        pts = [_xy(a + da, b + db, scale) for da, db in CORNERS[o]]
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
        fill = _FILL[color_of(a, b, o)] if color_of else "#FFFFFF"
        polys.append((pts, fill))

    folds = []
    if spec.show_folds and color_of:
        seen = set()
        for a, b, o in tris:
            verts = [(a + da, b + db) for da, db in CORNERS[o]]
            here = color_of(a, b, o)
            for s, (da, db, no, _) in enumerate(NEIGHBOR[o]):
                p, q = verts[s], verts[(s + 1) % 3]
                key = frozenset((p, q))
                if key in seen:
                    continue
                seen.add(key)
                m, k = basis_coords(p[0] + q[0], p[1] + q[1])
                if not (0 <= m < 2 * n * dom and 0 <= k < 2 * n * dom):
                    continue
                if here != color_of(a + da, b + db, no):
                    folds.append((p, q))
        folds.sort()
        for p, q in folds:
            x1, y1 = _xy(*p, scale)
            x2, y2 = _xy(*q, scale)
            xs.extend((x1, x2))
            ys.extend((y1, y2))

    rhombus = None
    if spec.show_rhombus:
        ab = EisensteinInt(0, 1) * beta
        pts = [(0, 0), (beta.a, beta.b), (beta.a + ab.a, beta.b + ab.b), (ab.a, ab.b)]
        rhombus = [_xy(x, y, scale) for x, y in pts]
        xs.extend(p[0] for p in rhombus)
        ys.extend(p[1] for p in rhombus)

    pad = scale * 0.25
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    def shift(p):
        return fmt(p[0] - x0) + "," + fmt(p[1] - y0)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(w)}" height="{fmt(h)}" viewBox="0 0 {fmt(w)} {fmt(h)}">'
    ]
    out.append('<g stroke="#888888" stroke-width="0.5">')
    for pts, fill in polys:
        out.append(f'<polygon points="{" ".join(shift(p) for p in pts)}" fill="{fill}"/>')
    out.append("</g>")
    if folds:
        out.append('<g class="folds" stroke="#FF0000" stroke-width="2.0">')
        for p, q in folds:
            x1, y1 = _xy(*p, scale)
            x2, y2 = _xy(*q, scale)
            out.append(
                f'<line class="fold" x1="{fmt(x1 - x0)}" y1="{fmt(y1 - y0)}" '
                f'x2="{fmt(x2 - x0)}" y2="{fmt(y2 - y0)}"/>'
            )
        out.append("</g>")
    if rhombus:
        out.append(
            f'<polygon class="rhombus" points="{" ".join(shift(p) for p in rhombus)}" '
            'fill="none" stroke="#0000FF" stroke-width="3.0"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The quotient complex with every torus index computed from scratch: one
# divmod per anchor, per rotation copy, per side and per corner.


def divmod_build(beta: EisensteinInt) -> dict:
    """The complex's tables by attribute name: `_anchors`, `_orient`,
    `pairing`, `face_vertices`, `_vpoints`, `degrees` and `_face_of`."""
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

    red = [None] * n
    face_of = [-1] * (2 * n)
    shift_of = [0] * (2 * n)
    tris = []
    anchors = 0
    for a, lo, hi in columns(cell(delta, 1), 1, 0, CELL_OPEN_SIDES):
        for b in range(lo, hi + 1):
            q, j = divmod(b, h2)
            i = j * h1 + (a - q * va) % h1
            assert red[i] is None, f"anchors {red[i]} and {(a, b)} share torus index {i}"
            red[i] = (a, b)
            anchors += 1
            for o in (UP, DOWN):
                t0 = 2 * i + o
                if face_of[t0] >= 0:
                    continue
                x1, y1 = -a - b - 1 - o, a
                x2, y2 = -x1 - y1 - 1 - o, x1
                q1, j1 = divmod(y1, h2)
                q2, j2 = divmod(y2, h2)
                t1 = 2 * (j1 * h1 + (x1 - q1 * va) % h1) + o
                t2 = 2 * (j2 * h1 + (x2 - q2 * va) % h1) + o
                assert len({t0, t1, t2}) == 3, f"degenerate rotation orbit at {(a, b, o)}"
                face_of[t0] = face_of[t1] = face_of[t2] = len(tris)
                shift_of[t1], shift_of[t2] = 2, 1
                tris.append((a, b, o))
    assert anchors == n and len(tris) == 2 * beta.norm()

    pairing = []
    face_vertices = []
    vid = [-1] * n
    vpoints = []
    degrees = []
    for a, b, o in tris:
        row = []
        for da, db, no, ns in NEIGHBOR[o]:
            q, j = divmod(b + db, h2)
            t = 2 * (j * h1 + (a + da - q * va) % h1) + no
            row.append((face_of[t], (ns + shift_of[t]) % 3))
        pairing.append(tuple(row))
        ids = []
        for da, db in CORNERS[o]:
            x, y = a + da, b + db
            q, j = divmod(y, h2)
            i = j * h1 + (x - q * va) % h1
            v = vid[i]
            if v < 0:
                v = len(vpoints)
                q1, j1 = divmod(x, h2)
                q2, j2 = divmod(-x - y, h2)
                i1 = j1 * h1 + (-x - y - q1 * va) % h1
                i2 = j2 * h1 + (y - q2 * va) % h1
                vid[i] = vid[i1] = vid[i2] = v
                vpoints.append(min(red[i], red[i1], red[i2]))
                degrees.append(0)
            degrees[v] += 1
            ids.append(v)
        face_vertices.append(tuple(ids))
    for i, row in enumerate(pairing):
        for s, (j, s2) in enumerate(row):
            assert pairing[j][s2] == (i, s) and (j, s2) != (i, s), "pairing is not a free involution"
    assert len(vpoints) == beta.norm() + 2
    return {
        "_anchors": [(a, b) for a, b, _ in tris], "_orient": bytearray(o for *_, o in tris),
        "pairing": pairing, "face_vertices": face_vertices,
        "_vpoints": vpoints, "degrees": degrees, "_face_of": face_of,
    }


# ---------------------------------------------------------------------------
# The complex.v1 document built from fresh lists and dicts, pairing rows
# chosen by comparing 3f + s.


def complex_json_dict(c: QuotientComplex) -> dict:
    """Reference for `QuotientComplex.to_json_dict`: every face, pairing row
    and vertex its own new list or dict."""
    if any(jint(v) != v for corner in cell(c.delta, 1) for v in corner):
        raise AssertionError("fundamental cell exceeds 64-bit coordinates")
    return {
        "schema": "complex.v1",
        "beta": [jint(c.beta.a), jint(c.beta.b)],
        "delta": [jint(c.delta.a), jint(c.delta.b)],
        "faces": [
            {"anchor": [a, b], "orientation": ("up", "down")[o]}
            for (a, b), o in zip(c._anchors, c._orient)
        ],
        "pairing": [
            [f, s, f2, s2]
            for f, row in enumerate(c.pairing)
            for s, (f2, s2) in enumerate(row)
            if 3 * f + s < 3 * f2 + s2
        ],
        "vertices": [
            {"degree": d, "representative_lattice_point": [x, y]}
            for (x, y), d in zip(c._vpoints, c.degrees)
        ],
    }
