"""Trapezoid necklaces, capped flowers, and the periodic planar coloring.

A necklace of aspect a/b is six congruent lattice trapezoids arranged with
six-fold rotational symmetry around a center, consecutive ones meeting at
single vertices.  Iterating the slow Gauss map on the aspect ratio nests
necklaces inward until aspect 1/1; alternating their colors, filling the
six central triangles, and capping the convex hull produces a hexagonal
tile whose translates color the whole plane.  That coloring is invariant
under the rotation group used by the quotient surface, so it descends to a
face coloring of the sphere triangulation.

Two exactness rules hold everywhere: all region tests use integer
half-plane arithmetic in the (1, alpha) basis, and triangles are classified
by their tripled centroids, which never land on region boundaries.

A flower holds each necklace level once and checks none of its geometry
when built: the necklace and nesting incidences are test oracles.  It
yields one alpha^2-rotation class of its tile, and every coloring made
from a flower passes the exact-cover audit of coloring.paint_from_flower,
which rejects a class that misses or repeats a quotient face.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import record, setfield
from .eisenstein import DomainError, EisensteinInt, slow_gauss

BLACK, WHITE = 1, 0


def _rot_pair(p: tuple[int, int]) -> tuple[int, int]:
    """Multiply a + b*alpha by alpha."""
    a, b = p
    return (-b, a + b)


def _rot_poly(poly, k):
    for _ in range(k % 6):
        poly = [_rot_pair(p) for p in poly]
    return poly


@record(frozen=True, slots=True)
class Trapezoid:
    """One necklace trapezoid: diagonal sides of length a, top of length b.

    slot is the rotation position (0..5) around the center; mirrored picks
    the reflected placement of the model trapezoid.  The slot-0 unmirrored
    model has vertices a+b*alpha, (a-b)+b*alpha, (2a-b)+(b-a)*alpha,
    a+(b-a)*alpha; the bottom degenerates to a point when a = b.
    """

    def __init__(self, a: int, b: int, center: EisensteinInt, slot: int, mirrored: bool):
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "center", center)
        setfield(self, "slot", slot)
        setfield(self, "mirrored", mirrored)

    def corners(self) -> tuple[EisensteinInt, ...]:
        """Labeled corners (bottom-left, bottom-right, top-right, top-left).

        The bottom pair coincides when a = b.  Mirrored trapezoids are the
        complex conjugates of the model, so their labels keep their roles
        while the cyclic orientation reverses.
        """
        a, b = self.a, self.b
        quad = [(2 * a - b, b - a), (a, b - a), (a, b), (a - b, b)]
        if self.mirrored:
            quad = [(x + y, -y) for (x, y) in quad]
        quad = _rot_poly(quad, self.slot)
        c = self.center
        return tuple(EisensteinInt(x + c.a, y + c.b) for (x, y) in quad)

    def vertices(self) -> tuple[EisensteinInt, ...]:
        """Corners in ccw cyclic order (for half-plane containment tests)."""
        p3, p4, p1, p2 = self.corners()
        return (p3, p4, p1, p2) if not self.mirrored else (p2, p1, p4, p3)

    def quad_tripled(self) -> list[tuple[int, int]]:
        return [(3 * v.a, 3 * v.b) for v in self.vertices()]


@record(frozen=True, slots=True)
class Necklace:
    """Six rotation-equivalent trapezoids meeting consecutively at points."""

    def __init__(self, center: EisensteinInt, aspect: Fraction, mirrored: bool,
                 trapezoids: tuple[Trapezoid, ...]):
        setfield(self, "center", center)
        setfield(self, "aspect", aspect)
        setfield(self, "mirrored", mirrored)
        setfield(self, "trapezoids", trapezoids)


def necklace(aspect: Fraction, center: EisensteinInt, mirrored: bool = False) -> Necklace:
    """The unique necklace of the given aspect about center (per chirality)."""
    if not isinstance(aspect, Fraction) or not 0 < aspect <= 1:
        raise DomainError(f"aspect must be a Fraction in (0, 1], got {aspect}")
    a, b = aspect.numerator, aspect.denominator
    traps = tuple(
        Trapezoid(a, b, center, slot, mirrored) for slot in range(6)
    )
    return Necklace(center, aspect, mirrored, traps)


def necklace_gamma(x: Necklace) -> Necklace:
    """The nested child necklace; aspect advances by the slow Gauss map.

    The child keeps the center; its chirality flips exactly when the parent
    aspect exceeds 1/2.  Then each child trapezoid's top is a side of a
    parent trapezoid, and one of its diagonal sides is a side of an adjacent
    parent trapezoid; the tests check these incidences, this function does
    not.
    """
    if x.aspect == 1:
        raise DomainError("aspect 1/1 is the orbit floor")
    child_mirrored = (not x.mirrored) if x.aspect > Fraction(1, 2) else x.mirrored
    return necklace(slow_gauss(x.aspect), x.center, child_mirrored)


def empty_flower(aspect: Fraction) -> list[tuple[Necklace, int]]:
    """Necklaces of the whole slow-Gauss orbit, alternately colored.

    Outermost first; the innermost 1/1 necklace is white.
    """
    chain = [necklace(aspect, EisensteinInt(0, 0))]
    while chain[-1].aspect != 1:
        chain.append(necklace_gamma(chain[-1]))
    L = len(chain)
    return [(n, WHITE if (L - 1 - i) % 2 == 0 else BLACK) for i, n in enumerate(chain)]


# Tripled centroids of the six central triangles around the origin.
_FILL_UP = ((1, 1), (-2, 1), (1, -2))
_FILL_DOWN = ((-1, 2), (2, -1), (-1, -1))


@record(frozen=True)
class CappedFlower:
    """Hexagonal coloring template: necklaces plus center fill plus corner caps.

    The tile is the regular hexagon with corners alpha^k * beta; corner cap
    regions merge with their neighbors' mirror images into monochrome
    lattice parallelograms, so the induced plane coloring is total.
    """

    def __init__(self, beta: EisensteinInt, necklaces: tuple[Necklace, ...],
                 necklace_colors: tuple[int, ...], fill_colors: dict, cap_color: int,
                 _caps: tuple):
        setfield(self, "beta", beta)
        setfield(self, "necklaces", necklaces)
        setfield(self, "necklace_colors", necklace_colors)
        setfield(self, "fill_colors", fill_colors)
        setfield(self, "cap_color", cap_color)
        setfield(self, "_caps", _caps)  # six cap quads, tripled

    def regions(self):
        """One alpha^2-rotation class of the tile's paint regions.

        Yields ("quad", quad_tripled, color) for slots 0 and 1 of each
        necklace level, outermost level first, then for cap 0, and
        ("fill", centroid, color) for the central triangles (1, 1) up and
        (-1, 2) down.  Slot s + 2 is the alpha^2 turn of slot s, and the
        other caps and fills are turns of these, so painting them covers
        every face of the quotient exactly once.
        """
        for n, color in zip(self.necklaces, self.necklace_colors):
            for t in n.trapezoids[:2]:
                yield ("quad", t.quad_tripled(), color)
        yield ("quad", self._caps[0], self.cap_color)
        for c3 in (_FILL_UP[0], _FILL_DOWN[0]):
            yield ("fill", c3, self.fill_colors[c3])


def fill_and_cap(
    flower: list[tuple[Necklace, int]],
    beta: EisensteinInt,
    fill_phase: int = 0,
) -> CappedFlower:
    """Fill the six central triangles and cap the convex hull of the flower.

    The fill alternates around the center (phase picks which of the two
    alternations); cap triangles take the color opposite the outermost
    necklace.
    """
    a, b = beta.a, beta.b
    if gcd(a, b) != 1 or not (1 <= a <= b):
        raise DomainError(f"flower needs canonical primitive beta, got ({a}, {b})")
    if flower[0][0].aspect != Fraction(a, b):
        raise DomainError("flower aspect does not match beta")

    necklaces = tuple(n for n, _ in flower)
    necklace_colors = tuple(c for _, c in flower)
    up_color = BLACK if fill_phase == 0 else WHITE
    fill_colors = {p: up_color for p in _FILL_UP}
    fill_colors.update({p: 1 - up_color for p in _FILL_DOWN})
    cap_color = 1 - necklace_colors[0]

    # cap parallelogram at hull edge [beta, alpha*beta], then its rotates
    p2 = (a - b, b)
    albeta = _rot_pair((a, b))
    c2 = (a + albeta[0], b + albeta[1])
    par = [p2, (a, b), (c2[0] - p2[0], c2[1] - p2[1]), albeta]
    caps = tuple(
        [(3 * x, 3 * y) for (x, y) in _rot_poly(par, k)] for k in range(6)
    )

    return CappedFlower(
        beta=EisensteinInt(a, b),
        necklaces=necklaces,
        necklace_colors=necklace_colors,
        fill_colors=fill_colors,
        cap_color=cap_color,
        _caps=caps,
    )


def capped_flower(beta: EisensteinInt, fill_phase: int = 0) -> CappedFlower:
    """Build the full template for a canonical primitive beta with 1 <= a <= b.

    Any other beta raises DomainError: necklace rejects an aspect a/b
    outside (0, 1], and fill_and_cap the rest.  With b = 0 there is no
    aspect, so no flower is built and fill_and_cap rejects beta.
    """
    flower = empty_flower(Fraction(beta.a, beta.b)) if beta.b else []
    return fill_and_cap(flower, beta, fill_phase)


def _maximal_runs(necklaces) -> list[tuple[int, int]]:
    """The (first, last) levels of each maximal trapezoid, outermost first.

    A run of nested trapezoids breaks exactly after a level whose aspect
    exceeds 1/2 (where the nesting direction turns); the innermost level,
    of aspect 1/1, closes the last run.
    """
    runs, first = [], 0
    for i, n in enumerate(necklaces):
        if n.aspect > Fraction(1, 2):
            runs.append((first, i))
            first = i + 1
    return runs


def cf_fold_count(a: int, b: int) -> int:
    """Fold count of the continued-fraction coloring, from necklace layers.

    Every interface between consecutive colored regions of the tile is a
    fold; summing layer boundary lengths gives 3 + 2 * sum of (a_i + b_i)
    over the slow-Gauss orbit of a/b down to (1, 1).  Validated against the
    built coloring for every small beta in the test suite.

    The orbit is summed one Euclidean quotient at a time: with b = q*a + r,
    its run (a, b - i*a), i = 0..q-1, adds q*(a + b) - a*q*(q-1)/2, which
    is a*q*(q+3)/2 + q*r, and continues at (r, a); the last run, from
    (1, b) down to (1, 1), adds b + b*(b+1)/2.  So the cost is the length
    of the continued fraction, not the sum of its partial quotients, and
    each step multiplies the long numbers a and r once each by a term
    built from the (usually short) quotient q alone.
    """
    if gcd(a, b) != 1 or not (1 <= a <= b):
        raise DomainError(f"need reduced 1 <= a <= b, got ({a}, {b})")
    total = 0
    while a > 1:
        q, r = divmod(b, a)
        total += a * (q * (q + 3) // 2) + q * r
        a, b = r, a
    total += b + b * (b + 1) // 2
    return 3 + 2 * total


def cf_face_count(a: int, b: int) -> int:
    """Face count 2 * norm of the triangulation the coloring lives on."""
    return 2 * (a * a + a * b + b * b)


def cf_eta(a: int, b: int) -> Fraction:
    f = cf_fold_count(a, b)
    return Fraction(f * f, cf_face_count(a, b))
