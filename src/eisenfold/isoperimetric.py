"""Isoperimetric bounds for lattice polygons and good colorings.

Convex hexagons with all interior angles 120 degrees satisfy
perimeter^2/area >= 8*sqrt(3), i.e. perimeter^2 >= 6 * (unit triangle
count) in lattice units, with equality exactly at regular hexagons.  Every
monochrome region of a good coloring is such a polygon (possibly
degenerated to a pentagon, rhombus, or triangle), and summing the per
region bounds through a Farey-sum aggregation yields the global bound
eta >= 3 on the squared-fold-to-face ratio.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record, setfield
from .eisenstein import DomainError
from .coloring import FaceColoring, GoodnessError, fold_count, is_good, monochrome_regions
from .flower import WHITE


@record
class SpecialHexagon:
    """Convex hexagon with all interior angles 2*pi/3, given by side lengths.

    Sides are listed in walk order; closure demands l1+l2 = l4+l5 and
    l2+l3 = l5+l6.  Zero lengths give the degenerate pentagons, rhombi,
    and triangles.
    """

    def __init__(self, lengths: tuple):
        setfield(self, "lengths", lengths)
        ls = lengths
        if len(ls) != 6 or any(x < 0 for x in ls):
            raise DomainError("need six non-negative side lengths")
        if ls[0] + ls[1] != ls[3] + ls[4] or ls[1] + ls[2] != ls[4] + ls[5]:
            raise DomainError("side lengths do not close up")

    def perimeter(self):
        return sum(self.lengths)

    def triangle_units(self):
        """Area divided by the unit-triangle area sqrt(3)/4.

        Corner-cutting: extending sides 1, 3, 5 forms an equilateral
        triangle of side l6+l1+l2 from which corner triangles of sides
        l2, l4, l6 are removed.
        """
        l1, l2, l3, l4, l5, l6 = self.lengths
        t = l6 + l1 + l2
        return t * t - l2 * l2 - l4 * l4 - l6 * l6


def enumerate_lattice_special_hexagons(perimeter_max: int):
    """Every integer-sided special hexagon with perimeter <= perimeter_max.

    Includes the degenerate shapes with some zero sides; excludes only the
    empty shape of zero area.
    """
    out = []
    for l1 in range(perimeter_max + 1):
        for l2 in range(perimeter_max + 1):
            for l3 in range(perimeter_max + 1):
                for l4 in range(perimeter_max + 1):
                    l5 = l1 + l2 - l4
                    l6 = l3 + l4 - l1
                    if l5 < 0 or l6 < 0:
                        continue
                    ls = (l1, l2, l3, l4, l5, l6)
                    if sum(ls) > perimeter_max or sum(ls) == 0:
                        continue
                    h = SpecialHexagon(ls)
                    if h.triangle_units() > 0:
                        out.append(h)
    return out


@record
class RegionIsoperimetricReport:
    def __init__(self, region_ratios: tuple[Fraction, ...], min_ratio: Fraction,
                 per_region_bound_holds: bool, fold_total: int, white_face_total: int,
                 farey_aggregate: Fraction, eta: Fraction, eta_lower_bound_holds: bool):
        setfield(self, "region_ratios", region_ratios)
        setfield(self, "min_ratio", min_ratio)
        setfield(self, "per_region_bound_holds", per_region_bound_holds)
        setfield(self, "fold_total", fold_total)
        setfield(self, "white_face_total", white_face_total)
        setfield(self, "farey_aggregate", farey_aggregate)
        setfield(self, "eta", eta)
        setfield(self, "eta_lower_bound_holds", eta_lower_bound_holds)


def region_isoperimetric_check(col: FaceColoring) -> RegionIsoperimetricReport:
    """Per-white-region ratios f_j^2/F_j and the aggregated eta >= 3 chain.

    The white regions tile half the faces and their boundaries carry every
    fold once, so 2*eta = (sum f_j)^2 / (F/2) >= Farey sum of f_j^2/F_j
    >= min >= 6.  The tiling is asserted and the other steps are arithmetic,
    so eta_lower_bound_holds tests only min >= 6 and eta >= 3.
    """
    if not is_good(col).good:
        raise GoodnessError("isoperimetric check needs a good coloring")
    whites = [r for r in monochrome_regions(col) if r.color == WHITE]
    ratios = tuple(
        Fraction(r.boundary_length ** 2, len(r.faces)) for r in whites
    )
    f = fold_count(col)
    F = col.complex.face_count
    white_faces = sum(len(r.faces) for r in whites)
    fold_sum = sum(r.boundary_length for r in whites)
    if fold_sum != f or white_faces * 2 != F:
        raise AssertionError("white regions must carry all folds and half the faces")
    farey = Fraction(sum(r.boundary_length ** 2 for r in whites), white_faces)
    the_eta = Fraction(f * f, F)
    low = min(ratios)
    return RegionIsoperimetricReport(
        region_ratios=ratios,
        min_ratio=low,
        per_region_bound_holds=low >= 6,
        fold_total=f,
        white_face_total=white_faces,
        farey_aggregate=farey,
        eta=the_eta,
        eta_lower_bound_holds=low >= 6 and the_eta >= 3,
    )
