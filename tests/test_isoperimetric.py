from fractions import Fraction
from math import isclose, sqrt

import pytest

from eisenfold.eisenstein import DomainError, EisensteinInt
from eisenfold.coloring import FaceColoring, GoodnessError, continued_fraction_coloring
from eisenfold.flower import BLACK
from eisenfold.isoperimetric import (
    SpecialHexagon,
    enumerate_lattice_special_hexagons,
    region_isoperimetric_check,
)
from eisenfold.surface import build_complex
from eisenfold.coloring import alternating_coloring
from oracles import shoelace_triangle_units, special_hexagon_area


def test_unit_regular_hexagon():
    h = SpecialHexagon((1, 1, 1, 1, 1, 1))
    assert h.triangle_units() == 6
    assert isclose(special_hexagon_area(h), 3 * sqrt(3) / 2)


def test_degenerate_triangle():
    h = SpecialHexagon((1, 0, 1, 0, 1, 0))
    assert h.triangle_units() == 1
    assert isclose(special_hexagon_area(h), sqrt(3) / 4)


def test_elongated_hexagon_matches_shoelace():
    h = SpecialHexagon((2, 1, 1, 2, 1, 1))
    assert h.triangle_units() == 10
    assert isclose(special_hexagon_area(h), 5 * sqrt(3) / 2)
    assert shoelace_triangle_units(h) == h.triangle_units()


def test_shoelace_cross_validation_broadly():
    for h in enumerate_lattice_special_hexagons(10):
        assert shoelace_triangle_units(h) == h.triangle_units()


def test_closure_validation():
    with pytest.raises(DomainError):
        SpecialHexagon((1, 2, 1, 1, 1, 1))
    with pytest.raises(DomainError):
        SpecialHexagon((1, 1, 1, 1, 1, -1))


def test_regular_hexagon_side_s_is_equality_case():
    for s in (1, 2, 3):
        h = SpecialHexagon((s,) * 6)
        assert h.triangle_units() == 6 * s * s
        assert h.perimeter() ** 2 == 6 * h.triangle_units()


def test_lattice_isoperimetric_bound_perimeter_le_12():
    equality_cases = []
    for h in enumerate_lattice_special_hexagons(12):
        p, n = h.perimeter(), h.triangle_units()
        assert p * p >= 6 * n
        if p * p == 6 * n:
            equality_cases.append(h.lengths)
    assert set(equality_cases) == {(1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2)}


def test_region_check_single_triangles():
    c = build_complex(EisensteinInt(1, 2))
    rep = region_isoperimetric_check(alternating_coloring(c))
    assert all(r == 9 for r in rep.region_ratios)
    assert rep.min_ratio == 9
    assert rep.per_region_bound_holds and rep.eta_lower_bound_holds


@pytest.mark.parametrize("beta", [(2, 3), (3, 5), (1, 5), (3, 7)])
def test_region_check_cf_colorings(beta):
    col = continued_fraction_coloring(EisensteinInt(*beta))
    rep = region_isoperimetric_check(col)
    assert rep.per_region_bound_holds
    assert rep.eta_lower_bound_holds
    assert rep.eta >= 3
    assert rep.farey_aggregate >= 6


def test_region_check_eta_value_2_3():
    col = continued_fraction_coloring(EisensteinInt(2, 3))
    rep = region_isoperimetric_check(col)
    assert rep.eta == Fraction(529, 38)
    assert rep.fold_total == 23 and rep.white_face_total == 19


def test_region_check_rejects_bad_colorings():
    c = build_complex(EisensteinInt(1, 2))
    with pytest.raises(GoodnessError):
        region_isoperimetric_check(
            FaceColoring(c, tuple(BLACK for _ in range(c.face_count)))
        )
