import hashlib
from fractions import Fraction
from math import gcd

import pytest

from eisenfold.eisenstein import DomainError, EisensteinInt, canonicalize
from eisenfold.render import RenderSpec, render_flower_svg, render_svg
from oracles import box_scan_render_svg


def test_render_byte_determinism():
    spec = RenderSpec(beta=EisensteinInt(2, 3))
    assert render_svg(spec) == render_svg(spec)


def test_fold_stroke_count_is_three_times_fold_count():
    # one fundamental domain carries each quotient edge three times
    svg = render_svg(RenderSpec(beta=EisensteinInt(2, 3)))
    assert svg.count('class="fold"') == 3 * 23
    svg = render_svg(RenderSpec(beta=EisensteinInt(1, 2)))
    assert svg.count('class="fold"') == 3 * 13


def test_triangle_counts_per_domain():
    svg = render_svg(RenderSpec(beta=EisensteinInt(1, 1), domains=1, show_folds=False))
    assert svg.count("<polygon") == 18 + 1  # triangles + rhombus
    svg = render_svg(RenderSpec(beta=EisensteinInt(1, 1), domains=2,
                                show_rhombus=False, show_folds=False))
    assert svg.count("<polygon") == 18 * 4


def test_rhombus_toggle():
    spec = RenderSpec(beta=EisensteinInt(1, 2), show_rhombus=False)
    assert 'class="rhombus"' not in render_svg(spec)
    spec = RenderSpec(beta=EisensteinInt(1, 2), show_rhombus=True)
    assert 'class="rhombus"' in render_svg(spec)


def test_colored_render_rejects_degenerate_beta():
    # continued_fraction_coloring holds the rule: the canonical beta is
    # primitive with 1 <= a <= b; zero has no canonical form
    for a in range(-5, 6):
        for b in range(-5, 6):
            if (a, b) != (0, 0):
                ca, cb = canonicalize(EisensteinInt(a, b))
                if gcd(ca, cb) == 1 and ca >= 1:
                    continue
            with pytest.raises(DomainError):
                render_svg(RenderSpec(beta=EisensteinInt(a, b)))


def test_bare_render_allows_any_beta():
    svg = render_svg(RenderSpec(beta=EisensteinInt(1, 0), colored=False))
    assert svg.count("<polygon") == 6 + 1


def test_flower_render_stripes_3_7():
    svg = render_flower_svg(Fraction(3, 7))
    # five necklace levels of six trapezoids each
    assert svg.count("<polygon points") == 5 * 6
    # two maximal-trapezoid runs, outlined once per rotation slot
    assert svg.count('class="maximal-trapezoid"') == 2 * 6
    assert render_flower_svg(Fraction(3, 7)) == svg


def test_flower_render_validates_aspect():
    with pytest.raises(DomainError):
        render_flower_svg(Fraction(3, 2))


@pytest.mark.parametrize("aspect", [Fraction(0), 0.5, 1, "1/2"])
def test_flower_render_takes_only_a_fraction_in_unit_interval(aspect):
    with pytest.raises(DomainError):
        render_flower_svg(aspect)


@pytest.mark.parametrize("scale", [0.0, -5.0, float("nan"), float("inf")])
def test_render_rejects_a_scale_outside_the_positive_reals(scale):
    with pytest.raises(DomainError):
        RenderSpec(beta=EisensteinInt(2, 3), scale=scale)
    with pytest.raises(DomainError):
        render_flower_svg(Fraction(3, 7), scale=scale)


def test_flower_render_of_an_unreduced_fraction_is_its_reduced_form():
    # Fraction normalizes 2/4 to 1/2; the CLI rejects the text "2/4" itself
    assert render_flower_svg(Fraction(2, 4)) == render_flower_svg(Fraction(1, 2))


# sha256 of the default colored SVG, recorded while render still classified
# each triangle one at a time (the per-triangle color_at, now in oracles.py)
SVG_PINS = {
    (2, 3): "383a61b4f87891dbc8498744fd661636ccc5eedfb6149bee3f774626e8ccc5dd",
    (8, 13): "145180979583f23532e4e7326655dbc5b6740f49e64820bfb1998801684a92ed",
    (1, 29): "b1de166ba6883cfac11ec3c1bead1e5dd75e4660dcd5512ddbe4e9804bfc6c8f",
}


@pytest.mark.parametrize("beta", sorted(SVG_PINS))
def test_colored_svg_bytes_are_pinned(beta):
    svg = render_svg(RenderSpec(beta=EisensteinInt(*beta)))
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_PINS[beta]


# sha256 of the flower diagram, recorded while render_flower_svg still found
# the maximal-trapezoid runs by a rule of its own
FLOWER_SVG_PINS = {
    (3, 7): "c66e63085b0898f5c6bb466ae075d509aec13a461ca276c191f1cc2c6c910a70",
    (1, 1): "8d77902bef0e820906826f7850ad0c1bf5d9344d371b2121f2fc662e745da5f4",
    (5, 8): "1b9c3d12bda9de015a5933b63b3b2c32cc76037db8bfa6385d5307a0bb3f5b1b",
    (1, 6): "1effa5367d42dc594fe943f8f0247b48164b69328f9953655416a19b745e0f78",
}


@pytest.mark.parametrize("aspect", sorted(FLOWER_SVG_PINS))
def test_flower_svg_bytes_are_pinned(aspect):
    svg = render_flower_svg(Fraction(*aspect))
    assert hashlib.sha256(svg.encode()).hexdigest() == FLOWER_SVG_PINS[aspect]


# sha256 of renders off the default spec, recorded while render_svg still
# scanned a bounding box and drew each fold once through a set of sides
RENDER_PINS = [
    ((2, 3), {"domains": 2},
     "b52bb901d91c98af218d18118bbe21c3c3cf8f495e7c8d81ce613cdd47d59686"),
    ((1, 2), {"domains": 3},
     "96f830fe32094ed9c6884697dc8ffa5e62a71e0ad32e574c1bad19519e7ef1db"),
    ((8, 13), {"show_folds": False},
     "c1b59f620866446fd731d77793422665f1a9e507f636bc1f8f6fe6d87c2ff22e"),
    ((8, 13), {"show_rhombus": False},
     "da1478703410c08aa98f28c2a23b6aeb2b037d0cccf5f6331fb2e0579d7533be"),
    ((1, 0), {"colored": False},
     "2cefa4879f355df690396103f882b8718498b4c33684f45209c99b864c954693"),
    ((2, 2), {"colored": False},
     "57b393fde7c8194a9986e8a2aff27aa217d8ec366cc2ba93b240ef83fc92cae6"),
    ((2, 4), {"colored": False},
     "e97c8d2790ee3d9cfcb006e7d508eadf76377743da9f85911a4d81daefd0b0b9"),
    ((3, 5), {"colored": False, "domains": 2},
     "d6eee83b0f1d6a147c8dc8b853d4bad69db54f41e0f24ea7ac76f7f706f3f630"),
]


@pytest.mark.parametrize("beta,spec,digest", RENDER_PINS)
def test_render_spec_bytes_are_pinned(beta, spec, digest):
    svg = render_svg(RenderSpec(beta=EisensteinInt(*beta), **spec))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


# every canonical beta 0 <= a <= b of norm <= 49
SMALL_BETAS = [(a, b) for b in range(1, 8) for a in range(b + 1) if a * a + a * b + b * b <= 49]


@pytest.mark.parametrize("beta", SMALL_BETAS)
def test_render_matches_box_scan_oracle(beta):
    colored = [False] + ([True] if beta[0] >= 1 and gcd(*beta) == 1 else [])
    for domains in (1, 2):
        for show_folds in (True, False):
            for c in colored:
                spec = RenderSpec(EisensteinInt(*beta), domains=domains,
                                  show_folds=show_folds, colored=c)
                assert render_svg(spec) == box_scan_render_svg(spec), spec
