"""Continued-fraction colorings of Eisenstein sphere triangulations."""

from .eisenstein import (
    ALPHA,
    DomainError,
    EisensteinInt,
    canonicalize,
    is_primitive,
    slow_gauss,
)
from .surface import QuotientComplex, build_complex
from .flower import (
    BLACK,
    WHITE,
    CappedFlower,
    Necklace,
    Trapezoid,
    capped_flower,
    cf_eta,
    cf_face_count,
    cf_fold_count,
    empty_flower,
    fill_and_cap,
    necklace,
    necklace_gamma,
)
from .coloring import (
    FaceColoring,
    GoodnessError,
    MonochromeRegion,
    alternating_coloring,
    color_balance,
    continued_fraction_coloring,
    eta,
    fold_count,
    is_good,
    monochrome_regions,
    vertex_four_coloring,
)
from .isoperimetric import SpecialHexagon, region_isoperimetric_check
from .surd import CFExpansion, QuadraticSurd, periodic_cf_of_surd, surd_from_periodic_cf
from .limits import (
    UndeterminedError,
    eta_limit_numeric,
    fib_face_count,
    fib_fold_count,
    golden_zeta,
    ratio_scan,
    sqrt_zeta,
)
from .search import (
    SearchBudget,
    SearchReport,
    ie_sweep,
    min_fold_search,
    vertex_swap,
)
from .render import RenderSpec, render_flower_svg, render_svg

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use, so `python -m eisenfold.cli` does not
    # find the module already imported by its package
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
