"""The record contract of the library's 17 record classes.

One sample of each class is rebuilt from its fields, hashed, assigned to,
copied, pickled and printed.  Every record is frozen, slotted and
hashable, so one contract holds for all of them.  The repr texts are the
ones the classes printed when they were dataclasses, except that a
QuotientComplex prints as its canonical beta, not as an object address,
and that Trapezoid, Necklace, CappedFlower and IeSweepReport have since
changed their fields.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import eisenfold
from eisenfold import (
    EisensteinInt,
    QuadraticSurd,
    RenderSpec,
    SearchBudget,
    SearchReport,
    SpecialHexagon,
    Trapezoid,
    build_complex,
    capped_flower,
    continued_fraction_coloring,
    golden_zeta,
    ie_sweep,
    is_good,
    min_fold_search,
    monochrome_regions,
    necklace,
    periodic_cf_of_surd,
    ratio_scan,
    region_isoperimetric_check,
    sqrt_zeta,
)
from eisenfold.eisenstein import DomainError
from eisenfold.limits import EtaLimitResult


def _fixed_time(rep):
    # a fixed wall time, so the repr is reproducible
    return SearchReport(rep.beta, rep.best_fold, rep.best_coloring, rep.status,
                        rep.nodes_explored, 0.25, rep.proven_lower_bound)


def _samples():
    beta = EisensteinInt(1, 2)
    col = continued_fraction_coloring(beta)
    rep = min_fold_search(build_complex(EisensteinInt(1, 1)))
    zeta = golden_zeta()
    return {
        "EisensteinInt": beta,
        "QuadraticSurd": QuadraticSurd.make(Fraction(1, 2), Fraction(3, 2), 20),
        "CFExpansion": periodic_cf_of_surd(sqrt_zeta(7)),
        "Trapezoid": Trapezoid(2, 3, 4, True),
        "Necklace": necklace(Fraction(1, 2)),
        "CappedFlower": capped_flower(EisensteinInt(1, 1)),
        "FaceColoring": col,
        "GoodnessReport": is_good(col),
        "MonochromeRegion": monochrome_regions(col)[0],
        "SpecialHexagon": SpecialHexagon((1, 2, 3, 1, 2, 3)),
        "RegionIsoperimetricReport": region_isoperimetric_check(col),
        "EtaLimitResult": EtaLimitResult(zeta, zeta, periodic_cf_of_surd(zeta), (30, 60), 12),
        "ScanRow": ratio_scan(zeta, 3)[2],
        "SearchBudget": SearchBudget(max_nodes=1000),
        "SearchReport": _fixed_time(rep),
        "IeSweepReport": ie_sweep([(1, 2)], 5),
        "RenderSpec": RenderSpec(EisensteinInt(2, 3), scale=12.5),
    }


def _traps(a, b, mirrored):
    return ", ".join(
        f"Trapezoid(a={a}, b={b}, slot={s}, mirrored={mirrored})"
        for s in range(6)
    )


REPRS = {
    "EisensteinInt": "EisensteinInt(1, 2)",
    "QuadraticSurd": "QuadraticSurd(r=Fraction(1, 2), s=Fraction(3, 1), d=5)",
    "CFExpansion": "CFExpansion(preperiod=(0,), period=(1, 1, 1, 4))",
    "Trapezoid": "Trapezoid(a=2, b=3, slot=4, mirrored=True)",
    "Necklace": "Necklace(aspect=Fraction(1, 2), mirrored=False, "
                f"trapezoids=({_traps(1, 2, False)}))",
    "CappedFlower": "CappedFlower(beta=EisensteinInt(1, 1), necklaces=(Necklace("
                    "aspect=Fraction(1, 1), mirrored=False, "
                    f"trapezoids=({_traps(1, 1, False)})),), necklace_colors=(0,), "
                    "cap_color=1, _caps=(((0, 3), (3, 3), (0, 6), (-3, 6)), "
                    "((-3, 3), (-3, 6), (-6, 6), (-6, 3)), ((-3, 0), (-6, 3), (-6, 0), (-3, -3)), "
                    "((0, -3), (-3, -3), (0, -6), (3, -6)), ((3, -3), (3, -6), (6, -6), (6, -3)), "
                    "((3, 0), (6, -3), (6, 0), (3, 3))))",
    "FaceColoring": "FaceColoring(complex=QuotientComplex(EisensteinInt(1, 2)), "
                    "colors=(1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0))",
    "GoodnessReport": "GoodnessReport(good=True, violations=(), mod6=True)",
    "MonochromeRegion": "MonochromeRegion(color=1, faces=frozenset({0}), boundary_length=3, "
                        "lifted_polygon=(EisensteinInt(0, 0), EisensteinInt(1, 0), "
                        "EisensteinInt(0, 1)))",
    "SpecialHexagon": "SpecialHexagon(lengths=(1, 2, 3, 1, 2, 3))",
    "RegionIsoperimetricReport": "RegionIsoperimetricReport(region_ratios=(Fraction(9, 1), "
                                 "Fraction(9, 1), Fraction(8, 1)), min_ratio=Fraction(8, 1), "
                                 "per_region_bound_holds=True, fold_total=13, white_face_total=7, "
                                 "farey_aggregate=Fraction(61, 7), eta=Fraction(169, 14), "
                                 "eta_lower_bound_holds=True)",
    "EtaLimitResult": "EtaLimitResult(zeta=QuadraticSurd(r=Fraction(-1, 2), s=Fraction(1, 2), "
                      "d=5), surd=QuadraticSurd(r=Fraction(-1, 2), s=Fraction(1, 2), d=5), "
                      "expansion=CFExpansion(preperiod=(0,), period=(1,)), depths_used=(30, 60), "
                      "prefix_length=12)",
    "ScanRow": "ScanRow(n=3, p=2, q=3, fold=23, faces=38, fold_ratio=Fraction(23, 38), "
               "eta_ratio=Fraction(529, 38))",
    "SearchBudget": "SearchBudget(max_nodes=1000, max_seconds=None)",
    "SearchReport": "SearchReport(beta=EisensteinInt(1, 1), best_fold=7, "
                    "best_coloring=FaceColoring(complex=QuotientComplex(EisensteinInt(1, 1)), "
                    "colors=(0, 0, 1, 1, 0, 1)), status='ProvedOptimal', "
                    "nodes_explored=17, wall_time=0.25, proven_lower_bound=7)",
    "IeSweepReport": "IeSweepReport(baselines=(((1, 2), (169, 14)),), checked=4, violations=())",
    "RenderSpec": "RenderSpec(beta=EisensteinInt(2, 3), domains=1, show_rhombus=True, "
                  "show_folds=True, scale=12.5, colored=True)",
}


@pytest.fixture(scope="module")
def samples():
    return _samples()


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def test_samples_cover_every_record_class(samples):
    # every class of the library that `record` built has a sample and a repr
    modules = [importlib.import_module(m.name)
               for m in pkgutil.iter_modules(eisenfold.__path__, "eisenfold.")]
    records = {v.__name__ for m in modules for v in vars(m).values()
               if isinstance(v, type) and "__record_key__" in vars(v)}
    assert records == set(REPRS)
    assert sorted(samples) == sorted(REPRS)
    assert all(type(x).__name__ == name for name, x in samples.items())


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_contract(samples, name):
    x = samples[name]
    cls, fields = type(x), _fields(x)
    assert repr(x) == REPRS[name]

    rebuilt = cls(*fields)
    assert rebuilt == x and not rebuilt != x
    assert cls(**dict(zip(cls.__match_args__, fields))) == x
    # equality holds only within one class
    assert x != fields and fields != x

    assert hash(x) == hash(fields) == hash(rebuilt)
    for field in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert _fields(x) == fields
    assert not hasattr(x, "__dict__")

    shallow = copy.copy(x)
    assert type(shallow) is cls and shallow == x
    assert all(a is b for a, b in zip(_fields(shallow), fields))
    loaded = pickle.loads(pickle.dumps(x))
    assert type(loaded) is cls and loaded == x and not loaded != x


def test_post_init_runs_after_every_field_is_set():
    # QuadraticSurd reads s and d, SearchBudget both of its fields
    assert QuadraticSurd(Fraction(2), Fraction(0), 7).d == 1
    with pytest.raises(DomainError, match="max_seconds"):
        SearchBudget(5, 0.0)
    with pytest.raises(TypeError):
        EisensteinInt(1)
    with pytest.raises(TypeError):
        EisensteinInt(1, 2, 3)


def test_records_holding_a_complex_compare_across_builds():
    # a complex equals every complex of its canonical beta, and no other
    col = continued_fraction_coloring(EisensteinInt(2, 3))
    other = continued_fraction_coloring(EisensteinInt(3, 2))
    assert other.complex is not col.complex
    assert other == col and hash(other) == hash(col)
    assert build_complex(EisensteinInt(1, 2)) != build_complex(EisensteinInt(1, 1))
    assert build_complex(EisensteinInt(1, 2)) != EisensteinInt(1, 2)
    first, second = (_fixed_time(min_fold_search(build_complex(EisensteinInt(1, 1))))
                     for _ in range(2))
    assert first.best_coloring.complex is not second.best_coloring.complex
    assert first == second
