"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from eisenfold.coloring import (
    alternating_coloring,
    color_balance,
    continued_fraction_coloring,
    fold_count,
    is_good,
    to_json_dict,
)
from eisenfold.eisenstein import EisensteinInt
from eisenfold.isoperimetric import (
    enumerate_lattice_special_hexagons,
    region_isoperimetric_check,
)
from eisenfold.jsonio import dumps
from eisenfold.limits import (
    UndeterminedError,
    eta_limit_numeric,
    fib_face_count,
    fib_fold_count,
    golden_zeta,
    ratio_scan,
    sqrt_zeta,
)
from eisenfold.render import RenderSpec, render_svg
from eisenfold.search import (
    SearchBudget,
    ie_sweep,
    iter_good_colorings,
    min_fold_search,
)
from eisenfold.surd import QuadraticSurd
from eisenfold.surface import build_complex

from oracles import brute_force_good_colorings


FIB_TABLE = {
    2: ((1, 2), 13, 14),
    3: ((2, 3), 23, 38),
    4: ((3, 5), 39, 98),
    5: ((5, 8), 65, 258),
    6: ((8, 13), 107, 674),
}


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE C{n:02d} PASS - {text}")


def _primitive_canonical(b_max: int, a_min: int = 1):
    for b in range(1, b_max + 1):
        for a in range(a_min, b + 1):
            if gcd(a, b) == 1:
                yield a, b


def test_c01_fibonacci_table_reproduction():
    t0 = time.monotonic()
    for n, ((a, b), f, F) in FIB_TABLE.items():
        col = continued_fraction_coloring(EisensteinInt(a, b))
        assert col.complex.face_count == F, (n, F)
        assert fold_count(col) == f, (n, f)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _report(1, f"constructed (f, F) for n=2..6 match exactly ({elapsed:.1f}s)")


def test_c02_closed_forms_match_construction_to_n_12():
    t0 = time.monotonic()
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for n in range(2, 13):
        a, b = fib[n - 1], fib[n]
        beta = EisensteinInt(a, b)
        col = continued_fraction_coloring(beta)
        assert col.complex.face_count == fib_face_count(n), n
        assert fold_count(col) == fib_fold_count(n), n
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(2, f"fib closed forms equal constructed values for n=2..12 ({elapsed:.0f}s)")


def test_c03_alternating_baseline():
    c = build_complex(EisensteinInt(2, 3))
    assert fold_count(alternating_coloring(c)) == 57
    for a, b in _primitive_canonical(21, a_min=0):
        if (a, b) == (0, 0):
            continue
        cx = build_complex(EisensteinInt(a, b))
        assert fold_count(alternating_coloring(cx)) == 3 * cx.face_count // 2
    _report(3, "alternating fold = 57 on T(2+3a) and 3F/2 for all primitive b <= 21")


def test_c04_structural_invariants_b_le_34():
    for a, b in _primitive_canonical(34, a_min=0):
        c = build_complex(EisensteinInt(a, b))
        F, V = c.face_count, c.vertex_count
        assert F == 2 * (a * a + a * b + b * b)
        assert V == F // 2 + 2
        degs = c.degree_sequence()
        assert degs[:3] == [2, 2, 2]
        assert sum(6 - d for d in degs if d != 6) == 12
        if a >= 1:
            col = continued_fraction_coloring(c.beta, c)
            rep = is_good(col)
            assert rep.good and rep.mod6
            assert color_balance(col) == (F // 2, F // 2)
    _report(4, "complex structure and C(beta) goodness/balance hold for all b <= 34")


def test_c05_eta_limit_golden():
    t0 = time.monotonic()
    res = eta_limit_numeric(golden_zeta())
    assert res.surd == QuadraticSurd(Fraction(9), Fraction(4), 5)
    assert 17.944 < float(res.surd) < 17.945
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(5, f"eta limit of the golden aspect is exactly 9 + 4*sqrt(5) ({elapsed:.1f}s)")


SQRT_FAMILY = {
    2: (Fraction(75, 7), Fraction(53, 7), 2),
    3: (Fraction(132, 13), Fraction(72, 13), 3),
    5: (Fraction(321, 19), Fraction(137, 19), 5),
    6: (Fraction(27, 2), Fraction(9, 2), 6),
    7: (Fraction(3100, 259), Fraction(856, 259), 7),
    8: (Fraction(1569, 98), Fraction(370, 49), 2),
}


def test_c06_eta_limit_sqrt_family():
    t0 = time.monotonic()
    for n, (r, s, d) in SQRT_FAMILY.items():
        res = eta_limit_numeric(sqrt_zeta(n))
        assert res.surd == QuadraticSurd(r, s, d), n
    # failure mode is always explicit, never a wrong surd
    for n in SQRT_FAMILY:
        try:
            res = eta_limit_numeric(sqrt_zeta(n), depth_schedule=((40, 60),))
        except UndeterminedError:
            continue
        r, s, d = SQRT_FAMILY[n]
        assert res.surd == QuadraticSurd(r, s, d), n
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    _report(6, f"all six sqrt-family eta limits reconstruct exactly ({elapsed:.1f}s)")


def test_c07_exact_search():
    t0 = time.monotonic()
    c = build_complex(EisensteinInt(1, 2))
    oracle_min = min(fold_count(col) for col in brute_force_good_colorings(c))
    t_oracle = time.monotonic() - t0
    assert oracle_min == 13 and t_oracle < 1.0
    rep = min_fold_search(c, mode="exact")
    assert rep.status == "ProvedOptimal" and rep.best_fold == 13
    assert rep.best_fold == fold_count(continued_fraction_coloring(c.beta, c))

    t1 = time.monotonic()
    c2 = build_complex(EisensteinInt(2, 3))
    rep2 = min_fold_search(c2, mode="exact")
    elapsed2 = time.monotonic() - t1
    assert rep2.status == "ProvedOptimal" and rep2.best_fold == 23
    assert rep2.best_fold == fold_count(continued_fraction_coloring(c2.beta, c2))
    assert elapsed2 < 900
    _report(7, f"exact minima 13 on T(1+2a) and 23 on T(2+3a) proved ({elapsed2:.1f}s)")


def test_c08_anytime_improves_on_cf_coloring_1_5():
    c = build_complex(EisensteinInt(1, 5))
    baseline = fold_count(continued_fraction_coloring(c.beta, c))
    assert baseline == 43
    t0 = time.monotonic()
    rep = min_fold_search(c, mode="anytime", budget=SearchBudget(max_seconds=300))
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    assert rep.best_fold < baseline
    assert is_good(rep.best_coloring).good
    _report(8, f"anytime search found fold {rep.best_fold} < {baseline} on T(1+5a) ({elapsed:.0f}s)")


def test_c09_isoperimetric_bound_suite():
    t0 = time.monotonic()
    betas = [
        (a, b)
        for b in range(1, 5)
        for a in range(0, b + 1)
        if (a, b) != (0, 0) and 2 * (a * a + a * b + b * b) <= 38
    ]
    assert (2, 3) in betas and (0, 4) in betas
    colorings = 0
    for a, b in betas:
        c = build_complex(EisensteinInt(a, b))
        for col in iter_good_colorings(c):
            rep = region_isoperimetric_check(col)
            assert rep.eta >= 3, (a, b)
            assert rep.per_region_bound_holds, (a, b)
            assert rep.eta_lower_bound_holds, (a, b)
            colorings += 1
    equality = []
    for h in enumerate_lattice_special_hexagons(12):
        p, n = h.perimeter(), h.triangle_units()
        assert p * p >= 6 * n, h.lengths
        if p * p == 6 * n:
            equality.append(h.lengths)
    assert set(equality) == {(1,) * 6, (2,) * 6}
    elapsed = time.monotonic() - t0
    _report(9, f"eta >= 3 and region bounds over {colorings} good colorings; "
               f"hexagon equality only when regular ({elapsed:.0f}s)")


def _phi_minus_6() -> Fraction:
    scale = 10 ** 40
    sqrt5 = Fraction(isqrt(5 * scale * scale), scale)
    return 9 - 4 * sqrt5


def test_c10_statement_1_desk_check():
    rows = {row.n: row for row in ratio_scan(golden_zeta(), 12)}
    ratios = [rows[n].fold_ratio for n in range(2, 13)]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < Fraction(1, 20)
    col = {n: float(rows[n].eta_ratio * _phi_minus_6()) for n in range(2, 7)}
    assert abs(col[2] - 0.672718) < 5e-7
    assert abs(col[4] - 0.864923) < 5e-7
    assert abs(col[5] - 0.912601) < 5e-7
    # n = 3 is forced by f = 23, F = 38 to round to .775794 at 6 decimals;
    # the companion xfail below records the one-off variant seen elsewhere
    assert abs(col[3] - 0.775794) < 5e-7
    assert abs(col[6] - 0.946633) < 5e-7
    _report(10, "fold ratio strictly decreasing, < 0.05 by n=12; "
                "phi^-6 eta column matches to 6 decimals")


@pytest.mark.xfail(
    strict=True,
    reason="phi^-6 * 23^2 / 38 = 0.77579367..., so a 6-decimal value of "
    ".775795 for n=3 is mathematically unsatisfiable (it rounds to .775794)",
)
def test_c10_n3_one_off_rounding_cannot_hold():
    rows = {row.n: row for row in ratio_scan(golden_zeta(), 3)}
    value = float(rows[3].eta_ratio * _phi_minus_6())
    assert abs(value - 0.775795) < 5e-7


def test_c11_ie_sweep():
    t0 = time.monotonic()
    rep = ie_sweep([(1, 2), (2, 3), (3, 5)], b_max=100)
    elapsed = time.monotonic() - t0
    assert rep.violations == ()
    assert rep.checked > 3000
    assert elapsed < 1200
    _report(11, f"zero eta-order violations over {rep.checked} comparisons ({elapsed:.0f}s)")


def test_c12_determinism():
    # criterion 1 artifacts: coloring JSON for the table betas
    for (a, b), _, _ in FIB_TABLE.values():
        doc1 = dumps(to_json_dict(continued_fraction_coloring(EisensteinInt(a, b))))
        doc2 = dumps(to_json_dict(continued_fraction_coloring(EisensteinInt(a, b))))
        assert doc1 == doc2
    # criterion 5 artifact: the eta-limit result
    r1 = eta_limit_numeric(golden_zeta())
    r2 = eta_limit_numeric(golden_zeta())
    assert (r1.surd, r1.expansion, r1.depths_used) == (r2.surd, r2.expansion, r2.depths_used)
    # criterion 7 artifact: search report JSON (canonical form, no timing)
    c = build_complex(EisensteinInt(1, 2))
    s1 = dumps(min_fold_search(c, mode="exact").to_json_dict())
    s2 = dumps(min_fold_search(c, mode="exact").to_json_dict())
    assert s1 == s2
    # SVG artifacts
    for beta in [(1, 2), (2, 3), (3, 5)]:
        spec = RenderSpec(beta=EisensteinInt(*beta))
        assert render_svg(spec) == render_svg(spec)
    _report(12, "JSON and SVG artifacts are byte-identical across repeated runs")
