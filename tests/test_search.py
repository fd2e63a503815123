import copy
import hashlib
import json
import os
import random
import time
from math import gcd

import pytest

from eisenfold.coloring import (
    alternating_coloring,
    continued_fraction_coloring,
    fold_count,
    is_good,
)
from eisenfold.eisenstein import DomainError, EisensteinInt
from eisenfold.flower import BLACK, WHITE, cf_eta
from eisenfold.search import (
    SearchBudget,
    SwapError,
    ie_sweep,
    iter_good_colorings,
    min_fold_search,
    swappable_vertices,
    vertex_swap,
)
from eisenfold.search import (
    _SPLIT_DEPTH,
    _Budget,
    _Tables,
    _dfs,
    _expand_prefixes,
    _fold_floor,
    _initial_incumbent,
    _replay,
    _solve,
)
from eisenfold.surface import build_complex

from oracles import (
    ReferenceBudget,
    ReferenceDfs,
    brute_force_good_colorings,
    enumerate_good_colorings,
    reference_expand_prefixes,
    reference_ie_sweep,
)


def test_taco_enumeration():
    c = build_complex(EisensteinInt(1, 0))
    res = enumerate_good_colorings(c)
    assert not res.truncated
    assert {col.colors for col in res.colorings} == {(BLACK, WHITE), (WHITE, BLACK)}


@pytest.mark.parametrize("beta", [(1, 0), (1, 1), (0, 2), (1, 2)])
def test_enumeration_matches_brute_force(beta):
    c = build_complex(EisensteinInt(*beta))
    expected = {col.colors for col in brute_force_good_colorings(c)}
    got = {col.colors for col in enumerate_good_colorings(c).colorings}
    assert got == expected
    # exactly once each
    assert len(list(iter_good_colorings(c))) == len(expected)


def test_every_emitted_coloring_is_balanced():
    c = build_complex(EisensteinInt(1, 2))
    for col in iter_good_colorings(c):
        blacks = sum(1 for x in col.colors if x == BLACK)
        assert 2 * blacks == c.face_count
        assert is_good(col).good


def test_enumeration_cap():
    c = build_complex(EisensteinInt(1, 2))
    res = enumerate_good_colorings(c, cap=10)
    assert res.truncated and len(res.colorings) == 10


def test_vertex_swap_on_alternating():
    c = build_complex(EisensteinInt(2, 3))
    col = alternating_coloring(c)
    v = next(v for v in range(c.vertex_count) if c.degrees[v] == 6)
    swapped = vertex_swap(col, v)
    assert is_good(swapped).good
    assert vertex_swap(swapped, v).colors == col.colors  # involution


def test_vertex_swap_inapplicable():
    c = build_complex(EisensteinInt(2, 3))
    col = continued_fraction_coloring(c.beta, c)
    bad = []
    for v in range(c.vertex_count):
        try:
            vertex_swap(col, v)
        except SwapError:
            bad.append(v)
    assert bad  # the continued-fraction coloring has non-alternating stars
    deg2 = next(v for v in range(c.vertex_count) if c.degrees[v] == 2)
    with pytest.raises(SwapError):
        vertex_swap(col, deg2)
    for v in (-1, c.vertex_count):
        with pytest.raises(DomainError):
            vertex_swap(col, v)


def _swappable_by_scan(col):
    """Oracle: degree-6 vertices whose star has six distinct, alternating faces."""
    c = col.complex
    out = []
    for v in range(c.vertex_count):
        if c.degrees[v] != 6:
            continue
        star = c.vertex_star(v)
        ring = [col.colors[f] for f in star]
        if len(set(star)) == 6 and all(a != b for a, b in zip(ring, ring[1:] + ring[:1])):
            out.append(v)
    return out


def test_incremental_star_swaps_match_recomputation():
    # a seeded walk through vertex_swap: each step flips exactly the star,
    # moves the fold count by the star's sides to outside faces, keeps the
    # coloring good and leaves swappable_vertices equal to the face scan
    c = build_complex(EisensteinInt(8, 13))
    rng = random.Random(13)
    col = alternating_coloring(c)
    folds = fold_count(col)
    for _ in range(200):
        options = swappable_vertices(col)
        assert options == _swappable_by_scan(col)
        v = rng.choice(options)
        star = c.vertex_star(v)
        folds += sum(1 if col.colors[f] == col.colors[g] else -1
                     for f in star for g, _ in c.pairing[f] if g not in star)
        after = vertex_swap(col, v)
        assert [f for f in range(c.face_count) if after.colors[f] != col.colors[f]] == sorted(star)
        col = after
        assert folds == fold_count(col)
        assert is_good(col).good
    assert swappable_vertices(col) == _swappable_by_scan(col)


# (nodes_explored, best coloring) of the serial exact search; a change to the
# search tree or to the tie-break shows up here
EXACT_PINS = {
    (1, 2): (239, "00001110110011"),
    (2, 3): (30_323, "00000011100111000011111011100010011011"),
    (1, 4): (111_521, "000111000110111011110000001011101100100101"),
}


# the same at 2 workers, whose subtree tasks prune against the initial
# incumbent only
EXACT_PINS_2W = {
    (1, 2): (204, "00001110110011"),
    (2, 3): (30_288, "00000011100111000011111011100010011011"),
}


@pytest.mark.parametrize("beta", sorted(EXACT_PINS))
def test_exact_search_tree_is_pinned(beta):
    rep = min_fold_search(build_complex(EisensteinInt(*beta)), mode="exact", threads=1)
    assert rep.status == "ProvedOptimal"
    assert (rep.nodes_explored, rep.best_coloring.bitstring()) == EXACT_PINS[beta]


@pytest.mark.parametrize("beta", sorted(EXACT_PINS_2W))
def test_two_worker_search_tree_is_pinned(beta):
    rep = min_fold_search(build_complex(EisensteinInt(*beta)), mode="exact", threads=2)
    assert rep.status == "ProvedOptimal"
    assert (rep.nodes_explored, rep.best_coloring.bitstring()) == EXACT_PINS_2W[beta]


def test_worker_count_has_no_environment_cap(monkeypatch):
    # no environment variable caps the worker count (1 worker: 239 nodes)
    monkeypatch.setenv("EISENFOLD_THREADS", "1")
    rep = min_fold_search(build_complex(EisensteinInt(1, 2)), mode="exact", threads=2)
    assert (rep.nodes_explored, rep.best_coloring.bitstring()) == EXACT_PINS_2W[(1, 2)]


# every canonical beta of norm <= 19 (F <= 38)
SMALL_BETAS = [(a, b) for b in range(5) for a in range(b + 1) if 0 < a * a + a * b + b * b <= 19]


def _greedy_order(black_folds, white_folds):
    return (BLACK, WHITE) if black_folds <= white_folds else (WHITE, BLACK)


def _leaves(search, budget_class, value_order, tighten):
    """The (colors, folds) leaves a DFS from the root emits and its node
    count, either enumerating every good coloring or lowering the bound at
    each leaf; search(bound, budget, emit, frontier, value_order) runs it."""
    leaves, bound, budget = [], [None], budget_class()

    def emit(cols, folds):
        leaves.append((cols, folds))
        if tighten and (bound[0] is None or folds < bound[0]):
            bound[0] = folds

    search(bound, budget, emit, [], value_order)
    return leaves, budget.nodes


@pytest.mark.parametrize("beta", SMALL_BETAS)
def test_dfs_visits_the_reference_tree(beta):
    tables = _Tables(build_complex(EisensteinInt(*beta)))
    for value_order in (None, _greedy_order):
        for tighten in (False, True):
            assert (_leaves(lambda *args: _dfs(tables, "", *args), _Budget,
                            value_order, tighten)
                    == _leaves(lambda *args: ReferenceDfs(tables).search(0, 0, *args),
                               ReferenceBudget, value_order, tighten))
    depth = min(_SPLIT_DEPTH, tables.F - 1)
    assert _expand_prefixes(tables, depth) == reference_expand_prefixes(tables, depth)


def test_every_face_has_three_distinct_corners():
    # the DFS steps each corner of a face once: the cone points are lattice
    # vertices, so every rotation centre is a lattice point, and no group
    # element maps a corner onto an adjacent one.  So a face meets a vertex
    # at most once, and every degree-6 star has six distinct faces
    for b in range(1, 26):
        for a in range(b + 1):
            c = build_complex(EisensteinInt(a, b))
            assert all(len(set(ids)) == 3 for ids in c.face_vertices), (a, b)
            assert all(len(set(star)) == 6 for star in c.vertex_stars()
                       if len(star) == 6), (a, b)


def test_tables_reject_a_face_that_repeats_a_corner():
    c = copy.copy(build_complex(EisensteinInt(1, 2)))
    v0, _, v2 = c.face_vertices[-1]
    c.face_vertices = c.face_vertices[:-1] + [(v0, v0, v2)]
    with pytest.raises(AssertionError, match="repeats a corner"):
        _Tables(c)


def test_exact_search_1_2():
    c = build_complex(EisensteinInt(1, 2))
    rep = min_fold_search(c, mode="exact")
    assert rep.status == "ProvedOptimal"
    assert rep.best_fold == 13
    assert rep.proven_lower_bound == 13
    assert fold_count(rep.best_coloring) == 13
    # brute-force oracle agrees
    folds = [fold_count(col) for col in brute_force_good_colorings(c)]
    assert min(folds) == 13


def test_exact_search_2_3():
    c = build_complex(EisensteinInt(2, 3))
    rep = min_fold_search(c, mode="exact")
    assert rep.status == "ProvedOptimal"
    assert rep.best_fold == 23 == fold_count(continued_fraction_coloring(c.beta, c))


def test_exact_search_deterministic_across_runs_and_threads():
    c = build_complex(EisensteinInt(1, 2))
    rep1 = min_fold_search(c, mode="exact")
    rep2 = min_fold_search(c, mode="exact")
    assert rep1.best_coloring.colors == rep2.best_coloring.colors
    rep3 = min_fold_search(c, mode="exact", threads=2)
    assert rep3.best_fold == rep1.best_fold
    assert rep3.best_coloring.colors == rep1.best_coloring.colors
    assert rep3.status == "ProvedOptimal"


def test_budget_exhaustion_downgrades_with_lower_bound():
    c = build_complex(EisensteinInt(1, 5))
    rep = min_fold_search(c, mode="exact", budget=SearchBudget(max_nodes=2000))
    assert rep.status == "Incumbent"
    assert rep.proven_lower_bound <= rep.best_fold
    assert is_good(rep.best_coloring).good


def test_checkpoint_resume_completes_search(tmp_path):
    c = build_complex(EisensteinInt(1, 2))
    ck = str(tmp_path / "ck.json")
    rep = min_fold_search(c, mode="exact", budget=SearchBudget(max_nodes=40),
                          checkpoint_out=ck)
    assert rep.status == "Incumbent"
    assert os.path.exists(ck)
    rep2 = min_fold_search(c, mode="exact", resume=ck)
    assert rep2.status == "ProvedOptimal"
    assert rep2.best_fold == 13
    full = min_fold_search(c, mode="exact")
    assert rep2.best_coloring.colors == full.best_coloring.colors


def test_anytime_not_below_exact():
    c = build_complex(EisensteinInt(1, 2))
    exact = min_fold_search(c, mode="exact")
    anytime = min_fold_search(c, mode="anytime", budget=SearchBudget(max_seconds=5))
    assert anytime.best_fold >= exact.best_fold
    assert is_good(anytime.best_coloring).good


def test_anytime_beats_cf_coloring_on_1_5():
    c = build_complex(EisensteinInt(1, 5))
    baseline = fold_count(continued_fraction_coloring(c.beta, c))
    assert baseline == 43
    rep = min_fold_search(c, mode="anytime", budget=SearchBudget(max_seconds=30))
    assert rep.best_fold < baseline


def test_anytime_deadline_bounds_the_whole_run():
    # the deadline bounds the whole run, seeds, walk and final checks
    c = build_complex(EisensteinInt(8, 13))
    rep = min_fold_search(c, mode="anytime", budget=SearchBudget(10_000_000, 0.3))
    assert rep.wall_time < 0.8
    assert rep.status == "Incumbent"


# the walk from the scaled seed g * f(beta/g): 42 = 6 * 7 on (6, 6) and
# 39 = 3 * 13 on (3, 6); the alternating seed alone gives 324 and 189
@pytest.mark.parametrize("beta, most", [((6, 6), 42), ((3, 6), 39)])
def test_anytime_walks_from_the_scaled_seed(beta, most):
    rep = min_fold_search(build_complex(EisensteinInt(*beta)), mode="anytime")
    assert rep.best_fold <= most
    assert rep.nodes_explored == 300_000


def test_search_json_shape():
    c = build_complex(EisensteinInt(1, 2))
    rep = min_fold_search(c, mode="exact")
    doc = rep.to_json_dict()
    assert doc["schema"] == "search.v1"
    assert "wall_time" not in doc
    assert doc["best_fold"] == 13
    doc_t = rep.to_json_dict(include_timing=True)
    assert "wall_time" in doc_t


def test_ie_sweep_small():
    rep = ie_sweep([(1, 2)], b_max=40)
    assert rep.violations == ()
    assert rep.baselines == (((1, 2), (169, 14)),)
    assert rep.checked > 0


@pytest.mark.parametrize("betas", [[(0, 1)], [(2, 4)], [(3, 2)], [(1, 2), (2, 3), (1, 2)],
                                   [(1, 3), (1, 3)]])
def test_ie_sweep_rejects_a_baseline_without_a_flower_or_listed_twice(betas):
    # a repeated pair would key one baseline and report it once; the
    # row-by-row oracle rejects the same lists
    with pytest.raises(DomainError):
        ie_sweep(betas, 20)
    with pytest.raises(DomainError):
        reference_ie_sweep(betas, 20)


@pytest.mark.parametrize("base", [(1, 2), (2, 3), (3, 5), (1, 3)])
def test_ie_sweep_matches_a_fraction_comparison(base):
    b_max = 120
    base_eta = cf_eta(*base)
    pairs = [(a2, b2) for b2 in range(base[1], b_max) for a2 in range(1, b2 + 1)
             if gcd(a2, b2) == 1 and (a2, b2) != base]
    rep = ie_sweep([base], b_max)
    assert rep.checked == len(pairs)
    assert rep.violations == tuple((base, p) for p in pairs if not base_eta < cf_eta(*p))


@pytest.mark.parametrize("base", [(1, 2), (2, 3), (3, 5), (1, 3)])
def test_ie_sweep_tree_matches_the_row_by_row_sweep(base):
    rep = ie_sweep([base], 450)
    assert rep == reference_ie_sweep([base], 450)
    assert len(rep.violations) == (4 if base == (1, 3) else 0)


@pytest.mark.parametrize("b_max", [-5, 0, 1, 2, 3, 4, 5, 6, 40])
def test_ie_sweep_tree_matches_the_row_by_row_sweep_for_several_baselines(b_max):
    # b_max around each baseline's b: below it, at it and one past it; a
    # repeated baseline is an error, so each is listed once
    betas = [(1, 3), (1, 1), (2, 5), (1, 2)]
    assert ie_sweep(betas, b_max) == reference_ie_sweep(betas, b_max)


def test_ie_sweep_example_comparison():
    assert cf_eta(1, 2) < cf_eta(1, 3)


def test_exact_search_matches_enumeration_on_more_instances():
    # a second primitive instance and a non-primitive one
    for beta, expected in (((1, 3), 21), ((0, 2), 6)):
        c = build_complex(EisensteinInt(*beta))
        enum_min = min(fold_count(col) for col in iter_good_colorings(c))
        rep = min_fold_search(c, mode="exact")
        assert rep.status == "ProvedOptimal"
        assert rep.best_fold == enum_min == expected


def test_enumeration_sequence_is_deterministic():
    c = build_complex(EisensteinInt(1, 2))
    first = [col.colors for col in iter_good_colorings(c)]
    second = [col.colors for col in iter_good_colorings(c)]
    assert first == second


# checkpoint at a budget, then resume: the best coloring is the one of the
# run without a checkpoint, whatever the worker counts on either side (at
# 28,000 nodes per task, 2 workers finish without writing a checkpoint)
@pytest.mark.parametrize("max_nodes", [3000, 28_000])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("resume_threads", [1, 2])
def test_resume_reaches_the_uninterrupted_best_coloring(tmp_path, max_nodes, threads,
                                                        resume_threads):
    c = build_complex(EisensteinInt(2, 3))
    full = min_fold_search(c, mode="exact")
    ck = str(tmp_path / "ck.json")
    rep = min_fold_search(c, mode="exact", budget=SearchBudget(max_nodes=max_nodes),
                          threads=threads, checkpoint_out=ck)
    if rep.status == "Incumbent":
        rep = min_fold_search(c, mode="exact", threads=resume_threads, resume=ck)
    else:
        assert not os.path.exists(ck)
    assert rep.status == "ProvedOptimal"
    assert rep.best_coloring.colors == full.best_coloring.colors


# a checkpoint at a node budget stops after exactly that many nodes, and its
# resumed run counts each remaining node once
@pytest.mark.parametrize("max_nodes", [1, 40, 3000, 28_000])
@pytest.mark.parametrize("beta", [(1, 2), (2, 3)])
def test_checkpoint_and_resume_count_each_node_once(tmp_path, beta, max_nodes):
    c = build_complex(EisensteinInt(*beta))
    full = min_fold_search(c, mode="exact", threads=1)
    ck = str(tmp_path / "ck.json")
    rep = min_fold_search(c, mode="exact", budget=SearchBudget(max_nodes=max_nodes),
                          threads=1, checkpoint_out=ck)
    if max_nodes < full.nodes_explored:
        assert (rep.status, rep.nodes_explored) == ("Incumbent", max_nodes)
        rep = min_fold_search(c, mode="exact", threads=1, resume=ck)
    assert rep.status == "ProvedOptimal"
    assert rep.nodes_explored == full.nodes_explored
    assert rep.best_coloring.colors == full.best_coloring.colors


# the frontier a budget stop leaves resumes to the uninterrupted search, and
# no entry records more folds than its prefix has
@pytest.mark.parametrize("beta", SMALL_BETAS)
def test_budget_stop_frontier_resumes_the_uninterrupted_search(beta):
    tables = _Tables(build_complex(EisensteinInt(*beta)))
    inc_fold = _initial_incumbent(tables.c)[0]
    best_fold, _, complete, n, _ = _solve(tables, [""], inc_fold, None, None)
    assert complete
    for max_nodes in sorted({1, 2, 3, n // 3, n // 2, n - 1} & set(range(1, n))):
        fold, _, complete, nodes, frontier = _solve(tables, [""], inc_fold, max_nodes, None)
        assert (complete, nodes) == (False, max_nodes)
        resumed = _solve(tables, [bits for bits, _ in frontier], fold, None, None)
        assert (resumed[0], resumed[2], nodes + resumed[3]) == (best_fold, True, n)
        replayed = [_replay(tables, bits) for bits, _ in frontier]
        assert replayed[0] is not None and replayed[0][4] == frontier[0][1]
        assert all(state is None or folds <= state[4]
                   for (_, folds), state in zip(frontier, replayed))


# sha256 of the checkpoint a 1-worker node budget writes, with its frontier
# size and proven lower bound; the frontier keeps only the prefixes that
# _replay accepts
CHECKPOINT_PINS = {
    ((2, 3), 40): ("4a983722c9d88f92c87edcb83e4458f941a792ca8d4b9539f37250deb87e132a", 11, 11),
    ((2, 3), 3000): ("52089264266bb0db62681a584a79c7c95fa126dd93da4beb438a95fd5c8cd2dc", 4, 11),
    ((3, 4), 100_000): ("10335240b692dda5c5af47611693a4fcf929f29738b36d97b4996e46561bf5d5",
                        9, 15),
}


@pytest.mark.parametrize("beta, max_nodes", sorted(CHECKPOINT_PINS))
def test_budget_stop_checkpoint_is_pinned(tmp_path, beta, max_nodes):
    ck = tmp_path / "ck.json"
    rep = min_fold_search(build_complex(EisensteinInt(*beta)), mode="exact",
                          budget=SearchBudget(max_nodes=max_nodes), checkpoint_out=str(ck))
    raw = ck.read_bytes()
    assert (hashlib.sha256(raw).hexdigest(), len(json.loads(raw)["frontier"]),
            rep.proven_lower_bound) == CHECKPOINT_PINS[(beta, max_nodes)]


@pytest.mark.parametrize("beta, max_nodes", sorted(CHECKPOINT_PINS))
def test_budget_stop_checkpoint_lists_only_prefixes_a_resume_enters(tmp_path, beta, max_nodes):
    ck = tmp_path / "ck.json"
    c = build_complex(EisensteinInt(*beta))
    min_fold_search(c, mode="exact", budget=SearchBudget(max_nodes=max_nodes),
                    checkpoint_out=str(ck))
    tables = _Tables(c)
    frontier = json.loads(ck.read_bytes())["frontier"]
    assert frontier and all(_replay(tables, e["prefix"]) is not None for e in frontier)


# small betas whose good colorings are all enumerated in about a second
FLOOR_BETAS = [(1, 0), (1, 1), (0, 2), (1, 2), (0, 3), (2, 2), (1, 3), (0, 4), (2, 3)]


@pytest.mark.parametrize("beta", FLOOR_BETAS)
def test_fold_floor_bounds_every_good_coloring(beta):
    c = build_complex(EisensteinInt(*beta))
    F = c.face_count
    floor = _fold_floor(F)
    assert floor * floor >= 3 * F > (floor - 2) ** 2
    folds = {fold_count(col) for col in iter_good_colorings(c)}
    assert {f % 2 for f in folds} == {(F // 2) % 2}
    assert floor <= min(folds)
    if beta in ((1, 0), (0, 2), (0, 3)):
        assert floor == min(folds)


def test_budget_stops_report_the_fold_floor():
    rep = min_fold_search(build_complex(EisensteinInt(3, 4)), mode="exact",
                          budget=SearchBudget(max_nodes=100_000))
    assert (rep.status, rep.best_fold, rep.proven_lower_bound) == ("Incumbent", 35, 15)
    rep = min_fold_search(build_complex(EisensteinInt(1, 5)), mode="anytime",
                          budget=SearchBudget(max_nodes=2000, max_seconds=10))
    assert rep.status == "Incumbent"
    assert rep.proven_lower_bound == 15 <= rep.best_fold


def test_an_incumbent_at_the_floor_is_proved_optimal():
    # (1, 0): the initial incumbent already has fold 3 = L, so one node suffices
    rep = min_fold_search(build_complex(EisensteinInt(1, 0)), mode="exact",
                          budget=SearchBudget(max_nodes=1))
    assert (rep.status, rep.best_fold, rep.proven_lower_bound, rep.nodes_explored) == (
        "ProvedOptimal", 3, 3, 1)


def test_two_workers_share_one_deadline():
    # each prefix task used to get the whole --max-seconds to itself: 4.1 s
    # of wall time on (3, 4) for a 1 s deadline.  (3, 4) is now proved at 2
    # workers in about 1 s, and (2, 5) in about 2 s, so the search here is
    # (1, 6), still open after 31 million nodes in 10 s at 2 workers
    c = build_complex(EisensteinInt(1, 6))
    t0 = time.monotonic()
    rep = min_fold_search(c, mode="exact", threads=2, budget=SearchBudget(max_seconds=1))
    assert time.monotonic() - t0 < 3.0
    assert rep.status == "Incumbent"


def _dfs_outcomes():
    """(return, leaves, nodes, frontier) of _dfs over a grid of cases: every
    beta of SMALL_BETAS under no, greedy and seeded random value orders,
    with an enumerating, a bound-lowering and a stopping emit, unbudgeted
    and at node budgets {1, 2, 3, N/3, N/2, N-1, N}, and below prefixes;
    on (1, 2) a bounded search stopped at every node count; then _solve's budget stops at 777 and 20,000 nodes on three larger
    betas."""
    for beta in SMALL_BETAS:
        tables = _Tables(build_complex(EisensteinInt(*beta)))

        def run(bits, kind, order, max_nodes, bound=None):
            rng = random.Random(7)
            value_order = {
                "none": None,
                "greedy": _greedy_order,
                "random": lambda db, dw: (BLACK, WHITE) if rng.random() < 0.5 else (WHITE, BLACK),
            }[order]
            leaves, bound, budget, frontier = [], [bound], _Budget(max_nodes), []

            def emit(cols, folds):
                leaves.append((cols, folds))
                if kind == "tighten" and (bound[0] is None or folds < bound[0]):
                    bound[0] = folds
                return kind == "stop" and len(leaves) == 2

            ret = _dfs(tables, bits, bound, budget, emit, frontier, value_order)
            return ret, leaves, budget.nodes, frontier

        for order in ("none", "greedy", "random"):
            for kind in ("all", "tighten", "stop"):
                outcome = run("", kind, order, None)
                yield outcome
                n = outcome[2]
                for max_nodes in sorted({1, 2, 3, n // 3, n // 2, n - 1, n} - {0}):
                    yield run("", kind, order, max_nodes)
        inc_fold = _initial_incumbent(tables.c)[0]
        for bits in ("0", "1", "10", "11", "100", "101", "110", "111", "1001", "1010"):
            if len(bits) > tables.F:
                continue
            for kind in ("all", "tighten"):
                yield run(bits, kind, "none", None, inc_fold if kind == "tighten" else None)
                yield run(bits, kind, "greedy", 5)
        if beta == (1, 2):  # a stop at every node of a bounded search
            n = run("", "tighten", "none", None, inc_fold)[2]
            for max_nodes in range(1, n + 1):
                yield run("", "tighten", "none", max_nodes, inc_fold)
    for beta in ((1, 4), (0, 5), (3, 3)):
        tables = _Tables(build_complex(EisensteinInt(*beta)))
        inc_fold = _initial_incumbent(tables.c)[0]
        for max_nodes in (777, 20_000):
            yield _solve(tables, [""], inc_fold, max_nodes, None)


# sha256 of the outcomes above, recorded before the DFS loop was rewritten
# over per-depth tables: the rewrite walks the same tree
DFS_OUTCOMES_SHA256 = (1190, "a004d40bb419d0d5085d4f09dc603f640263cdf97d56b052f16a6aacd3273f74")


def test_dfs_outcomes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for outcome in _dfs_outcomes():
        digest.update(repr(outcome).encode())
        count += 1
    assert (count, digest.hexdigest()) == DFS_OUTCOMES_SHA256
