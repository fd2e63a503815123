"""The benchmark's own tests: pinned deterministic counters and its checks.

A change to a search tree, a necklace schedule or a region decomposition
shows up here as a diff.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from eisenfold import coloring, flower

# Counters of the workloads at seed 0.
ANYTIME_BEST = 35
WALK_LAST_FOLD = 815
BETAS = {
    "golden": [(13, 21), (20, 33), (34, 57), (56, 89)],
    "thin": [(1, 29), (2, 49), (1, 76), (3, 125)],
}
NECKLACES = {"golden": [7, 10, 15, 11], "thin": [29, 26, 76, 44]}
REGIONS = {"golden": [16, 22, 32, 24], "thin": [60, 54, 154, 90]}
LIMITS_DETERMINED = 27
LIMITS_RUNGS = 171
SWEEP_PAIRS = 184_530


@pytest.mark.parametrize("beta, nodes, nodes_2w, best", [
    ((1, 4), 111_521, 135_985, 29),
    ((0, 5), 153_631, 656_323, 15),
    ((2, 4), 565_266, 1_956_860, 26),
])
def test_exact_search_counters(beta, nodes, nodes_2w, best):
    one = workloads.exact_op(beta, 1)
    two = workloads.exact_op(beta, 2)
    assert (one.nodes_explored, one.best_fold) == (nodes, best)
    assert (two.nodes_explored, two.best_fold) == (nodes_2w, best)
    assert workloads.check_exact(one) is None
    assert workloads.check_exact(two, one.best_fold) is None


def test_anytime_counters_at_seed_0():
    seed = workloads.make_inputs("search", 0)["seed"]
    rep = workloads.anytime_op(workloads.ANYTIME_BETA, seed)
    assert (rep.nodes_explored, rep.best_fold) == (workloads.ANYTIME_PREFIX_NODES, ANYTIME_BEST)
    assert workloads.check_anytime(rep) is None


def test_walk_at_seed_0():
    seed = workloads.make_inputs("search", 0)["seed"]
    out = workloads.walk_op(workloads.WALK_BETA, seed)
    assert workloads.check_walk(out) is None
    assert out[1][-1][1] == WALK_LAST_FOLD


@pytest.mark.parametrize("name", ["golden", "thin"])
def test_necklace_and_region_counts_at_seed_0(name):
    inputs = workloads.make_inputs(name, 0)
    assert inputs["betas"] == BETAS[name]
    necklaces, regions = [], []
    for beta in inputs["betas"]:
        necklaces.append(len(flower.capped_flower(workloads.EisensteinInt(*beta)).necklaces))
        col, _ = workloads.color_op(beta)
        regions.append(len(coloring.monochrome_regions(col)))
    assert necklaces == NECKLACES[name]
    assert regions == REGIONS[name]


def test_limits_counters_at_seed_0():
    inputs = workloads.make_inputs("limits", 0)
    p = workloads.Pass()
    workloads.limits_pass(p, inputs)
    assert p.failures == []
    assert p.work["limits_determined"] == LIMITS_DETERMINED
    assert p.work["limits.rungs"] == LIMITS_RUNGS
    assert p.work["search.sweep_pairs"] == SWEEP_PAIRS


def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    for name in run.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    golden = {tuple(workloads.make_inputs("golden", s)["betas"]) for s in range(8)}
    zetas = {tuple(workloads.make_inputs("limits", s)["zetas"]) for s in range(8)}
    assert len(golden) > 1 and len(zetas) > 1


def test_checks_reject_wrong_outputs():
    beta = (2, 3)
    svg = workloads.render_op(beta)
    assert workloads.check_render(beta, svg) is None
    assert workloads.check_render(beta, svg.replace('class="fold"', 'class="x"', 1))
    col, text = workloads.color_op(beta)
    assert workloads.check_color(beta, (col, text)) is None
    assert workloads.check_color(beta, (col.flipped([0]), text))
    assert workloads.check_eta_limit("golden", None)
    assert workloads.check_eta_limit("sqrt:19", None) is None
    rep = workloads.search.ie_sweep([(1, 2)], 30)
    assert workloads.check_sweep([(1, 2)], 30, rep) is None
    assert workloads.check_sweep([(1, 2)], 31, rep)
    start, steps, end = workloads.walk_op(workloads.WALK_BETA, 1)
    v, folds = steps[0]
    assert workloads.check_walk((start, [(v, folds + 2)] + steps[1:], end))


def test_tracer_self_times_and_uninstall():
    original = workloads.coloring.paint_from_flower
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert workloads.coloring.paint_from_flower is not original
        with tracer.active():
            workloads.color_op((2, 3))
    finally:
        tracer.uninstall()
    assert workloads.coloring.paint_from_flower is original
    assert tracer.counts["surface.faces"] == 38
    assert tracer.counts["flower.necklaces"] == 3
    assert tracer.counts["coloring.paint_hits"] == 3 * 38
    assert all(s >= 0 for s in tracer.self_s.values())
    assert {"surface.build_s", "coloring.paint_s", "jsonio.dumps_s"} <= set(tracer.self_s)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "golden",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
