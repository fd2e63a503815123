"""Seeded inputs, commands and output checks of the benchmark workloads.

The inputs of a workload depend only on its name and the seed.  A pass runs
every command of the workload once over those inputs.  Each command call is
one op: it is timed alone, through the library's public functions, and its
output is checked after the clock stops.

The test suite's wall time is deliberately not a workload: it is a test
suite, not user traffic.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd, isqrt
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import calibrate  # noqa: E402
from eisenfold import (  # noqa: E402
    coloring,
    flower,
    isoperimetric,
    jsonio,
    limits,
    render,
    search,
    surface,
)
from eisenfold.eisenstein import EisensteinInt  # noqa: E402

WHY = {
    "golden": "near-golden beta, F 1.8k-32k: short orbits, few necklaces, f ~ 4 sqrt(F); "
              "time goes to build, paint and monochrome regions",
    "thin": "beta with a in {1,2,3}, F matched to golden: about b/a necklaces, f ~ F/(2a); "
            "paint scans mostly empty boxes, render checks every necklace level",
    "search": "exact search at 1 and 2 workers, node-budgeted anytime run and a star-swap walk "
              "on F <= 674: nearly all time in search",
    "limits": "eta limits of golden and a seeded sqrt:N block, both determined and undetermined, "
              "plus an ie_sweep: builds no complex",
}

# Fibonacci tiers of the golden workload; the thin workload matches their
# face counts, so per-face rates of the two differ only by shape.
FIB_TIERS = ((13, 21), (21, 34), (34, 55), (55, 89))
# The a of each thin tier.  A fixed schedule keeps the work of a pass the
# same for every seed: a = 1 costs about three times a = 3 per face.
THIN_A = (1, 2, 1, 3)
NEAREST = 3

EXACT_BETAS = ((1, 4), (0, 5), (2, 4))
ANYTIME_BETA = (1, 5)
ANYTIME_PREFIX_NODES = 100_000
# Far above any run, so the node budget and the stall rule end the anytime
# run and its work does not depend on the machine's speed.
ANYTIME_MAX_SECONDS = 3600.0
WALK_BETA = (8, 13)
WALK_STEPS = 40

ZETA_N_BELOW = 100
ZETA_MIXED_BELOW = 41
ZETA_STRATUM = 4
SWEEP_BASELINES = ((1, 2), (2, 3), (3, 5))
SWEEP_B_MAX = 450

PHI = (1 + 5 ** 0.5) / 2
BLACK_FILL = 'fill="#000000"'


def face_count(beta: tuple[int, int]) -> int:
    a, b = beta
    return 2 * (a * a + a * b + b * b)


def _pick_nearest(rng: random.Random, cands, target: int):
    """A seeded choice among the NEAREST candidates to a target face count."""
    ranked = sorted(cands, key=lambda ab: (abs(face_count(ab) - target), ab))
    return rng.choice(ranked[:NEAREST])


def golden_betas(rng: random.Random) -> list[tuple[int, int]]:
    """Per tier, the Fibonacci pair or one of its nearest near-golden neighbours."""
    out = []
    for p, q in FIB_TIERS:
        cands = [
            (a, b)
            for b in range(q - 4, q + 5)
            for a in range(1, b + 1)
            if abs(a - b / PHI) < 1.5 and gcd(a, b) == 1
        ]
        out.append(_pick_nearest(rng, cands, face_count((p, q))))
    return out


def thin_betas(rng: random.Random) -> list[tuple[int, int]]:
    out = []
    for a, tier in zip(THIN_A, FIB_TIERS):
        cands = [(a, b) for b in range(a, 200) if gcd(a, b) == 1]
        out.append(_pick_nearest(rng, cands, face_count(tier)))
    return out


def zeta_block(rng: random.Random) -> list[str]:
    """golden, every non-square N below ZETA_MIXED_BELOW, and seeded N above.

    Below ZETA_MIXED_BELOW determined and undetermined limits mix, and an
    undetermined one costs tens of times more, so a seeded choice there
    would make the cost of a pass depend on the seed.  Above it nearly all
    are undetermined; one N is drawn from each run of ZETA_STRATUM
    consecutive non-squares.
    """
    nonsquares = [n for n in range(2, ZETA_N_BELOW) if isqrt(n) ** 2 != n]
    low = [n for n in nonsquares if n < ZETA_MIXED_BELOW]
    high = [n for n in nonsquares if n >= ZETA_MIXED_BELOW]
    drawn = [rng.choice(high[i:i + ZETA_STRATUM]) for i in range(0, len(high), ZETA_STRATUM)]
    return ["golden"] + [f"sqrt:{n}" for n in low + drawn]


def make_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name in ("golden", "thin"):
        betas = golden_betas(rng) if name == "golden" else thin_betas(rng)
        return {"betas": betas, "render": min(betas, key=face_count)}
    if name == "search":
        return {
            "exact": list(EXACT_BETAS),
            "anytime": ANYTIME_BETA,
            "walk": WALK_BETA,
            "seed": rng.randrange(2 ** 31),
        }
    if name == "limits":
        return {"zetas": zeta_block(rng), "sweep": list(SWEEP_BASELINES), "b_max": SWEEP_B_MAX}
    raise ValueError(f"unknown workload {name!r}")


def describe(name: str, inputs: dict) -> str:
    """One line giving the size of a workload's inputs."""
    if name in ("golden", "thin"):
        fs = [face_count(b) for b in inputs["betas"]]
        return (f"{len(fs)} beta {inputs['betas']}, F {fs} (sum {sum(fs)}), "
                f"render {inputs['render']}")
    if name == "search":
        return (f"exact {inputs['exact']} at 1 worker (and 2 with --trace 1), "
                f"anytime {inputs['anytime']} prefix {ANYTIME_PREFIX_NODES} nodes, "
                f"walk {WALK_STEPS} swaps at {inputs['walk']}")
    return (f"{len(inputs['zetas'])} zeta ({', '.join(inputs['zetas'])}), ie_sweep "
            f"{inputs['sweep']} to b < {inputs['b_max']}")


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """Times ops, records their check failures, and sums their work.

    seconds and layer_s are nominal seconds (see calibrate.py); wall is
    the plain wall time of each command.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.wall: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.work: Counter = Counter()
        self.results: dict = {}  # outputs that later ops are checked against
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, command: str, fn, check, work: int = 0):
        """Run fn timed (and traced, if tracing); then check its output.

        Returns the output, or None when the op raised or failed its check.
        """
        self.attempted += 1
        before = calibrate.reference_s()
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.active():
                    out = fn()
        except Exception as exc:  # an op that raises is a failed op
            self.failures.append(f"{command}: {type(exc).__name__}: {exc}")
            if self.tracer is not None:
                self.tracer.take()
            return None
        wall = perf_counter() - t0
        scale = calibrate.scale(before, calibrate.reference_s())
        self.wall[command] += wall
        self.seconds[command] += wall * scale
        if self.tracer is not None:
            for name, s in self.tracer.take().items():
                self.layer_s[name] += s * scale
        self.work[command] += work
        try:
            problem = check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{command}: {problem}")
            return None
        return out

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())

    def rate(self, command: str, work: float | None = None) -> float:
        """Work per second of a command; its own work count unless given."""
        s = self.seconds[command]
        return (self.work[command] if work is None else work) / s if s > 0 else 0.0


# ---------------------------------------------------------------------------
# golden and thin: what `eisenfold build`, `color` and `render` do, and a
# certification of the colored object


def build_op(beta):
    c = surface.build_complex(EisensteinInt(*beta))
    return c, jsonio.dumps(c.to_json_dict())


def check_build(beta, out) -> str | None:
    c, text = out
    n = face_count(beta) // 2
    if c.face_count != 2 * n or c.vertex_count != n + 2:
        return f"{beta}: {c.face_count} faces, {c.vertex_count} vertices"
    if sorted(c.degree_sequence()) != [2, 2, 2] + [6] * (n - 1):
        return f"{beta}: degree multiset is not {{2,2,2,6,...}}"
    doc = json.loads(text)
    if len(doc["faces"]) != 2 * n or len(doc["pairing"]) != 3 * n:
        return f"{beta}: complex.v1 sizes disagree with the complex"
    return None


def color_op(beta):
    col = coloring.continued_fraction_coloring(EisensteinInt(*beta))
    return col, jsonio.dumps(coloring.to_json_dict(col))


def check_color(beta, out) -> str | None:
    col, text = out
    folds = coloring.fold_count(col)
    if folds != flower.cf_fold_count(*beta):
        return f"{beta}: fold count {folds} != cf_fold_count {flower.cf_fold_count(*beta)}"
    rep = coloring.is_good(col)
    if not (rep.good and rep.mod6):
        return f"{beta}: coloring not good and mod-6"
    black, white = coloring.color_balance(col)
    if black != white:
        return f"{beta}: unbalanced {black}/{white}"
    doc = json.loads(text)
    if doc["colors"] != col.bitstring() or int(doc["fold_count"]) != folds:
        return f"{beta}: coloring.v1 disagrees with the coloring"
    return None


def certify_op(col):
    good = coloring.is_good(col)
    folds = coloring.fold_count(col)
    iso = isoperimetric.region_isoperimetric_check(col)
    vcolor = coloring.vertex_four_coloring(col)
    return col, good, folds, iso, vcolor


def check_certify(out) -> str | None:
    col, good, folds, iso, vcolor = out
    if not good.good or folds != iso.fold_total:
        return "goodness or fold total disagrees"
    if not iso.eta_lower_bound_holds:
        return "eta >= 3 chain does not hold"
    back = coloring.induced_face_coloring(col.complex, vcolor)
    if back.colors != col.colors:
        return "vertex 4-coloring does not round-trip to the face coloring"
    return None


def render_op(beta):
    return render.render_svg(render.RenderSpec(beta=EisensteinInt(*beta)))


def check_render(beta, svg) -> str | None:
    folds, n = svg.count('class="fold"'), face_count(beta) // 2
    if folds != 3 * flower.cf_fold_count(*beta):
        return f"{beta}: {folds} fold lines, expected 3 f"
    if svg.count(BLACK_FILL) != 3 * n:
        return f"{beta}: {svg.count(BLACK_FILL)} black polygons, expected 3 N"
    return None


def coloring_pass(p: Pass, inputs: dict) -> None:
    for beta in inputs["betas"]:
        F = face_count(beta)
        p.op("build", lambda: build_op(beta), lambda out: check_build(beta, out), F)
        out = p.op("color", lambda: color_op(beta), lambda out: check_color(beta, out), F)
        if out is not None:
            col = out[0]
            p.op("certify", lambda: certify_op(col), check_certify, F)
    beta = inputs["render"]
    p.op("render", lambda: render_op(beta), lambda svg: check_render(beta, svg), face_count(beta))


def coloring_figures(p: Pass) -> dict:
    return {
        "build_faces_per_s": p.rate("build"),
        "color_faces_per_s": p.rate("color"),
        "certify_faces_per_s": p.rate("certify"),
        "render_faces_per_s": p.rate("render"),
    }


# ---------------------------------------------------------------------------
# search


def exact_op(beta, threads: int):
    c = surface.build_complex(EisensteinInt(*beta))
    return search.min_fold_search(c, mode="exact", threads=threads)


def _check_search_coloring(rep) -> str | None:
    col = rep.best_coloring
    F = col.complex.face_count
    if not coloring.is_good(col).good:
        return "best coloring is not good"
    black, white = coloring.color_balance(col)
    if black != white:
        return "best coloring is unbalanced"
    if coloring.fold_count(col) != rep.best_fold:
        return "best coloring's fold count differs from best_fold"
    if rep.best_fold ** 2 < 3 * F:
        return f"best_fold {rep.best_fold} is below the eta >= 3 floor"
    return None


def check_exact(rep, one_worker_best: int | None = None) -> str | None:
    if rep.status != "ProvedOptimal":
        return f"status {rep.status}"
    if one_worker_best is not None and one_worker_best != rep.best_fold:
        return f"best_fold {rep.best_fold} differs from 1 worker's {one_worker_best}"
    return _check_search_coloring(rep)


def anytime_op(beta, seed: int):
    c = surface.build_complex(EisensteinInt(*beta))
    budget = search.SearchBudget(ANYTIME_PREFIX_NODES, ANYTIME_MAX_SECONDS)
    return search.min_fold_search(c, mode="anytime", budget=budget, seed=seed)


def check_anytime(rep) -> str | None:
    # The prefix stops at the node budget or a deadline of at least half of
    # ANYTIME_MAX_SECONDS; annealing stops at the stall rule or the deadline.
    # Either deadline binding would make the work depend on the machine.
    if rep.wall_time >= ANYTIME_MAX_SECONDS / 2:
        return "the deadline ended the run"
    if rep.status != "ProvedOptimal" and rep.nodes_explored != ANYTIME_PREFIX_NODES:
        return f"prefix stopped at {rep.nodes_explored} nodes, not the node budget"
    return _check_search_coloring(rep)


def walk_op(beta, seed: int):
    """A seeded walk of star swaps through the public search calls."""
    rng = random.Random(seed)
    col = coloring.alternating_coloring(surface.build_complex(EisensteinInt(*beta)))
    start, steps = col, []
    for _ in range(WALK_STEPS):
        v = rng.choice(search.swappable_vertices(col))
        col = search.vertex_swap(col, v)
        steps.append((v, coloring.fold_count(col)))
    return start, steps, col


def check_walk(out) -> str | None:
    """Replay the walk by flipping stars directly and counting folds locally."""
    start, steps, end = out
    c = start.complex
    colors = list(start.colors)
    folds = sum(1 for f, row in enumerate(c.pairing) for g, _ in row if colors[f] != colors[g]) // 2
    for v, reported in steps:
        star = c.vertex_star(v)
        ring = [colors[f] for f in star]
        if len(set(star)) != 6 or any(x == y for x, y in zip(ring, ring[1:] + ring[:1])):
            return f"vertex {v} was not swappable"
        inside = set(star)
        for f in star:
            for g, _ in c.pairing[f]:
                if g not in inside:
                    folds += 1 if colors[f] == colors[g] else -1
        for f in star:
            colors[f] = 1 - colors[f]
        if reported != folds:
            return f"fold count {reported} after swapping {v}, expected {folds}"
    if tuple(colors) != end.colors:
        return "walk ended on another coloring"
    if not coloring.is_good(end).good:
        return "walk left the good colorings"
    return None


def search_pass(p: Pass, inputs: dict) -> None:
    for beta in inputs["exact"]:
        rep = p.op("exact_1w", lambda: exact_op(beta, 1), check_exact)
        if rep is not None:
            p.work["search.exact_nodes"] += rep.nodes_explored
            p.results[beta] = rep.best_fold
    rep = p.op("anytime", lambda: anytime_op(inputs["anytime"], inputs["seed"]), check_anytime)
    if rep is not None:
        p.work["search.anytime_nodes"] += rep.nodes_explored
        p.work["search.anytime_best_fold"] += rep.best_fold
    p.op("walk", lambda: walk_op(inputs["walk"], inputs["seed"]), check_walk, WALK_STEPS)


def search_figures(p: Pass) -> dict:
    return {
        "exact_solve_s": p.seconds["exact_1w"],
        "anytime_s": p.seconds["anytime"],
        "search.exact_nodes": p.work["search.exact_nodes"],
        "search.exact_nodes_per_s": p.rate("exact_1w", p.work["search.exact_nodes"]),
        "search.anytime_nodes": p.work["search.anytime_nodes"],
        "search.anytime_best_fold": p.work["search.anytime_best_fold"],
        "search.star_swaps_per_s": p.rate("walk"),
    }


# The 2-worker exact searches run once per traced run, after the first timed
# pass, and stay out of pass_s.  On a shared 2-core host their time measures
# the other tenants as much as the program, and the single-core calibration
# loop cannot correct it, so it is reported in wall seconds and bounds nothing.


def parallel_pass(p: Pass, inputs: dict, one_worker: Pass) -> None:
    for beta in inputs["exact"]:
        rep = p.op("exact_2w", lambda: exact_op(beta, 2),
                   lambda rep: check_exact(rep, one_worker.results.get(beta)))
        if rep is not None:
            p.work["search.exact_nodes_2w"] += rep.nodes_explored


def parallel_figures(p: Pass, one_worker: Pass) -> dict:
    nodes, nodes_2w = one_worker.work["search.exact_nodes"], p.work["search.exact_nodes_2w"]
    return {
        "exact_solve_2w_s": p.wall["exact_2w"],
        "search.exact_nodes_2w": nodes_2w,
        "search.parallel_node_ratio": nodes_2w / nodes if nodes else 0.0,
    }


# ---------------------------------------------------------------------------
# limits


def eta_limit_op(text: str):
    """The limit, or None when the library reports it undetermined."""
    try:
        return limits.eta_limit_numeric(limits.parse_zeta(text))
    except limits.UndeterminedError:
        return None


GOLDEN_LIMIT = (Fraction(9), Fraction(4), 5)


def check_eta_limit(text: str, res) -> str | None:
    """An undetermined limit is an outcome, except for golden."""
    if res is None:
        return "golden limit undetermined" if text == "golden" else None
    s = res.surd
    if text == "golden":
        return None if (s.r, s.s, s.d) == GOLDEN_LIMIT else f"golden limit {s}"
    # eta of a deeper approximant, in exact arithmetic
    r = limits.approximant(res.zeta, 10 ** (res.depths_used[1] + 10))
    deep = limits.eta_of_approximant(r.numerator, r.denominator)
    if not abs(s - deep) < Fraction(1, 10 ** 50):
        return f"{text}: limit {s} is not within 1e-50 of a deeper approximant"
    return None


def rungs_used(res) -> int:
    schedule = limits.DEFAULT_DEPTH_SCHEDULE
    return len(schedule) if res is None else schedule.index(res.depths_used) + 1


def _totients(n: int) -> list[int]:
    phi = list(range(n))
    for p in range(2, n):
        if phi[p] == p:
            for m in range(p, n, p):
                phi[m] -= phi[m] // p
    return phi


def expected_sweep_pairs(baselines, b_max: int) -> int:
    """Primitive (a', b') with b <= b' < b_max and 1 <= a' <= b', baseline excluded."""
    phi = _totients(b_max)
    return sum(sum(phi[b2] for b2 in range(b, b_max)) - 1 for _, b in baselines)


def check_sweep(baselines, b_max, rep) -> str | None:
    if rep.violations:
        return f"{len(rep.violations)} violations, first {rep.violations[0]}"
    want = expected_sweep_pairs(baselines, b_max)
    return None if rep.checked == want else f"checked {rep.checked} pairs, expected {want}"


def limits_pass(p: Pass, inputs: dict) -> None:
    for text in inputs["zetas"]:
        out = p.op("eta_limit", lambda: (text, eta_limit_op(text)), lambda out: check_eta_limit(*out))
        if out is not None:
            p.work["limits_determined"] += out[1] is not None
            p.work["limits.rungs"] += rungs_used(out[1])
    b_max = inputs["b_max"]
    for base in inputs["sweep"]:
        # one op per baseline, as `eisenfold sweep-ie --betas a,b` would run it
        rep = p.op("sweep", lambda: search.ie_sweep([base], b_max),
                   lambda rep: check_sweep([base], b_max, rep))
        if rep is not None:
            p.work["search.sweep_pairs"] += rep.checked


def limits_figures(p: Pass) -> dict:
    return {
        "eta_limit_s": p.seconds["eta_limit"],
        "sweep_pairs_per_s": p.rate("sweep", p.work["search.sweep_pairs"]),
        "limits_determined": p.work["limits_determined"],
        "limits.rungs": p.work["limits.rungs"],
        "search.sweep_pairs": p.work["search.sweep_pairs"],
    }


PASSES = {
    "golden": (coloring_pass, coloring_figures),
    "thin": (coloring_pass, coloring_figures),
    "search": (search_pass, search_figures),
    "limits": (limits_pass, limits_figures),
}
PARALLEL = {"search": (parallel_pass, parallel_figures)}
