"""Exact and heuristic minimization of fold count over good colorings.

The exact search is a depth-first branch and bound over face colors in an
order that completes vertex stars early (BFS from a degree-2 vertex's
star), with three prunes: per-vertex mod-3 feasibility, global black/white
balance, and folds already forced among decided edges.  Fixing the first
face black halves the tree; the swapped twin of every solution is restored
on emission.  The anytime mode runs a value-ordered branch-and-bound
prefix followed by simulated annealing over star-swap moves.
"""

from __future__ import annotations

import json
import os
import random
import time
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .coloring import (
    FaceColoring,
    alternating_coloring,
    continued_fraction_coloring,
    fold_count,
    is_good,
)
from .eisenstein import DomainError, EisensteinInt
from .flower import BLACK, WHITE, cf_eta
from .surface import QuotientComplex

CHECKPOINT_FORMAT = "eisenfold-search-checkpoint.v1"


class SwapError(ValueError):
    """The requested star swap is inapplicable."""


def _alternates(colors, star) -> bool:
    s0, s1, s2, s3, s4, s5 = star
    c0 = colors[s0]
    return c0 != colors[s1] != colors[s2] != colors[s3] != colors[s4] != colors[s5] != c0


class _StarTable:
    """Star-swap data of one complex, for every degree-6 vertex whose star
    has six distinct faces (the only vertices a swap can apply to):

    stars[v]  the six star faces in cyclic order (None for other vertices);
    ring[v]   the other such vertices on the star faces, the only ones
              whose swappability a swap at v can change;
    outer[v]  (star face, outside face) for each side leaving the star, the
              only sides whose fold status a swap at v changes.
    """

    def __init__(self, c: QuotientComplex):
        n = c.vertex_count
        self.stars: list[tuple[int, ...] | None] = [None] * n
        for v in range(n):
            if c.vertices[v].degree == 6:
                star = tuple(c.vertex_star(v))
                if len(set(star)) == 6:
                    self.stars[v] = star
        self.capable = [v for v in range(n) if self.stars[v] is not None]
        self.ring: list[tuple[int, ...]] = [()] * n
        self.outer: list[tuple[tuple[int, int], ...]] = [()] * n
        for v in self.capable:
            star = self.stars[v]
            self.ring[v] = tuple(sorted(
                {w for f in star for w in c.face_vertices[f]
                 if w != v and self.stars[w] is not None}
            ))
            self.outer[v] = tuple(
                (f, g) for f in star for g, _ in c.pairing[f] if g not in star
            )

    def swappable(self, colors) -> list[int]:
        stars = self.stars
        return [v for v in self.capable if _alternates(colors, stars[v])]

    def fold_delta(self, colors, v: int) -> int:
        """Change in fold count if the star of v is flipped."""
        d = 0
        for f, g in self.outer[v]:
            d += 1 if colors[f] == colors[g] else -1
        return d

    def swap(self, colors: list[int], v: int, options: list[int]) -> None:
        """Flip the star of v in place, keeping the ascending list `options`
        equal to swappable(colors)."""
        for f in self.stars[v]:
            colors[f] = 1 - colors[f]
        for w in self.ring[v]:
            now = _alternates(colors, self.stars[w])
            i = bisect_left(options, w)
            was = i < len(options) and options[i] == w
            if now and not was:
                options.insert(i, w)
            elif was and not now:
                del options[i]


_star_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _star_table(c: QuotientComplex) -> _StarTable:
    table = _star_tables.get(c)
    if table is None:
        table = _star_tables[c] = _StarTable(c)
    return table


def vertex_swap(col: FaceColoring, v: int) -> FaceColoring:
    """Invert the six faces around an alternating degree-6 vertex.

    Goodness is preserved: the star stays alternating and every other
    vertex sees one black and one white flip per touched wedge pair.
    """
    c = col.complex
    if not 0 <= v < c.vertex_count:
        raise DomainError(f"no such vertex {v}")
    if c.vertices[v].degree != 6:
        raise SwapError(f"vertex {v} has degree {c.vertices[v].degree}, need 6")
    star = _star_table(c).stars[v]
    if star is None:
        raise SwapError("star revisits a face; colors cannot alternate")
    if not _alternates(col.colors, star):
        raise SwapError(f"star of vertex {v} does not alternate")
    return col.flipped(star)


def swappable_vertices(col: FaceColoring) -> list[int]:
    """The vertices vertex_swap applies to, ascending."""
    return _star_table(col.complex).swappable(col.colors)


# ---------------------------------------------------------------------------
# shared DFS core


class _Tables:
    def __init__(self, c: QuotientComplex):
        self.c = c
        self.F = c.face_count
        neighbors = [[f2 for f2, _ in row] for row in c.pairing]
        self.vtotal = [v.degree for v in c.vertices]
        deg2 = min(v for v in range(c.vertex_count) if c.vertices[v].degree == 2)
        start = sorted(f for f in range(self.F) if deg2 in c.face_vertices[f])
        order, seen = list(start), set(start)
        i = 0
        while len(order) < self.F:
            f = order[i]
            i += 1
            for g in neighbors[f]:
                if g not in seen:
                    seen.add(g)
                    order.append(g)
        self.order = order
        pos = [0] * self.F
        for k, f in enumerate(order):
            pos[f] = k
        # per face: its distinct vertices with their corner multiplicity, and
        # one entry per side glued to a face colored before it in `order`
        self.corners = [tuple(Counter(ids).items()) for ids in c.face_vertices]
        self.earlier = [tuple(g for g in neighbors[f] if pos[g] < pos[f])
                        for f in range(self.F)]


class _Budget:
    def __init__(self, max_nodes=None, max_seconds=None):
        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + max_seconds if max_seconds else None
        self.nodes = 0

    def spent(self) -> bool:
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        if self.deadline is not None and self.nodes % 2048 == 0:
            return time.monotonic() > self.deadline
        return False


class _Dfs:
    """Backtracking over good colorings with optional fold bounding.

    Per vertex it keeps u, the corners still uncolored, and x, black minus
    white corners.  Goodness needs x = 0 (mod 3) once u = 0, so a vertex
    stays completable unless u = 0 with x != 0, or u = 1 with x = 0
    (mod 3): one more corner moves x by exactly 1.
    """

    def __init__(self, tables: _Tables):
        self.t = tables
        self.colors = [-1] * tables.F
        self.u = list(tables.vtotal)
        self.x = [0] * len(tables.vtotal)
        self.nb = 0
        self.nw = 0

    def _assign(self, f: int, color: int) -> bool:
        """Color face f; False if one of its vertices became infeasible."""
        self.colors[f] = color
        if color == BLACK:
            self.nb += 1
            s = 1
        else:
            self.nw += 1
            s = -1
        u, x = self.u, self.x
        ok = True
        for v, m in self.t.corners[f]:
            r = u[v] = u[v] - m
            y = x[v] = x[v] + s * m
            if r < 2 and (y % 3 == 0) != (r == 0):
                ok = False
        return ok

    def _unassign(self, f: int, color: int) -> None:
        self.colors[f] = -1
        if color == BLACK:
            self.nb -= 1
            s = 1
        else:
            self.nw -= 1
            s = -1
        u, x = self.u, self.x
        for v, m in self.t.corners[f]:
            u[v] += m
            x[v] -= s * m

    def _fold_deltas(self, f: int) -> tuple[int, int]:
        """Folds that coloring f black, resp. white, adds to the colored part."""
        colors = self.colors
        earlier = self.t.earlier[f]
        blacks = 0
        for g in earlier:
            blacks += colors[g]  # colored faces hold BLACK = 1 or WHITE = 0
        return len(earlier) - blacks, blacks

    def _prefix(self, k: int) -> str:
        order, colors = self.t.order, self.colors
        return "".join("1" if colors[order[i]] == BLACK else "0" for i in range(k))

    def replay_prefix(self, bits: str) -> tuple[int, int] | None:
        """Assign the first len(bits) faces of the order; None if infeasible."""
        folds = 0
        half = self.t.F // 2
        for k, ch in enumerate(bits):
            f = self.t.order[k]
            d_black, d_white = self._fold_deltas(f)
            if ch == "1":
                color, folds = BLACK, folds + d_black
            else:
                color, folds = WHITE, folds + d_white
            if not self._assign(f, color) or self.nb > half or self.nw > half:
                return None
        return len(bits), folds

    def search(self, k: int, folds: int, bound, budget: _Budget, emit, frontier,
               value_order=None):
        """DFS from depth k; emit(colors, folds) at leaves with folds <= bound.

        When the budget runs out, every untried branch is appended to
        `frontier` as (prefix bits, folds so far) and False is returned.
        An emit that returns true stops the search, which then returns None.
        value_order(black folds, white folds) gives the order of the two
        colors at a node; by default white is tried first.
        """
        t = self.t
        budget.nodes += 1
        if bound[0] is not None and folds > bound[0]:
            return True
        if k == t.F:
            return None if emit(tuple(self.colors), folds) else True
        if budget.spent():
            frontier.append((self._prefix(k), folds))
            return False
        f = t.order[k]
        d_black, d_white = self._fold_deltas(f)
        if k == 0:
            choices = (BLACK,)
        elif value_order is None:
            choices = (WHITE, BLACK)
        else:
            choices = value_order(d_black, d_white)
        complete = True
        half = t.F // 2
        for color in choices:
            if not complete:
                # budget died in an earlier sibling: record the rest
                frontier.append((self._prefix(k) + ("1" if color == BLACK else "0"), folds))
                continue
            if color == BLACK:
                if self.nb >= half:
                    continue
                d = d_black
            else:
                if self.nw >= half:
                    continue
                d = d_white
            res = True
            if self._assign(f, color):
                res = self.search(k + 1, folds + d, bound, budget, emit, frontier,
                                  value_order)
            self._unassign(f, color)
            if res is not True:
                if res is None:
                    return None
                complete = False
        return complete


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EnumerationResult:
    colorings: tuple[FaceColoring, ...]
    truncated: bool


def iter_good_colorings(c: QuotientComplex):
    """Every good coloring exactly once, deterministic order, both colors.

    Each DFS leaf (first face black) is yielded followed by its global swap.
    """
    tables = _Tables(c)
    found: list[tuple[int, ...]] = []

    dfs = _Dfs(tables)
    budget = _Budget()
    bound = [None]
    stash = []
    dfs.search(0, 0, bound, budget, lambda cols, folds: stash.append(cols), [])
    for cols in stash:
        col = FaceColoring(c, cols)
        yield col
        yield col.swapped()


def enumerate_good_colorings(c: QuotientComplex, cap: int | None = None) -> EnumerationResult:
    out = []
    truncated = False
    for col in iter_good_colorings(c):
        if cap is not None and len(out) >= cap:
            truncated = True
            break
        out.append(col)
    return EnumerationResult(tuple(out), truncated)


def brute_force_good_colorings(c: QuotientComplex) -> list[FaceColoring]:
    """Oracle: filter all 2^F colorings by the goodness predicate."""
    if c.face_count > 16:
        raise DomainError("brute force reserved for F <= 16")
    out = []
    for mask in range(1 << c.face_count):
        colors = tuple(
            BLACK if (mask >> i) & 1 else WHITE for i in range(c.face_count)
        )
        col = FaceColoring(c, colors)
        if is_good(col).good:
            out.append(col)
    return out


# ---------------------------------------------------------------------------
# minimum-fold search


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SearchReport:
    beta: EisensteinInt
    best_fold: int
    best_coloring: FaceColoring
    status: str  # "ProvedOptimal" | "Incumbent"
    nodes_explored: int
    wall_time: float
    proven_lower_bound: int

    def to_json_dict(self, include_timing: bool = False) -> dict:
        from .jsonio import jint

        doc = {
            "schema": "search.v1",
            "beta": [jint(self.beta.a), jint(self.beta.b)],
            "best_fold": jint(self.best_fold),
            "best_coloring": self.best_coloring.bitstring(),
            "status": self.status,
            "nodes_explored": jint(self.nodes_explored),
            "proven_lower_bound": jint(self.proven_lower_bound),
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc


def _threads_cap(requested: int | None) -> int:
    n = requested if requested and requested > 0 else 1
    env = os.environ.get("EISENFOLD_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise DomainError(f"EISENFOLD_THREADS must be a positive integer, got {env!r}")
        n = min(n, cap)
    return n


def _seed_colorings(c: QuotientComplex) -> list[FaceColoring]:
    seeds = [alternating_coloring(c)]
    a, b = c.beta.a, c.beta.b
    if a >= 1 and gcd(a, b) == 1:
        seeds.insert(0, continued_fraction_coloring(c.beta, c))
    normalized = []
    for col in seeds:
        normalized.append(col if col.colors[0] == BLACK else col.swapped())
    return normalized


def _lex_best(candidates: list[tuple[int, ...]]) -> tuple[int, ...]:
    full = []
    for cols in candidates:
        full.append(cols)
        full.append(tuple(1 - x for x in cols))
    return min(full)


def min_fold_search(
    c: QuotientComplex,
    mode: str = "exact",
    budget: SearchBudget | None = None,
    threads: int | None = None,
    seed: int = 0,
    checkpoint_out: str | None = None,
    resume: str | None = None,
) -> SearchReport:
    """Minimize fold count over good colorings.

    exact: branch and bound to exhaustion (ProvedOptimal) or to the budget
    (Incumbent, with the proven lower bound from the open frontier).
    anytime: value-ordered branch-and-bound prefix plus simulated annealing
    over star swaps with restarts; always reports Incumbent unless the
    prefix happened to exhaust the tree.
    """
    if mode not in ("exact", "anytime"):
        raise DomainError(f"unknown mode {mode!r}")
    t0 = time.monotonic()
    nthreads = _threads_cap(threads)
    if mode == "exact":
        report = _exact_search(c, budget, nthreads, checkpoint_out, resume)
    else:
        report = _anytime_search(c, budget, seed)
    report.wall_time = time.monotonic() - t0
    rep = is_good(report.best_coloring)
    blacks = sum(1 for x in report.best_coloring.colors if x == BLACK)
    if not rep.good or 2 * blacks != c.face_count:
        raise AssertionError("search produced a non-good or unbalanced coloring")
    from .isoperimetric import region_isoperimetric_check

    if not region_isoperimetric_check(report.best_coloring).eta_lower_bound_holds:
        raise AssertionError("search result violates the isoperimetric bound")
    return report


def _initial_incumbent(c: QuotientComplex):
    seeds = _seed_colorings(c)
    folds = [fold_count(s) for s in seeds]
    i = min(range(len(seeds)), key=lambda j: (folds[j], seeds[j].colors))
    return folds[i], seeds[i].colors


def _exact_search(c, budget, nthreads, checkpoint_out, resume):
    tables = _Tables(c)
    inc_fold, inc_colors = _initial_incumbent(c)
    start_prefixes = [("", 0)]
    nodes_carried = 0
    if resume is not None:
        with open(resume) as fh:
            doc = json.load(fh)
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise DomainError("unrecognized checkpoint format")
        if doc["beta"] != [c.beta.a, c.beta.b] or doc["order"] != tables.order:
            raise DomainError("checkpoint belongs to a different search")
        if doc["incumbent_fold"] is not None and doc["incumbent_fold"] < inc_fold:
            inc_fold = doc["incumbent_fold"]
            inc_colors = tuple(
                BLACK if ch == "1" else WHITE for ch in doc["incumbent_colors"]
            )
        start_prefixes = [(e["prefix"], 0) for e in doc["frontier"]]
        nodes_carried = doc.get("nodes_explored", 0)

    if nthreads > 1 and checkpoint_out is None and len(start_prefixes) == 1:
        return _exact_parallel(c, tables, inc_fold, inc_colors, budget, nthreads,
                               nodes_carried)

    bound = [inc_fold]
    ties: list[tuple[int, ...]] = [inc_colors]
    bud = _Budget(budget.max_nodes if budget else None,
                  budget.max_seconds if budget else None)
    frontier: list[tuple[str, int]] = []

    def emit(cols, folds):
        if folds < bound[0]:
            bound[0] = folds
            ties.clear()
            ties.append(cols)
        elif folds == bound[0]:
            ties.append(cols)

    complete = True
    for bits, _ in start_prefixes:
        dfs = _Dfs(tables)
        state = dfs.replay_prefix(bits)
        if state is None:
            continue
        k, folds = state
        if not dfs.search(k, folds, bound, bud, emit, frontier):
            complete = False

    best_fold = bound[0]
    best = _lex_best(ties)
    lb = best_fold if complete else min(
        [best_fold] + [folds for _, folds in frontier]
    )
    if checkpoint_out is not None and not complete:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "beta": [c.beta.a, c.beta.b],
            "order": tables.order,
            "incumbent_fold": best_fold,
            "incumbent_colors": "".join(
                "1" if x == BLACK else "0" for x in best
            ),
            "frontier": [{"prefix": bits} for bits, _ in frontier],
            "nodes_explored": nodes_carried + bud.nodes,
        }
        with open(checkpoint_out, "w") as fh:
            json.dump(doc, fh)
    return SearchReport(
        beta=c.beta,
        best_fold=best_fold,
        best_coloring=FaceColoring(c, best),
        status="ProvedOptimal" if complete else "Incumbent",
        nodes_explored=nodes_carried + bud.nodes,
        wall_time=0.0,
        proven_lower_bound=lb,
    )


_SPLIT_DEPTH = 8


def _expand_prefixes(tables: _Tables, depth: int) -> list[str]:
    """All feasible assignments of the first `depth` faces (face 0 black)."""
    out: list[str] = []

    def rec(dfs: _Dfs, k: int, bits: str):
        if k == depth:
            out.append(bits)
            return
        f = tables.order[k]
        for color in ((BLACK,) if k == 0 else (WHITE, BLACK)):
            if dfs._assign(f, color):
                rec(dfs, k + 1, bits + ("1" if color == BLACK else "0"))
            dfs._unassign(f, color)

    rec(_Dfs(tables), 0, "")
    return out


# the parent's tables, inherited by each forked worker of _exact_parallel
_worker_tables: _Tables | None = None


def _init_worker(tables: _Tables) -> None:
    global _worker_tables
    _worker_tables = tables


def _worker_exact(args):
    prefix, inc_fold, max_nodes, max_seconds = args
    tables = _worker_tables
    bound = [inc_fold]
    ties: list[tuple[int, ...]] = []
    bud = _Budget(max_nodes, max_seconds)
    frontier: list[tuple[str, int]] = []

    def emit(cols, folds):
        if folds < bound[0]:
            bound[0] = folds
            ties.clear()
        if folds <= bound[0]:
            ties.append(cols)

    dfs = _Dfs(tables)
    state = dfs.replay_prefix(prefix)
    complete = True
    if state is not None:
        complete = dfs.search(state[0], state[1], bound, bud, emit, frontier)
    return (bound[0], ties, complete, bud.nodes,
            min([folds for _, folds in frontier], default=None))


def _exact_parallel(c, tables, inc_fold, inc_colors, budget, nthreads, nodes_carried):
    import multiprocessing as mp

    depth = min(_SPLIT_DEPTH, tables.F - 1)
    prefixes = _expand_prefixes(tables, depth)
    args = [
        (p, inc_fold,
         budget.max_nodes if budget else None,
         budget.max_seconds if budget else None)
        for p in prefixes
    ]
    # under fork, initargs reach the workers by inheritance, not pickling
    with mp.get_context("fork").Pool(nthreads, initializer=_init_worker,
                                     initargs=(tables,)) as pool:
        results = pool.map(_worker_exact, args)
    best_fold = inc_fold
    ties = [inc_colors]
    nodes = nodes_carried
    complete = True
    open_lbs = []
    for fold, wties, wcomplete, wnodes, wopen in results:
        nodes += wnodes
        complete = complete and wcomplete
        if wopen is not None:
            open_lbs.append(wopen)
        for cols in wties:
            f = fold_count(FaceColoring(c, cols))
            if f < best_fold:
                best_fold = f
                ties = [cols]
            elif f == best_fold:
                ties.append(cols)
    lb = best_fold if complete else min([best_fold] + open_lbs)
    return SearchReport(
        beta=c.beta,
        best_fold=best_fold,
        best_coloring=FaceColoring(c, _lex_best(ties)),
        status="ProvedOptimal" if complete else "Incumbent",
        nodes_explored=nodes,
        wall_time=0.0,
        proven_lower_bound=lb,
    )


def _random_good_coloring(tables: _Tables, rng: random.Random, deadline: float):
    """One random leaf of the good-coloring tree (randomized value order).

    None when the deadline (a time.monotonic() value) passes first.
    """
    left = deadline - time.monotonic()
    if left <= 0:
        return None
    hit = []

    def value_order(d_black, d_white):
        return (BLACK, WHITE) if rng.random() < 0.5 else (WHITE, BLACK)

    def emit(cols, folds):
        hit.append(cols)
        return True  # stop at the first leaf

    _Dfs(tables).search(0, 0, [None], _Budget(max_seconds=left), emit, [], value_order)
    return hit[0] if hit else None


def _anytime_search(c, budget, seed):
    rng = random.Random(seed)
    tables = _Tables(c)
    deadline = time.monotonic() + (budget.max_seconds if budget and budget.max_seconds
                                   else 60.0)
    inc_fold, inc_colors = _initial_incumbent(c)

    # value-ordered branch-and-bound prefix: prefer the color agreeing with
    # already-colored neighbors, so low-fold leaves appear early
    def greedy_order(black_folds: int, white_folds: int):
        return (BLACK, WHITE) if black_folds <= white_folds else (WHITE, BLACK)

    bound = [inc_fold]
    best = [inc_colors]

    def emit(cols, folds):
        if folds < bound[0]:
            bound[0] = folds
            best[0] = cols

    prefix_nodes = budget.max_nodes if budget and budget.max_nodes else 300_000
    bud = _Budget(prefix_nodes, max(1.0, (deadline - time.monotonic()) * 0.5))
    dfs = _Dfs(tables)
    complete = dfs.search(0, 0, bound, bud, emit, [], greedy_order)

    # simulated annealing over star swaps, with restarts; stop early after
    # a stretch of restarts that bring no improvement.  The coloring, its
    # fold count and its swappable vertices are updated in place per swap.
    stars = _star_table(c)
    colors = list(best[0])
    cur_fold = bound[0]
    stale_rounds = 0
    while time.monotonic() < deadline and not complete and stale_rounds < 8:
        round_best = bound[0]
        temp = 2.0
        options = stars.swappable(colors)
        for _ in range(400):
            if time.monotonic() > deadline:
                break
            if not options:
                break
            v = rng.choice(options)
            tf = cur_fold + stars.fold_delta(colors, v)
            if tf <= cur_fold or rng.random() < pow(2.718, -(tf - cur_fold) / temp):
                stars.swap(colors, v, options)
                cur_fold = tf
                if tf < bound[0]:
                    bound[0] = tf
                    best[0] = tuple(colors)
            temp = max(0.05, temp * 0.995)
        stale_rounds = stale_rounds + 1 if bound[0] == round_best else 0
        cols = _random_good_coloring(tables, rng, deadline)
        if cols is None:
            break
        colors = list(cols)
        cur_fold = fold_count(FaceColoring(c, cols))

    return SearchReport(
        beta=c.beta,
        best_fold=bound[0],
        best_coloring=FaceColoring(c, best[0]),
        status="ProvedOptimal" if complete else "Incumbent",
        nodes_explored=bud.nodes,
        wall_time=0.0,
        proven_lower_bound=bound[0] if complete else 0,
    )


# ---------------------------------------------------------------------------
# the order-comparison sweep


@dataclass(frozen=True)
class IeSweepReport:
    baselines: dict
    checked: int
    violations: tuple


def ie_sweep(betas: list[tuple[int, int]], b_max: int) -> IeSweepReport:
    """Check eta(C(beta)) < eta(C(beta')) for all primitive beta' with
    b(beta) <= b' < b_max, for each baseline beta in the list.

    Eta values come from the necklace-layer fold formula, which the test
    suite pins against the constructed colorings.
    """
    baselines = {}
    violations = []
    checked = 0
    for a, b in betas:
        if gcd(a, b) != 1 or not (1 <= a <= b):
            raise DomainError(f"baseline ({a}, {b}) is not canonical primitive")
        baselines[(a, b)] = cf_eta(a, b)
    for (a, b), base_eta in baselines.items():
        for b2 in range(b, b_max):
            for a2 in range(1, b2 + 1):
                if gcd(a2, b2) != 1 or (a2, b2) == (a, b):
                    continue
                checked += 1
                if not base_eta < cf_eta(a2, b2):
                    violations.append(((a, b), (a2, b2)))
    return IeSweepReport(
        baselines={k: (v.numerator, v.denominator) for k, v in baselines.items()},
        checked=checked,
        violations=tuple(violations),
    )
