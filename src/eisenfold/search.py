"""Exact and heuristic minimization of fold count over good colorings.

The exact search is a depth-first branch and bound over face colors in an
order that completes vertex stars early (BFS from a degree-2 vertex's
star), with three prunes: per-vertex mod-3 feasibility, global black/white
balance, and folds already forced among decided edges.  Fixing the first
face black halves the tree; the swapped twin of every solution is restored
on emission.  The anytime mode is one walk of the same DFS under a greedy
value order, from the best seed coloring, under the run's node budget and
deadline; nothing in it is random.
"""

from __future__ import annotations

import json
import time
from math import gcd, isqrt

from ._record import record, setfield
from .coloring import (
    FaceColoring,
    alternating_coloring,
    color_balance,
    continued_fraction_coloring,
    fold_count,
    is_good,
    scaled_coloring,
)
from . import jsonio
from .eisenstein import DomainError, EisensteinInt
from .flower import BLACK, WHITE, cf_eta
from .isoperimetric import region_isoperimetric_check
from .surface import QuotientComplex

CHECKPOINT_FORMAT = "eisenfold-search-checkpoint.v1"


class SwapError(ValueError):
    """The requested star swap is inapplicable."""


def _alternates(colors, star) -> bool:
    s0, s1, s2, s3, s4, s5 = star
    c0 = colors[s0]
    return c0 != colors[s1] != colors[s2] != colors[s3] != colors[s4] != colors[s5] != c0


def vertex_swap(col: FaceColoring, v: int) -> FaceColoring:
    """Invert the six faces around an alternating degree-6 vertex.

    Goodness is preserved: the star stays alternating and every other
    vertex sees one black and one white flip per touched wedge pair.
    """
    c = col.complex
    if not 0 <= v < c.vertex_count:
        raise DomainError(f"no such vertex {v}")
    if c.degrees[v] != 6:
        raise SwapError(f"vertex {v} has degree {c.degrees[v]}, need 6")
    star = c.vertex_stars()[v]
    if not _alternates(col.colors, star):
        raise SwapError(f"star of vertex {v} does not alternate")
    return col.flipped(star)


def swappable_vertices(col: FaceColoring) -> list[int]:
    """The vertices vertex_swap applies to, ascending."""
    colors = col.colors
    return [v for v, star in enumerate(col.complex.vertex_stars())
            if len(star) == 6 and _alternates(colors, star)]


# ---------------------------------------------------------------------------
# shared DFS core
#
# Each vertex carries one state code 3*u + (x mod 3): u, at most 6, counts
# its corners still uncolored and x is black minus white corners.  Goodness
# needs x = 0 (mod 3) once u = 0, so a vertex stays completable unless u = 0
# with x != 0, or u = 1 with x = 0 (mod 3): one more corner moves x by
# exactly 1.  Coloring a corner of a vertex is one lookup in a table of the
# 21 codes; the step table holds -1 where the vertex becomes infeasible.
#
# The three corners of a face are distinct vertices: the three cone points
# are lattice vertices, so every rotation centre of the group is a lattice
# point, and no group element maps a corner onto an adjacent one.  So
# coloring a face is one step at each of three vertices, and _Tables checks
# the fact for every complex it is given.


def _step_table(sign: int, m: int) -> tuple[int, ...]:
    """The code after one more corner of the given sign (m = 1) or one
    fewer (m = -1), or -1 where the vertex becomes infeasible."""
    out = []
    for code in range(21):
        u, x = divmod(code, 3)
        u, x = u - m, (x + sign * m) % 3
        feasible = u >= 0 and not (u < 2 and (x == 0) != (u == 0))
        out.append(3 * u + x if feasible else -1)
    return tuple(out)


# indexed by color, WHITE = 0 and BLACK = 1, which move x by -1 and +1.
# Every code a step reaches comes from a feasible code, so the step by -1
# corner maps it back to exactly that code: the undo tables are those steps.
_STEP = (_step_table(-1, 1), _step_table(1, 1))
_UNDO = (_step_table(-1, -1), _step_table(1, -1))


class _Tables:
    """The face order of the DFS and, per depth k, two tables of the face
    order[k]: corners_at[k], its three corners, and nbr_at[k] =
    (count, g0, g1, g2), its sides glued to faces earlier in the order,
    padded with the pad slot F, whose color is always 0."""

    def __init__(self, c: QuotientComplex):
        self.c = c
        self.F = F = c.face_count
        neighbors = [[f2 for f2, _ in row] for row in c.pairing]
        deg2 = c.degrees.index(2)
        start = sorted(f for f in range(F) if deg2 in c.face_vertices[f])
        order, seen = list(start), set(start)
        i = 0
        while len(order) < F:
            f = order[i]
            i += 1
            for g in neighbors[f]:
                if g not in seen:
                    seen.add(g)
                    order.append(g)
        self.order = order
        pos = [0] * F
        for k, f in enumerate(order):
            pos[f] = k
        self.corners_at = []
        self.nbr_at = []
        for k, f in enumerate(order):
            corners = tuple(c.face_vertices[f])
            if len(set(corners)) != 3:
                raise AssertionError(f"face {f} repeats a corner: {corners}")
            self.corners_at.append(corners)
            earlier = [g for g in neighbors[f] if pos[g] < k]
            self.nbr_at.append((len(earlier), *earlier, *[F] * (3 - len(earlier))))
        self.start = [3 * d for d in c.degrees]


class _Budget:
    """A node budget and a deadline, an absolute time.monotonic() instant."""

    def __init__(self, max_nodes=None, deadline=None):
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0

    def next_check(self, nodes: int):
        """None when the search must stop before counting one more node,
        else the node count at which to ask again.

        The clock is read on the first node of a search and every 2048th
        after it, so a search started after its deadline stops at once.
        """
        limit = self.max_nodes if self.max_nodes is not None else float("inf")
        if nodes >= limit:
            return None
        if self.deadline is None:
            return limit
        if time.monotonic() > self.deadline:
            return None
        return min(limit, nodes + 2048)


def _bits(colors) -> str:
    """The 0/1 string of colors holding WHITE = 0 and BLACK = 1."""
    return "".join(map(str, colors))


def _replay(tables: _Tables, bits: str):
    """The DFS state (colors, vertex codes, black count, white count, folds)
    once the first len(bits) faces of the order hold these colors; None if a
    vertex becomes infeasible or a color exceeds half the faces.  colors
    holds F + 1 entries, the last the pad slot."""
    colors, st = [-1] * tables.F + [0], list(tables.start)
    folds = 0
    for k, ch in enumerate(bits):
        color = int(ch)
        count, g0, g1, g2 = tables.nbr_at[k]
        d_white = colors[g0] + colors[g1] + colors[g2]
        folds += d_white if color == WHITE else count - d_white
        step = _STEP[color]
        v0, v1, v2 = tables.corners_at[k]
        s0, s1, s2 = step[st[v0]], step[st[v1]], step[st[v2]]
        if s0 < 0 or s1 < 0 or s2 < 0:
            return None
        st[v0], st[v1], st[v2] = s0, s1, s2
        colors[tables.order[k]] = color
    nb = bits.count("1")
    nw = len(bits) - nb
    if max(nb, nw) > tables.F // 2:
        return None
    return colors, st, nb, nw, folds


def _dfs(tables: _Tables, bits: str, bound, budget: _Budget, emit, frontier,
         value_order=None):
    """DFS below the prefix `bits`: emit(colors, folds) at leaves with
    folds <= bound[0]; True when the subtree was exhausted (an infeasible
    prefix has none).

    The budget is looked at before a node is counted; when it runs out,
    that node and then the untried choices of each open node, deepest
    first, are appended to `frontier` as (prefix bits, folds so far), and
    False is returned at once, so a resumed run counts each node once.  An
    emit that returns true stops the search, which then returns None.
    value_order(black folds, white folds) gives the order of the two colors
    at a node; by default white is tried first.

    A color is checked before it is committed, so an infeasible child costs
    no undo; a feasible child already above the bound is counted without a
    commit unless the budget is due at that count, and then takes the
    normal path, so a stop writes the same frontier.  The open node at
    depth j keeps its folds, its untried color (or -1) and that color's
    fold delta in per-depth lists, so no recursion limit bounds the depth.
    """
    state = _replay(tables, bits)
    if state is None:
        return True
    colors, st, nb, _, folds = state
    top = k = len(bits)
    F, order, half = tables.F, tables.order, tables.F // 2
    corners_at, nbr_at = tables.corners_at, tables.nbr_at
    step_white, step_black = _STEP
    # folds never exceed the 3F/2 edges, so the bound 3F prunes nothing
    lim = 3 * F if bound[0] is None else bound[0]
    fold_at, alt_at, dalt_at = [0] * F, [-1] * F, [0] * F
    nodes = budget.nodes
    check = nodes  # the node count at which the budget is next asked
    while True:
        if nodes >= check and (check := budget.next_check(nodes)) is None:
            frontier.append((_bits(colors[f] for f in order[:k]), folds))
            for j in range(k - 1, top - 1, -1):
                if alt_at[j] >= 0:
                    frontier.append((_bits(colors[f] for f in order[:j]) + str(alt_at[j]),
                                     fold_at[j]))
            budget.nodes = nodes
            return False
        nodes += 1
        color = alt = -1  # the colors to try at this node, none yet
        if folds > lim:
            pass
        elif k == F:
            if emit(tuple(colors[:F]), folds):
                budget.nodes = nodes
                return None
            lim = 3 * F if bound[0] is None else bound[0]
        else:
            # folds that coloring the face black, resp. white, adds:
            # colored faces hold BLACK = 1 or WHITE = 0
            count, g0, g1, g2 = nbr_at[k]
            d_white = colors[g0] + colors[g1] + colors[g2]
            d_black = count - d_white
            if k == 0:
                color, d, dalt = BLACK, d_black, 0
            elif value_order is None:
                color, d = WHITE, d_white
                alt, dalt = BLACK, d_black
            else:
                color, alt = value_order(d_black, d_white)
                d, dalt = (d_black, d_white) if color == BLACK else (d_white, d_black)
        while True:
            if color >= 0:
                # try color, leaving alt as the node's untried color
                c, dc = color, d
                color, d, alt = alt, dalt, -1
                if c == BLACK:
                    if nb >= half:
                        continue
                    step = step_black
                else:
                    if k - nb >= half:
                        continue
                    step = step_white
                v0, v1, v2 = corners_at[k]
                s0 = step[st[v0]]
                if s0 < 0:
                    continue
                s1 = step[st[v1]]
                if s1 < 0:
                    continue
                s2 = step[st[v2]]
                if s2 < 0:
                    continue
                if folds + dc > lim and nodes < check:
                    nodes += 1  # a pruned child
                    continue
                st[v0], st[v1], st[v2] = s0, s1, s2
                # colors hold BLACK = 1 and WHITE = 0: nb counts the black
                # faces and k - nb the white ones
                colors[order[k]] = c
                nb += c
                fold_at[k], alt_at[k], dalt_at[k] = folds, color, d
                k, folds = k + 1, folds + dc
                break
            elif k > top:
                # the node at depth k is finished: resume its parent.  The
                # face keeps its color, unread until it is colored again
                k -= 1
                c = colors[order[k]]
                nb -= c
                undo = _UNDO[c]
                v0, v1, v2 = corners_at[k]
                st[v0], st[v1], st[v2] = undo[st[v0]], undo[st[v1]], undo[st[v2]]
                folds, color, d = fold_at[k], alt_at[k], dalt_at[k]
                alt = -1
            else:
                budget.nodes = nodes
                return True


# ---------------------------------------------------------------------------
# enumeration


def iter_good_colorings(c: QuotientComplex):
    """Every good coloring exactly once, deterministic order, both colors.

    Each DFS leaf (first face black) is yielded followed by its global swap.
    """
    stash = []
    _dfs(_Tables(c), "", [None], _Budget(), lambda cols, folds: stash.append(cols), [])
    for cols in stash:
        col = FaceColoring(c, cols)
        yield col
        yield col.swapped()


# ---------------------------------------------------------------------------
# minimum-fold search


@record
class SearchBudget:
    """At most max_nodes nodes (per subtree task) and max_seconds of wall
    time; None leaves that side unbounded."""

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        setfield(self, "max_nodes", max_nodes)
        setfield(self, "max_seconds", max_seconds)
        if max_nodes is not None and max_nodes < 1:
            raise DomainError(f"max_nodes must be at least 1, got {max_nodes}")
        if max_seconds is not None and not 0 < max_seconds < float("inf"):
            raise DomainError(f"max_seconds must be finite and positive, got {max_seconds}")


@record
class SearchReport:
    def __init__(self, beta: EisensteinInt, best_fold: int, best_coloring: FaceColoring,
                 status: str, nodes_explored: int, wall_time: float, proven_lower_bound: int):
        setfield(self, "beta", beta)
        setfield(self, "best_fold", best_fold)
        setfield(self, "best_coloring", best_coloring)
        setfield(self, "status", status)  # "ProvedOptimal" | "Incumbent"
        setfield(self, "nodes_explored", nodes_explored)
        setfield(self, "wall_time", wall_time)
        setfield(self, "proven_lower_bound", proven_lower_bound)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "schema": "search.v1",
            "beta": [jsonio.jint(self.beta.a), jsonio.jint(self.beta.b)],
            "best_fold": jsonio.jint(self.best_fold),
            "best_coloring": self.best_coloring.bitstring(),
            "status": self.status,
            "nodes_explored": jsonio.jint(self.nodes_explored),
            "proven_lower_bound": jsonio.jint(self.proven_lower_bound),
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc


def _seed_colorings(c: QuotientComplex, scaled: bool = False) -> list[FaceColoring]:
    """The cf coloring of a primitive beta with a >= 1 and the alternating
    coloring, each with face 0 black.  scaled adds, for g = gcd(a, b) > 1,
    the best seed of T(beta/g) scaled by g; beta/g = (0, 1) scales T(0,1)'s
    alternating coloring, whose fold is 3."""
    seeds = [alternating_coloring(c)]
    a, b = c.beta.a, c.beta.b
    g = gcd(a, b)
    if a >= 1 and g == 1:
        seeds.insert(0, continued_fraction_coloring(c.beta, c))
    if scaled and g > 1:
        small = QuotientComplex(EisensteinInt(a // g, b // g))
        seeds.append(scaled_coloring(FaceColoring(small, _initial_incumbent(small)[1]), c))
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


def _fold_floor(F: int) -> int:
    """L: the least f with f^2 >= 3F and f = F/2 (mod 2), a lower bound on
    the fold count of every balanced good coloring of a complex with F faces.

    f^2 >= 3F is the eta >= 3 chain of `isoperimetric`; the parity follows
    from 3F/2 = 2 e_bb + f, where e_bb counts edges between two black faces.
    """
    f = isqrt(3 * F - 1) + 1
    return f + (f - F // 2) % 2


def min_fold_search(
    c: QuotientComplex,
    mode: str = "exact",
    budget: SearchBudget = SearchBudget(),
    threads: int = 1,
    seed: int = 0,
    checkpoint_out: str | None = None,
    resume: str | None = None,
) -> SearchReport:
    """Minimize fold count over good colorings.

    exact: branch and bound to exhaustion (ProvedOptimal) or to the budget
    (Incumbent, with the proven lower bound from the open frontier).
    anytime: one walk of the same DFS under a greedy value order, started
    from the best seed (for g = gcd(a, b) > 1 also g times the best seed of
    T(beta/g)), under the node budget (default 300,000) and the deadline;
    reports Incumbent unless the walk exhausts the tree.
    Both modes report ProvedOptimal when the best fold meets the floor
    `_fold_floor`, and never a lower bound below it.  `budget.max_seconds`
    is one deadline for the whole run, every worker included.  threads,
    checkpoint_out and resume belong to exact mode; anytime mode runs one
    worker and rejects the other two.  Nothing reads seed: the anytime walk
    has nothing random in it, and the keyword stays for callers that pass it.
    """
    if mode not in ("exact", "anytime"):
        raise DomainError(f"unknown mode {mode!r}")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    if mode == "anytime" and (threads != 1 or checkpoint_out is not None
                              or resume is not None):
        raise DomainError("threads, checkpoint_out and resume apply to exact mode only")
    t0 = time.monotonic()
    max_nodes, seconds = budget.max_nodes, budget.max_seconds
    deadline = t0 + seconds if seconds else None
    if mode == "exact":
        best_fold, best, complete, nodes, lb = _exact_search(
            c, max_nodes, deadline, threads, checkpoint_out, resume)
    else:
        best_fold, best, complete, nodes, lb = _anytime_search(c, max_nodes, deadline)
    floor = _fold_floor(c.face_count)
    report = SearchReport(
        beta=c.beta,
        best_fold=best_fold,
        best_coloring=FaceColoring(c, best),
        status="ProvedOptimal" if complete or best_fold == floor else "Incumbent",
        nodes_explored=nodes,
        wall_time=time.monotonic() - t0,
        proven_lower_bound=max(floor, lb),
    )
    blacks, whites = color_balance(report.best_coloring)
    if not is_good(report.best_coloring).good or blacks != whites:
        raise AssertionError("search produced a non-good or unbalanced coloring")
    if not region_isoperimetric_check(report.best_coloring).eta_lower_bound_holds:
        raise AssertionError("search result violates the isoperimetric bound")
    return report


def _initial_incumbent(c: QuotientComplex, scaled: bool = False):
    """(fold, colors) of the seed of least fold, the least colors on a tie.

    Exact mode leaves scaled off: bench/test_bench.py pins its node counts
    on (2,4) and (0,5), where a scaled seed would start it from a lower
    bound.  Moving exact mode to the scaled seeds, with new pins, is
    ROADMAP item 5 (better seeds).
    """
    seeds = _seed_colorings(c, scaled)
    folds = [fold_count(s) for s in seeds]
    i = min(range(len(seeds)), key=lambda j: (folds[j], seeds[j].colors))
    return folds[i], seeds[i].colors


def _solve(tables: _Tables, prefixes, inc_fold: int, max_nodes, deadline):
    """Branch and bound below each prefix in turn, under one bound and one
    budget, pruning leaves above inc_fold.

    Returns (best fold, the leaves found at that fold, whether every subtree
    was exhausted, nodes explored, frontier of untried branches).
    """
    bound = [inc_fold]
    ties: list[tuple[int, ...]] = []
    budget = _Budget(max_nodes, deadline)
    frontier: list[tuple[str, int]] = []

    def emit(cols, folds):  # only leaves with folds <= bound[0] arrive
        if folds < bound[0]:
            bound[0] = folds
            ties.clear()
        ties.append(cols)

    complete = True
    for bits in prefixes:
        if not _dfs(tables, bits, bound, budget, emit, frontier):
            complete = False
    return bound[0], ties, complete, budget.nodes, frontier


_SPLIT_DEPTH = 8


def _expand_prefixes(tables: _Tables, depth: int) -> list[str]:
    """All assignments of the first `depth` faces (face 0 black) that
    _replay accepts, in DFS order."""
    out = [""]
    for k in range(depth):
        out = [bits + ch for bits in out for ch in ("1" if k == 0 else "01")
               if _replay(tables, bits + ch) is not None]
    return out


# the parent's tables, inherited by each forked worker of _exact_search
_worker_tables: _Tables | None = None


def _init_worker(tables: _Tables) -> None:
    global _worker_tables
    _worker_tables = tables


def _solve_prefix(args):
    prefix, inc_fold, max_nodes, deadline = args
    return _solve(_worker_tables, [prefix], inc_fold, max_nodes, deadline)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_bits(x, most: int) -> bool:
    return isinstance(x, str) and len(x) <= most and set(x) <= {"0", "1"}


def _read_checkpoint(path: str, tables: _Tables):
    """(stored fold, stored colors, frontier prefixes, nodes) of a checkpoint
    of this search; DomainError for any other document."""
    doc = jsonio.load(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DomainError("unrecognized checkpoint format")
    fields = ("beta", "order", "incumbent_fold", "incumbent_colors", "frontier")
    missing = [k for k in fields if k not in doc]
    if missing:
        raise DomainError(f"checkpoint lacks {', '.join(missing)}")
    beta, order, stored, bits, frontier = (doc[k] for k in fields)
    nodes = doc.get("nodes_explored", 0)
    F = tables.F
    if not (isinstance(beta, list) and isinstance(order, list)
            and all(_is_int(x) for x in beta + order)):
        raise DomainError("checkpoint beta and order must be lists of integers")
    if beta != [tables.c.beta.a, tables.c.beta.b] or order != tables.order:
        raise DomainError("checkpoint belongs to a different search")
    if not (_is_int(stored) and _is_bits(bits, F) and len(bits) == F):
        raise DomainError("checkpoint incumbent must be a fold and a bitstring of F bits")
    if not _is_int(nodes) or nodes < 0:
        raise DomainError("checkpoint nodes_explored must be a count")
    if not (isinstance(frontier, list)
            and all(isinstance(e, dict) and _is_bits(e.get("prefix"), F) for e in frontier)):
        raise DomainError("checkpoint frontier entries need a prefix of 0s and 1s")
    col = FaceColoring(tables.c, tuple(map(int, bits)))
    if not is_good(col).good or fold_count(col) != stored:
        raise DomainError("checkpoint incumbent is not a good coloring of its fold")
    return stored, col.colors, [e["prefix"] for e in frontier], nodes


def _exact_search(c, max_nodes, deadline, nthreads, checkpoint_out, resume):
    """Branch and bound over a prefix work list: [""] or a resumed frontier,
    in one _solve, or with nthreads > 1 in one _solve per prefix of a forked
    pool, each task pruning against the initial incumbent only."""
    tables = _Tables(c)
    inc_fold, inc_colors = _initial_incumbent(c)
    ties = [inc_colors]
    prefixes = [""]
    nodes = 0
    if resume is not None:
        stored, cols, prefixes, nodes = _read_checkpoint(resume, tables)
        if stored <= inc_fold:
            # at an equal fold the stored coloring is one more tie: it is the
            # least of those found before the checkpoint
            ties = [cols] if stored < inc_fold else ties + [cols]
            inc_fold = stored

    if nthreads == 1:
        results = [_solve(tables, prefixes, inc_fold, max_nodes, deadline)]
    else:
        import multiprocessing as mp

        if prefixes == [""]:
            prefixes = _expand_prefixes(tables, min(_SPLIT_DEPTH, tables.F - 1))
        # under fork, initargs reach the workers by inheritance, not pickling
        with mp.get_context("fork").Pool(nthreads, initializer=_init_worker,
                                         initargs=(tables,)) as pool:
            results = pool.map(_solve_prefix,
                               [(p, inc_fold, max_nodes, deadline) for p in prefixes])

    best_fold, complete, frontier = inc_fold, True, []
    for fold, found, done, n, open_ in results:
        if fold < best_fold:
            best_fold, ties = fold, []
        if fold == best_fold:
            ties += found
        complete = complete and done
        nodes += n
        # a stop lists every untried choice; keep those a resume can enter,
        # each at the folds its replay reaches
        frontier += [(bits, state[4]) for bits, _ in open_
                     if (state := _replay(tables, bits)) is not None]
    best = _lex_best(ties)
    if checkpoint_out is not None and not complete:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "beta": [c.beta.a, c.beta.b],
            "order": tables.order,
            "incumbent_fold": best_fold,
            "incumbent_colors": _bits(best),
            "frontier": [{"prefix": bits} for bits, _ in frontier],
            "nodes_explored": nodes,
        }
        with open(checkpoint_out, "w") as fh:
            json.dump(doc, fh)
    # the frontier is empty exactly when the tree was exhausted
    return best_fold, best, complete, nodes, min([best_fold] + [f for _, f in frontier])


def _anytime_search(c, max_nodes, deadline):
    """One DFS walk under the greedy value order from the best seed, the
    scaled one included, under the node budget (default 300,000) and the
    deadline.  The order prefers the color that agrees with the colored
    neighbours, so low-fold leaves come early."""
    tables = _Tables(c)
    inc_fold, inc_colors = _initial_incumbent(c, scaled=True)
    bound, best = [inc_fold], [inc_colors]

    def greedy_order(black_folds: int, white_folds: int):
        return (BLACK, WHITE) if black_folds <= white_folds else (WHITE, BLACK)

    def emit(cols, folds):
        if folds < bound[0]:
            bound[0] = folds
            best[0] = cols

    budget = _Budget(max_nodes or 300_000, deadline)
    complete = _dfs(tables, "", bound, budget, emit, [], greedy_order)
    return bound[0], best[0], complete, budget.nodes, bound[0] if complete else 0


# ---------------------------------------------------------------------------
# the order-comparison sweep


@record
class IeSweepReport:
    def __init__(self, baselines: tuple, checked: int, violations: tuple):
        setfield(self, "baselines", baselines)  # ((a, b), (n, d)) per baseline, eta = n/d
        setfield(self, "checked", checked)
        setfield(self, "violations", violations)


def ie_sweep(betas: list[tuple[int, int]], b_max: int) -> IeSweepReport:
    """Check eta(C(beta)) < eta(C(beta')) for all primitive beta' with
    b(beta) <= b' < b_max, for each baseline beta in the list.

    Eta values come from the necklace-layer fold formula, which the test
    suite pins against the constructed colorings.  eta = f^2 / F with F > 0,
    so each pair is compared by integer cross-multiplication.  A baseline
    that cf_eta rejects, or one listed twice, raises DomainError.

    The pairs 1 <= a' <= b' < b_max with gcd 1 are walked once as a forest
    of Euclid trees (N. Calkin and H. Wilf, "Recounting the rationals",
    2000): the roots are (1, b'), and (r, a) with r < a has the children
    (a, q*a + r), q >= 1, whose Euclid step runs back to (r, a).  So no pair
    needs a gcd, and cf_fold_count's f = 3 + 2*S, S its orbit sum, is the
    root's 3 + b'(b'+3) plus 2*(a*q(q+3)/2 + q*r), twice one run, per step
    down.  Each baseline's violations are reported in the order b' then a'.
    """
    baselines = {}
    for a, b in betas:
        if (a, b) in baselines:
            raise DomainError(f"baseline ({a}, {b}) is repeated")
        baselines[(a, b)] = cf_eta(a, b)
    # per baseline: the pair, eta's numerator and denominator, and the
    # (b', a') that break the order, which sort into the order b' then a'
    checks = [(base, e.numerator, e.denominator, []) for base, e in baselines.items()]
    checked = 0
    stack = [(1, b2, 3 + b2 * (b2 + 3)) for b2 in range(1, b_max)]
    while stack:
        a2, b2, f = stack.pop()
        ff, faces = f * f, 2 * (a2 * a2 + a2 * b2 + b2 * b2)
        for (_, b), n0, d0, found in checks:
            if b2 >= b:
                checked += 1
                if not n0 * faces < ff * d0:
                    found.append((b2, a2))
        q, b3 = 1, b2 + a2
        while b3 < b_max and a2 < b2:
            stack.append((b2, b3, f + b2 * q * (q + 3) + 2 * q * a2))
            q, b3 = q + 1, b3 + b2
    violations = []
    for (a, b), _, _, found in checks:
        if b < b_max:  # the baseline met itself, as a tie
            checked -= 1
            found.remove((b, a))
        violations += [((a, b), (a2, b2)) for b2, a2 in sorted(found)]
    return IeSweepReport(
        baselines=tuple((k, (v.numerator, v.denominator)) for k, v in baselines.items()),
        checked=checked,
        violations=tuple(violations),
    )
