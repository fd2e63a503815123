"""Reference implementations that tests compare the library against."""

import time
from collections import Counter

from eisenfold.coloring import FaceColoring, is_good
from eisenfold.eisenstein import DomainError
from eisenfold.flower import BLACK, WHITE
from eisenfold.surface import QuotientComplex


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
# A reference exact-search DFS with a pair of counters per vertex, an assign
# that commits before it checks and an unassign that undoes it.  The
# library's table-driven DFS must visit the same nodes and emit the same
# leaves in the same order.


class ReferenceBudget:
    """A node budget and a deadline, an absolute time.monotonic() instant."""

    def __init__(self, max_nodes=None, deadline=None):
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0

    def spent(self) -> bool:
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        if self.deadline is not None and self.nodes % 2048 == 1:
            return time.monotonic() > self.deadline
        return False


class ReferenceDfs:
    """Backtracking over good colorings with optional fold bounding.

    Per vertex it keeps u, the corners still uncolored, and x, black minus
    white corners.  Goodness needs x = 0 (mod 3) once u = 0, so a vertex
    stays completable unless u = 0 with x != 0, or u = 1 with x = 0
    (mod 3): one more corner moves x by exactly 1.

    `tables` supplies the face order and the earlier neighbours of each
    face; the corner multiplicities are derived here from its complex.
    """

    def __init__(self, tables):
        self.t = tables
        c = tables.c
        self.corners = [tuple(Counter(ids).items()) for ids in c.face_vertices]
        self.colors = [-1] * tables.F
        self.u = [v.degree for v in c.vertices]
        self.x = [0] * c.vertex_count
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
        for v, m in self.corners[f]:
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
        for v, m in self.corners[f]:
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

    def search(self, k: int, folds: int, bound, budget, emit, frontier,
               value_order=None):
        """DFS from depth k; emit(colors, folds) at leaves with folds <= bound.

        Returns True when the subtree was exhausted.  When the budget runs
        out, every untried branch is appended to `frontier` as (prefix bits,
        folds so far) and False is returned.  An emit that returns true
        stops the search, which then returns None.
        """
        t = self.t
        F, order, half = t.F, t.order, t.F // 2
        stack = []
        while True:
            budget.nodes += 1
            if bound[0] is not None and folds > bound[0]:
                done = True
            elif k == F:
                if emit(tuple(self.colors), folds):
                    return None
                done = True
            elif budget.spent():
                frontier.append((self._prefix(k), folds))
                done = False
            else:
                f = order[k]
                d_black, d_white = self._fold_deltas(f)
                if k == 0:
                    choices = (BLACK,)
                elif value_order is None:
                    choices = (WHITE, BLACK)
                else:
                    choices = value_order(d_black, d_white)
                i, complete, done = 0, True, None
            while True:
                if done is not None:
                    if not stack:
                        return done
                    k, f, choices, i, folds, d_black, d_white, complete, color = stack.pop()
                    self._unassign(f, color)
                    if not done:
                        complete = False
                while i < len(choices):
                    color = choices[i]
                    i += 1
                    if not complete:
                        frontier.append((self._prefix(k) + ("1" if color == BLACK else "0"),
                                         folds))
                        continue
                    if color == BLACK:
                        if self.nb >= half:
                            continue
                        d = d_black
                    else:
                        if self.nw >= half:
                            continue
                        d = d_white
                    if self._assign(f, color):
                        break
                    self._unassign(f, color)
                else:
                    done = complete
                    continue
                stack.append((k, f, choices, i, folds, d_black, d_white, complete, color))
                k, folds = k + 1, folds + d
                break


def reference_expand_prefixes(tables, depth: int) -> list[str]:
    """All feasible assignments of the first `depth` faces (face 0 black)."""
    out: list[str] = []

    def rec(dfs: ReferenceDfs, k: int, bits: str):
        if k == depth:
            out.append(bits)
            return
        f = tables.order[k]
        for color in ((BLACK,) if k == 0 else (WHITE, BLACK)):
            if dfs._assign(f, color):
                rec(dfs, k + 1, bits + ("1" if color == BLACK else "0"))
            dfs._unassign(f, color)

    rec(ReferenceDfs(tables), 0, "")
    return out
