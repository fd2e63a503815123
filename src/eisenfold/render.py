"""Deterministic SVG pictures of plane colorings and flowers.

Lattice coordinates map to screen by (a, b) -> (a + b/2, b*sqrt(3)/2) with
the y axis flipped; all floats are written with three decimals and fixed
element order, so output bytes depend only on the arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from ._record import record, setfield
from .eisenstein import DomainError, EisensteinInt, canonical
from .coloring import continued_fraction_coloring
from .flower import BLACK, _maximal_runs, empty_flower
from .surface import CELL_OPEN_SIDES, CORNERS, DOWN, NEIGHBOR, UP, cell, columns

_SQ3_2 = 3 ** 0.5 / 2
_FILL = {BLACK: "#000000", 1 - BLACK: "#FFFFFF"}
_FOLD_STROKE = "#FF0000"
_RHOMBUS_STROKE = "#0000FF"


@record
class RenderSpec:
    def __init__(self, beta: EisensteinInt, domains: int = 1, show_rhombus: bool = True,
                 show_folds: bool = True, scale: float = 40.0, colored: bool = True):
        setfield(self, "beta", beta)
        setfield(self, "domains", domains)
        setfield(self, "show_rhombus", show_rhombus)
        setfield(self, "show_folds", show_folds)
        setfield(self, "scale", scale)
        setfield(self, "colored", colored)
        if domains < 1:
            raise DomainError("domains must be >= 1")
        if not 0 < scale < inf:
            raise DomainError(f"scale must be positive and finite, got {scale}")


def _xy(a: int, b: int, scale: float) -> tuple[float, float]:
    return ((a + b / 2) * scale, -b * _SQ3_2 * scale)


def _svg(scale: float, polys, marks) -> str:
    """An SVG document framing every point it draws with a quarter-scale pad.

    polys are (lattice corners, fill) pairs, drawn first in one grey-stroked
    group; marks are (template, lattice points) pairs drawn after them, each
    template filled with its points' screen x and y in turn.  Coordinates
    are written with three decimals, each distinct lattice point's once.
    """
    points = {p for pts, _ in polys for p in pts}
    points.update(p for _, pts in marks for p in pts)
    xy = {p: _xy(*p, scale) for p in points}
    pad = scale * 0.25
    x0 = min(x for x, _ in xy.values()) - pad
    y0 = min(y for _, y in xy.values()) - pad
    w = max(x for x, _ in xy.values()) - x0 + pad
    h = max(y for _, y in xy.values()) - y0 + pad
    if not (w < inf and h < inf):
        raise DomainError(f"scale {scale} makes the picture too large to draw")
    text = {p: (f"{x - x0:.3f}", f"{y - y0:.3f}") for p, (x, y) in xy.items()}
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w:.3f}" height="{h:.3f}" viewBox="0 0 {w:.3f} {h:.3f}">',
        '<g stroke="#888888" stroke-width="0.5">',
    ]
    for pts, fill in polys:
        corners = " ".join(map(",".join, map(text.__getitem__, pts)))
        out.append(f'<polygon points="{corners}" fill="{fill}"/>')
    out.append("</g>")
    for template, pts in marks:
        out.append(template.format(*[v for p in pts for v in text[p]]))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(spec: RenderSpec) -> str:
    """Plane picture of the coloring (or bare triangulation) of beta.

    The window is the fundamental cell scaled by `domains`, with its far
    sides open: the triangles whose centroids it holds, in (a, b, o) order,
    and the folds at the midpoints it holds.
    """
    beta = canonical(spec.beta)
    col = continued_fraction_coloring(beta) if spec.colored else None
    delta = EisensteinInt(2, -1) * beta
    dom = spec.domains
    d1, d2, n = delta.a, delta.b, delta.norm()

    def inside(x: int, y: int, k: int) -> bool:
        """Whether (x, y) lies in the window scaled by k."""
        # (x, y) = (m/n) delta + (l/n) delta*alpha
        m, l = x * (d1 + d2) + y * d2, y * d1 - x * d2
        return 0 <= m < k * n * dom and 0 <= l < k * n * dom

    # the triangles whose tripled centroids lie in the window scaled by 3:
    # span[o][a] = (lo, hi) holds (a, b, o) for lo <= b <= hi, and tone[o][a]
    # their colors, read once per column
    window = cell(delta, 3 * dom)
    span = [{a: (lo, hi) for a, lo, hi in columns(window, 3, 1 + o, CELL_OPEN_SIDES)}
            for o in (UP, DOWN)]
    tris = sorted((a, b, o) for o in (UP, DOWN) for a, (lo, hi) in span[o].items()
                  for b in range(lo, hi + 1))
    if len(tris) != 6 * beta.norm() * dom * dom:
        raise AssertionError("window does not hold the expected triangle count")
    if col is None:
        tri_colors = [None] * len(tris)
    else:
        colors, c = col.colors, col.complex
        tone = [{a: [colors[f] for f in c.column_faces(a, lo, hi, o)]
                 for a, (lo, hi) in span[o].items()} for o in (UP, DOWN)]
        tri_colors = [tone[o][a][b - span[o][a][0]] for a, b, o in tris]
    polys = [
        ([(a + da, b + db) for da, db in CORNERS[o]], _FILL.get(here, "#FFFFFF"))
        for (a, b, o), here in zip(tris, tri_colors)
    ]

    marks = []
    if spec.show_folds and col is not None:
        # A side between two window triangles is drawn from the lesser; the
        # window is convex and holds both centroids, so it holds the side's
        # midpoint, halfway between them.  A side to a triangle outside is
        # drawn when the window holds its midpoint.
        folds = []
        for (a, b, o), here in zip(tris, tri_colors):
            corners = CORNERS[o]
            for s, (da, db, no, _) in enumerate(NEIGHBOR[o]):
                x, y = a + da, b + db
                lo, hi = span[no].get(x, (1, 0))
                (pa, pb), (qa, qb) = corners[s], corners[(s + 1) % 3]
                if lo <= y <= hi:
                    if (da, db, no) < (0, 0, o) or here == tone[no][x][y - lo]:
                        continue
                elif (not inside(2 * a + pa + qa, 2 * b + pb + qb, 2)
                      or here == colors[c.face_at(x, y, no)]):
                    continue
                folds.append(((a + pa, b + pb), (a + qa, b + qb)))
        if folds:
            folds.sort()
            marks.append((f'<g class="folds" stroke="{_FOLD_STROKE}" stroke-width="2.0">', ()))
            marks.extend(('<line class="fold" x1="{}" y1="{}" x2="{}" y2="{}"/>', pq) for pq in folds)
            marks.append(("</g>", ()))

    if spec.show_rhombus:
        ab = EisensteinInt(0, 1) * beta
        pts = [(0, 0), (beta.a, beta.b), (beta.a + ab.a, beta.b + ab.b), (ab.a, ab.b)]
        marks.append((
            '<polygon class="rhombus" points="{},{} {},{} {},{} {},{}" '
            f'fill="none" stroke="{_RHOMBUS_STROKE}" stroke-width="3.0"/>', pts))
    return _svg(spec.scale, polys, marks)


def render_flower_svg(aspect: Fraction, scale: float = 40.0) -> str:
    """Empty-flower diagram with the maximal trapezoids outlined.

    Necklace trapezoids alternate fill colors inward; each maximal
    trapezoid (one per rotation slot per continued-fraction quotient) gets
    a heavy outline, so its stripe count is the visible quotient.
    """
    flower = empty_flower(aspect)
    if not 0 < scale < inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    polys = [
        ([(v.a, v.b) for v in t.vertices()], _FILL[color])
        for necklace_, color in flower
        for t in necklace_.trapezoids
    ]

    # maximal trapezoids: runs of nested levels, one outline per slot
    marks = [('<g class="maximal" fill="none" stroke="#00AA00" stroke-width="2.5">', ())]
    for lo, hi in _maximal_runs([n for n, _ in flower]):
        outer = flower[lo][0]
        inner = flower[hi][0]
        for slot in range(6):
            p3, p4, _, _ = inner.trapezoids[slot].corners()
            _, _, p1, p2 = outer.trapezoids[slot].corners()
            marks.append((
                '<polygon class="maximal-trapezoid" points="{},{} {},{} {},{} {},{}"/>',
                [(p3.a, p3.b), (p4.a, p4.b), (p1.a, p1.b), (p2.a, p2.b)],
            ))
    marks.append(("</g>", ()))
    return _svg(scale, polys, marks)
