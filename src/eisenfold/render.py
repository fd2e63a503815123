"""Deterministic SVG pictures of plane colorings and flowers.

Lattice coordinates map to screen by (a, b) -> (a + b/2, b*sqrt(3)/2) with
the y axis flipped; all floats are written with three decimals and fixed
element order, so output bytes depend only on the arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import DomainError, EisensteinInt, canonical, is_primitive
from .coloring import continued_fraction_coloring
from .flower import BLACK, _maximal_runs, empty_flower
from .surface import CORNERS, DOWN, NEIGHBOR, UP

_SQ3_2 = 3 ** 0.5 / 2
_FILL = {BLACK: "#000000", 1 - BLACK: "#FFFFFF"}
_FOLD_STROKE = "#FF0000"
_RHOMBUS_STROKE = "#0000FF"


@dataclass(frozen=True)
class RenderSpec:
    beta: EisensteinInt
    domains: int = 1
    show_rhombus: bool = True
    show_folds: bool = True
    scale: float = 40.0
    colored: bool = True

    def __post_init__(self):
        if self.domains < 1:
            raise DomainError("domains must be >= 1")
        if self.scale <= 0:
            raise DomainError("scale must be positive")


def _xy(a: int, b: int, scale: float) -> tuple[float, float]:
    return ((a + b / 2) * scale, -b * _SQ3_2 * scale)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _basis_coords(x: int, y: int, delta: EisensteinInt) -> tuple[int, int]:
    """(m, k) with point = (m/N) delta + (k/N) delta*alpha, N = norm(delta)."""
    d1, d2 = delta.a, delta.b
    return x * (d1 + d2) + y * d2, y * d1 - x * d2


def render_svg(spec: RenderSpec) -> str:
    """Plane picture of the coloring (or bare triangulation) of beta."""
    beta = canonical(spec.beta)
    if spec.colored:
        if not is_primitive(beta) or beta.a < 1:
            raise DomainError("colored renders need primitive beta with 1 <= a <= b")
        col = continued_fraction_coloring(beta)
        colors, face_at = col.colors, col.complex.face_at

        def color_of(a: int, b: int, o: int) -> int:
            return colors[face_at(a, b, o)]
    else:
        color_of = None
    delta = EisensteinInt(2, -1) * beta
    dom = spec.domains

    # triangles whose tripled centroid sits in the half-open window
    tris = []
    corners = [(0, 0), (delta.a, delta.b)]
    al_delta = EisensteinInt(0, 1) * delta
    corners.append((al_delta.a, al_delta.b))
    corners.append((delta.a + al_delta.a, delta.b + al_delta.b))
    amin = dom * min(c[0] for c in corners) - 2
    amax = dom * max(c[0] for c in corners) + 2
    bmin = dom * min(c[1] for c in corners) - 2
    bmax = dom * max(c[1] for c in corners) + 2
    n = delta.norm()
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            for o in (UP, DOWN):
                # the tripled centroid of triangle (a, b, o)
                m, k = _basis_coords(3 * a + 1 + o, 3 * b + 1 + o, delta)
                if 0 <= m < 3 * n * dom and 0 <= k < 3 * n * dom:
                    tris.append((a, b, o))
    if len(tris) != 6 * beta.norm() * dom * dom:
        raise AssertionError("window does not hold the expected triangle count")

    scale = spec.scale
    xs, ys = [], []
    polys = []
    for a, b, o in tris:
        pts = [_xy(a + da, b + db, scale) for da, db in CORNERS[o]]
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
        fill = _FILL[color_of(a, b, o)] if color_of else "#FFFFFF"
        polys.append((pts, fill))

    folds = []
    if spec.show_folds and color_of:
        seen = set()
        for a, b, o in tris:
            verts = [(a + da, b + db) for da, db in CORNERS[o]]
            here = color_of(a, b, o)
            for s, (da, db, no, _) in enumerate(NEIGHBOR[o]):
                p, q = verts[s], verts[(s + 1) % 3]
                key = frozenset((p, q))
                if key in seen:
                    continue
                seen.add(key)
                m, k = _basis_coords(p[0] + q[0], p[1] + q[1], delta)
                if not (0 <= m < 2 * n * dom and 0 <= k < 2 * n * dom):
                    continue
                if here != color_of(a + da, b + db, no):
                    folds.append((p, q))
        folds.sort()
        for p, q in folds:
            x1, y1 = _xy(*p, scale)
            x2, y2 = _xy(*q, scale)
            xs.extend((x1, x2))
            ys.extend((y1, y2))

    rhombus = None
    if spec.show_rhombus:
        ab = EisensteinInt(0, 1) * beta
        pts = [(0, 0), (beta.a, beta.b),
               (beta.a + ab.a, beta.b + ab.b), (ab.a, ab.b)]
        rhombus = [_xy(x, y, scale) for x, y in pts]
        xs.extend(p[0] for p in rhombus)
        ys.extend(p[1] for p in rhombus)

    pad = scale * 0.25
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    def shift(p):
        return _fmt(p[0] - x0) + "," + _fmt(p[1] - y0)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">'
    ]
    out.append('<g stroke="#888888" stroke-width="0.5">')
    for pts, fill in polys:
        out.append(f'<polygon points="{" ".join(shift(p) for p in pts)}" fill="{fill}"/>')
    out.append("</g>")
    if folds:
        out.append(f'<g class="folds" stroke="{_FOLD_STROKE}" stroke-width="2.0">')
        for p, q in folds:
            x1, y1 = _xy(*p, scale)
            x2, y2 = _xy(*q, scale)
            out.append(
                f'<line class="fold" x1="{_fmt(x1 - x0)}" y1="{_fmt(y1 - y0)}" '
                f'x2="{_fmt(x2 - x0)}" y2="{_fmt(y2 - y0)}"/>'
            )
        out.append("</g>")
    if rhombus:
        out.append(
            f'<polygon class="rhombus" points="{" ".join(shift(p) for p in rhombus)}" '
            f'fill="none" stroke="{_RHOMBUS_STROKE}" stroke-width="3.0"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_flower_svg(aspect: Fraction, scale: float = 40.0) -> str:
    """Empty-flower diagram with the maximal trapezoids outlined.

    Necklace trapezoids alternate fill colors inward; each maximal
    trapezoid (one per rotation slot per continued-fraction quotient) gets
    a heavy outline, so its stripe count is the visible quotient.
    """
    if not isinstance(aspect, Fraction) or not 0 < aspect <= 1:
        raise DomainError(f"aspect must be a Fraction in (0, 1], got {aspect}")
    flower = empty_flower(aspect)
    polys = []
    for necklace_, color in flower:
        for t in necklace_.trapezoids:
            pts = [(_v.a, _v.b) for _v in t.vertices()]
            polys.append((pts, _FILL[color]))

    # maximal trapezoids: runs of nested levels, one outline per slot
    outlines = []
    for lo, hi in _maximal_runs([n for n, _ in flower]):
        outer = flower[lo][0]
        inner = flower[hi][0]
        for slot in range(6):
            p3, p4, _, _ = inner.trapezoids[slot].corners()
            _, _, p1, p2 = outer.trapezoids[slot].corners()
            outlines.append([(p3.a, p3.b), (p4.a, p4.b), (p1.a, p1.b), (p2.a, p2.b)])

    pts_flat = [p for poly, _ in polys for p in poly]
    xy = [_xy(x, y, scale) for x, y in pts_flat]
    pad = scale * 0.25
    x0 = min(p[0] for p in xy) - pad
    y0 = min(p[1] for p in xy) - pad
    w = max(p[0] for p in xy) - x0 + pad
    h = max(p[1] for p in xy) - y0 + pad

    def shift(pt):
        x, y = _xy(pt[0], pt[1], scale)
        return _fmt(x - x0) + "," + _fmt(y - y0)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">'
    ]
    out.append('<g stroke="#888888" stroke-width="0.5">')
    for poly, fill in polys:
        out.append(f'<polygon points="{" ".join(shift(p) for p in poly)}" fill="{fill}"/>')
    out.append("</g>")
    out.append('<g class="maximal" fill="none" stroke="#00AA00" stroke-width="2.5">')
    for poly in outlines:
        out.append(f'<polygon class="maximal-trapezoid" points="{" ".join(shift(p) for p in poly)}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
