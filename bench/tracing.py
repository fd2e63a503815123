"""Spans around the library's cross-layer entry points, installed at run time.

Installing rebinds each entry point, wherever an eisenfold module holds it,
to a wrapper that times the call; uninstalling restores the originals.  No
file of the library changes.  A span's self time is its duration minus the
durations of the spans it encloses, so nested layers are not counted twice.
Spans opened in worker processes stay in those processes and are lost.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _paint_counts(args, result):
    """Candidate triangles paint_from_flower tests, from its regions' bounding boxes."""
    cf, c = args[0], args[1]
    tested = 0
    for kind, data, _ in cf.regions():
        if kind == "fill":
            tested += 1
            continue
        xs = [x for x, _ in data]
        ys = [y for _, y in data]
        tested += 2 * (max(xs) // 3 - min(xs) // 3 + 3) * (max(ys) // 3 - min(ys) // 3 + 3)
    return {"coloring.paint_hits": 3 * c.face_count, "coloring.paint_tested": tested}


# (module, attribute path, span name, counts taken from (args, result))
ENTRY_POINTS = (
    ("eisenfold.surface", "QuotientComplex._build", "surface.build_s",
     lambda args, result: {"surface.faces": args[0].face_count}),
    ("eisenfold.jsonio", "dumps", "jsonio.dumps_s", None),
    ("eisenfold.flower", "capped_flower", "flower.capped_s",
     lambda args, result: {"flower.necklaces": len(result.necklaces)}),
    ("eisenfold.flower", "cf_eta", "flower.cf_eta_s", None),
    ("eisenfold.coloring", "paint_from_flower", "coloring.paint_s", _paint_counts),
    ("eisenfold.coloring", "is_good", "coloring.goodness_s", None),
    ("eisenfold.coloring", "monochrome_regions", "coloring.regions_s",
     lambda args, result: {"coloring.regions": len(result)}),
    ("eisenfold.coloring", "vertex_four_coloring", "coloring.four_coloring_s", None),
    ("eisenfold.isoperimetric", "region_isoperimetric_check", "isoperimetric.check_self_s", None),
    ("eisenfold.render", "render_svg", "render.svg_s", None),
    ("eisenfold.search", "min_fold_search", "search.solve_s", None),
    ("eisenfold.search", "swappable_vertices", "search.swappable_s", None),
    ("eisenfold.search", "ie_sweep", "search.sweep_self_s", None),
    ("eisenfold.limits", "eta_limit_numeric", "limits.eta_limit_self_s", None),
    ("eisenfold.limits", "approximant", "limits.approximant_s", None),
    ("eisenfold.surd", "periodic_cf_of_surd", "surd.periodic_cf_s", None),
    ("eisenfold.surd", "surd_from_periodic_cf", "surd.reconstruct_s", None),
    ("eisenfold.eisenstein", "continued_fraction_euclid", "eisenstein.cf_euclid_s", None),
)


class Tracer:
    """Self time and counts per span name, summed while active."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._enabled = False
        self._open: list[float] = []  # time spent in child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self):
        self._enabled = True
        try:
            yield
        finally:
            self._enabled = False

    def take(self) -> dict[str, float]:
        """The self times summed since the last take, and start again."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            tracer._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter() - t0
                tracer.self_s[name] += total - tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += total
            if count is not None:
                t1 = perf_counter()
                tracer.counts.update(count(args, result))
                # counting is the tracer's cost, not the enclosing span's
                if tracer._open:
                    tracer._open[-1] += perf_counter() - t1
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eisenfold" or n.startswith("eisenfold."))]
        for module_name, path, name, count in ENTRY_POINTS:
            *owner_path, attr = path.split(".")
            owner = sys.modules[module_name]
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, count)
            holders = [(owner, attr)] + [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original and (m, key) != (owner, attr)
            ]
            for holder, key in holders:
                setattr(holder, key, wrapped)
                self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
