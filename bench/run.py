"""Benchmark of the eisenfold workbench.

Run from the repository root:

    python3 bench/run.py --workload golden --seed 1 --seconds 26 --trace 0

Workloads (inputs come from the seed alone; see workloads.py):

  golden  build, color, certify and render near-golden beta, F 1.8k-32k
  thin    the same commands on beta with a in {1,2,3}, F matched to golden
  search  exact search at 1 and 2 workers, an anytime run, a star-swap walk
  limits  eta limits of golden and a seeded sqrt:N block, and an ie_sweep

The test suite's wall time is not measured: it is a test suite, not user
traffic.

A run first times set-up: a fresh interpreter imports the library and makes
the inputs, SETUP_REPEATS times.  It then repeats passes over the workload's
commands, starting another only while it fits in what is left of --seconds
(at least one); set-up counts against --seconds too.  The search workload's
2-worker searches feed only per-layer metrics, so they run only with
--trace 1: once, after the first pass, within --seconds and outside pass_s
(see workloads.py).  With --trace 0 every pass is untraced and
the run reports the end-to-end metrics.  With --trace 1 untraced and traced
passes alternate; the traced ones give each layer's self time and counts,
and the ratio of the two pass times is the tracing overhead.  Times are
nominal seconds (see calibrate.py); the report lines give wall seconds too.
Every op's output is checked; a failed check counts in "failed".  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("golden", "thin", "search", "limits")
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run.  The command figures at the end are
# end-to-end quantities of one workload each; they travel here, unbounded,
# because every bounded metric must exist on every workload.
PER_LAYER = {
    "surface.build_s": "s",
    "surface.faces": "count",
    "jsonio.dumps_s": "s",
    "flower.capped_s": "s",
    "flower.necklaces": "count",
    "flower.cf_eta_s": "s",
    "coloring.paint_s": "s",
    "coloring.paint_hit_ratio": "ratio",
    "coloring.goodness_s": "s",
    "coloring.regions_s": "s",
    "coloring.regions": "count",
    "coloring.four_coloring_s": "s",
    "isoperimetric.check_self_s": "s",
    "render.svg_s": "s",
    "search.solve_s": "s",
    "search.swappable_s": "s",
    "search.sweep_self_s": "s",
    "search.exact_nodes": "count",
    "search.exact_nodes_per_s": "1/s",
    "search.exact_nodes_2w": "count",
    "search.parallel_node_ratio": "ratio",
    "search.anytime_nodes": "count",
    "search.anytime_best_fold": "count",
    "search.star_swaps_per_s": "1/s",
    "search.sweep_pairs": "count",
    "limits.eta_limit_self_s": "s",
    "limits.approximant_s": "s",
    "limits.rungs": "count",
    "surd.periodic_cf_s": "s",
    "surd.reconstruct_s": "s",
    "eisenstein.cf_euclid_s": "s",
    "trace.overhead_ratio": "ratio",
    "build_faces_per_s": "faces/s",
    "color_faces_per_s": "faces/s",
    "certify_faces_per_s": "faces/s",
    "render_faces_per_s": "faces/s",
    "exact_solve_s": "s",
    "exact_solve_2w_s": "s",
    "anytime_s": "s",
    "eta_limit_s": "s",
    "sweep_pairs_per_s": "pairs/s",
    "limits_determined": "count",
    "fail_frac": "ratio",
}


def measure_setup(name: str, seed: int) -> list[float]:
    """Nominal seconds a fresh interpreter takes to import the library and make the inputs."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import calibrate\n"
        "before = calibrate.reference_s()\n"
        "t0 = time.perf_counter()\n"
        "import workloads\n"
        f"workloads.make_inputs({name!r}, {seed})\n"
        "wall = time.perf_counter() - t0\n"
        "print(wall * calibrate.scale(before, calibrate.reference_s()))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return times


def header(name: str, seed: int, seconds: int, trace: int, workloads) -> list[str]:
    lines = [
        f"# eisenfold benchmark: workload {name}, seed {seed}, seconds {seconds}, trace {trace}",
        f"# python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {os.cpu_count()}, {platform.platform()}",
    ]
    for w in WORKLOADS:
        mark = "*" if w == name else " "
        lines.append(f"# {mark} {w}: {workloads.describe(w, workloads.make_inputs(w, seed))}")
        lines.append(f"#     why: {workloads.WHY[w]}")
    lines.append("# the test suite's wall time is not measured: it is a test suite, not user traffic")
    return lines


def run(name: str, seed: int, deadline: float, trace: bool):
    """Untraced passes, alternating with traced ones when tracing, until the deadline.

    Returns the untraced passes, (pass, span counts) of the traced ones,
    and, when tracing, the workload's parallel figures, whose ops run once
    after the first pass, the one they are checked against.
    """
    import tracing
    import workloads

    inputs = workloads.make_inputs(name, seed)
    run_pass = workloads.PASSES[name][0]

    def one_pass(tracer=None):
        gc.collect()
        p = workloads.Pass(tracer)
        if tracer is not None:
            tracer.install()
        try:
            run_pass(p, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return p

    plain, traced, par = [], [], None
    while True:
        t0 = perf_counter()
        plain.append(one_pass())
        if trace:
            tracer = tracing.Tracer()
            traced.append((one_pass(tracer), tracer.counts))
        took = perf_counter() - t0
        if trace and par is None and name in workloads.PARALLEL:
            par = workloads.Pass()
            workloads.PARALLEL[name][0](par, inputs, plain[0])
        if perf_counter() + took > deadline:
            break
    if par is None:
        return plain, traced, None, {}
    return plain, traced, par, workloads.PARALLEL[name][1](par, plain[0])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def median_figures(plain, figures) -> dict:
    """The workload's command figures, each the median over the untraced passes."""
    rows = [figures(p) for p in plain]
    return {k: median([row[k] for row in rows]) for k in rows[0]}


def layer_metrics(plain, traced, figures) -> dict:
    """Every per-layer metric; zero where the workload does not reach the layer."""
    layer = {k: 0.0 for k in PER_LAYER}
    layer.update(median_figures(plain, figures))
    for key in {k for p, _ in traced for k in p.layer_s}:
        layer[key] = median([p.layer_s[key] for p, _ in traced])
    for key in ("surface.faces", "flower.necklaces", "coloring.regions"):
        layer[key] = median([c[key] for _, c in traced])
    hits = sum(c["coloring.paint_hits"] for _, c in traced)
    tested = sum(c["coloring.paint_tested"] for _, c in traced)
    layer["coloring.paint_hit_ratio"] = hits / tested if tested else 0.0
    layer["trace.overhead_ratio"] = (median([p.total_s for p, _ in traced])
                                     / median([p.total_s for p in plain]))
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + args.seconds
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "eisenfold", "__init__.py")):
        print(f"bench: no eisenfold sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # The library caps its workers by this variable; the 2-worker ops need 2.
    os.environ.pop("EISENFOLD_THREADS", None)
    sys.path.insert(0, HERE)

    import workloads

    print("\n".join(header(args.workload, args.seed, args.seconds, args.trace, workloads)))
    setup = measure_setup(args.workload, args.seed)
    plain, traced, par, par_figures = run(args.workload, args.seed, deadline,
                                          bool(args.trace))
    figures = workloads.PASSES[args.workload][1]
    everything = plain + [p for p, _ in traced] + ([par] if par else [])
    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]

    labelled = [(f"pass {i}", p) for i, p in enumerate(plain)]
    if par:
        labelled.append(("parallel", par))
    for label, p in labelled:
        print(f"# {label}: {p.total_s:.4f} s nominal, {p.wall_s:.4f} s wall; " + ", ".join(
            f"{c} {s:.4f}/{p.wall[c]:.4f} s" for c, s in sorted(p.seconds.items())))
    for f in failures[:20]:
        print(f"# FAILED {f}")

    end_to_end = {
        "setup_s": median(setup),
        "pass_s": median([p.total_s for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {len(plain)} untraced and {len(traced)} traced passes; setup samples "
          + ", ".join(f"{s:.4f}" for s in setup))
    print(f"# fail_frac {len(failures) / attempted} ratio ({len(failures)} of {attempted} ops)")
    for key, value in end_to_end.items():
        print(f"# {key} {value} {END_TO_END[key]}")
    if args.trace:
        values, units = layer_metrics(plain, traced, figures), PER_LAYER
        values.update(par_figures)
        values["fail_frac"] = len(failures) / attempted
    else:
        values, units = end_to_end, END_TO_END
        for key, value in sorted({**median_figures(plain, figures), **par_figures}.items()):
            print(f"# {key} {value} {PER_LAYER[key]}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    if args.trace:
        for key, m in metrics.items():
            print(f"# {key} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
