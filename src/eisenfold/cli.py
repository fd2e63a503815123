"""Command-line workbench over the library.

Subcommands write JSON (or SVG) to stdout or --out.  Exit codes: 0 on
success, 1 on a domain error or a usage error, 2 when a budget ran out or a
limit came back undetermined.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import gcd

from . import jsonio
from .coloring import (
    color_balance,
    continued_fraction_coloring,
    fold_count,
    from_json_dict,
    is_good,
    to_json_dict,
)
from .eisenstein import DomainError, EisensteinInt
from .jsonio import decimal_float, decimal_int
from .limits import (
    DEFAULT_DEPTH_SCHEDULE,
    UndeterminedError,
    eta_limit_numeric,
    parse_zeta,
)
from .render import RenderSpec, render_flower_svg, render_svg
from .search import SearchBudget, ie_sweep, min_fold_search
from .surface import build_complex


def _parse_beta(text: str) -> EisensteinInt:
    try:
        a, b = (decimal_int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"beta must be 'a,b', got {text!r}") from exc
    return EisensteinInt(a, b)


def _parse_aspect(text: str) -> Fraction:
    try:
        p, q = (decimal_int(x) for x in text.split("/"))
    except ValueError as exc:
        raise DomainError(f"flower aspect must be 'p/q', got {text!r}") from exc
    if q < 1 or gcd(p, q) != 1:
        raise DomainError(f"flower aspect must be a reduced fraction p/q, got {text!r}")
    return Fraction(p, q)


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_build(args) -> int:
    c = build_complex(_parse_beta(args.beta))
    _emit(jsonio.dumps(c.to_json_dict()), args.out)
    return 0


def _cmd_color(args) -> int:
    beta = _parse_beta(args.beta)
    col = continued_fraction_coloring(beta)
    _emit(jsonio.dumps(to_json_dict(col)), args.out)
    return 0


def _read_coloring(path: str):
    return from_json_dict(jsonio.load(path))


def _cmd_validate(args) -> int:
    col = _read_coloring(args.infile)
    rep = is_good(col)
    black, white = color_balance(col)
    doc = {
        "schema": "validate.v1",
        "good": rep.good,
        "violations": list(rep.violations),
        "mod6": rep.mod6,
        "balance": {"black": black, "white": white},
        "fold_count": fold_count(col),
    }
    _emit(jsonio.dumps(doc), args.out)
    return 0


def _cmd_eta(args) -> int:
    if args.infile is not None:
        col = _read_coloring(args.infile)
    else:
        col = continued_fraction_coloring(_parse_beta(args.beta))
    f = fold_count(col)
    value = Fraction(f * f, col.complex.face_count)
    doc = {
        "schema": "eta.v1",
        "fold_count": f,
        "faces": col.complex.face_count,
        "eta": [jsonio.jint(value.numerator), jsonio.jint(value.denominator)],
    }
    _emit(jsonio.dumps(doc), args.out)
    return 0


def _parse_depths(text: str) -> tuple[tuple[int, int], ...]:
    schedule = []
    for rung in text.split(";"):
        try:
            d1, d2 = (decimal_int(x) for x in rung.split(","))
        except ValueError as exc:
            raise DomainError(f"depths must be rungs 'd1,d2' joined by ';', got {text!r}") from exc
        if d1 < 1 or d2 < 1:
            raise DomainError(f"depths must be positive, got rung {rung!r}")
        schedule.append((d1, d2))
    return tuple(schedule)


def _cmd_eta_limit(args) -> int:
    zeta = parse_zeta(args.zeta)
    schedule = DEFAULT_DEPTH_SCHEDULE if args.depths is None else _parse_depths(args.depths)
    base = {
        "schema": "eta-limit.v1",
        "zeta": args.zeta,
        "depth_schedule": [list(r) for r in schedule],
    }
    try:
        res = eta_limit_numeric(zeta, schedule)
    except UndeterminedError:
        base["status"] = "undetermined"
        _emit(jsonio.dumps(base), args.out)
        return 2
    approximants = [
        {"denominator_digits": d} for d in res.depths_used
    ]
    s = res.surd
    base.update(
        {
            "status": "ok",
            "approximants": approximants,
            "eta_surd": {
                "r": [jsonio.jint(s.r.numerator), jsonio.jint(s.r.denominator)],
                "s": [jsonio.jint(s.s.numerator), jsonio.jint(s.s.denominator)],
                "rad": s.d,
            },
            "preperiod": list(res.expansion.preperiod),
            "period": list(res.expansion.period),
            "value": float(s),
        }
    )
    _emit(jsonio.dumps(base), args.out)
    return 0


def _cmd_search(args) -> int:
    c = build_complex(_parse_beta(args.beta))
    rep = min_fold_search(
        c,
        mode=args.mode,
        budget=SearchBudget(args.max_nodes, args.max_seconds),
        threads=args.threads,
        checkpoint_out=args.checkpoint_out,
        resume=args.resume,
    )
    _emit(jsonio.dumps(rep.to_json_dict(include_timing=args.timing)), args.out)
    if args.mode == "exact" and rep.status != "ProvedOptimal":
        return 2
    return 0


def _cmd_sweep_ie(args) -> int:
    betas = [_parse_beta(chunk).pair() for chunk in args.betas.split(";")]
    rep = ie_sweep(betas, args.b_max)
    doc = {
        "schema": "ie-sweep.v1",
        "b_max": args.b_max,
        "baselines": {
            f"{a},{b}": [jsonio.jint(n), jsonio.jint(d)]
            for (a, b), (n, d) in sorted(rep.baselines)
        },
        "checked": rep.checked,
        "violations": [list(map(list, v)) for v in rep.violations],
    }
    _emit(jsonio.dumps(doc), args.out)
    return 0


def _cmd_render(args) -> int:
    if args.flower is not None:
        ignored = [flag for flag, on in (
            ("--domains", args.domains is not None),
            ("--bare", args.bare), ("--no-rhombus", args.no_rhombus), ("--no-folds", args.no_folds),
        ) if on]
        if ignored:
            raise DomainError(f"--flower draws no coloring; drop {', '.join(ignored)}")
        svg = render_flower_svg(_parse_aspect(args.flower), scale=args.scale)
    else:
        spec = RenderSpec(
            beta=_parse_beta(args.beta),
            domains=1 if args.domains is None else args.domains,
            show_rhombus=not args.no_rhombus,
            show_folds=not args.no_folds,
            scale=args.scale,
            colored=not args.bare,
        )
        svg = render_svg(spec)
    _emit(svg, args.out)
    return 0


def _cmd_selftest(args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, None))
        except Exception as exc:  # a failing check is reported, not raised
            checks.append((name, f"{type(exc).__name__}: {exc}"))

    def fib_rows():
        for beta, f, F in [((1, 2), 13, 14), ((2, 3), 23, 38), ((3, 5), 39, 98)]:
            col = continued_fraction_coloring(EisensteinInt(*beta))
            assert col.complex.face_count == F and fold_count(col) == f
            assert is_good(col).good

    def golden_limit():
        res = eta_limit_numeric(parse_zeta("golden"), ((40, 60),))
        assert (res.surd.r, res.surd.s, res.surd.d) == (9, 4, 5)

    def render_2_3():
        svg = render_svg(RenderSpec(beta=EisensteinInt(2, 3)))
        assert svg.count('class="fold"') == 3 * 23
        assert svg.count("<polygon points") == 114

    def tiny_search():
        rep = min_fold_search(build_complex(EisensteinInt(1, 2)), mode="exact")
        assert rep.best_fold == 13 and rep.status == "ProvedOptimal"

    check("fibonacci-table", fib_rows)
    check("golden-eta-limit", golden_limit)
    check("exact-search-1-2", tiny_search)
    check("render-2-3", render_2_3)
    for name, failure in checks:
        print(f"PASS {name}" if failure is None else f"FAIL {name}: {failure}")
    return 0 if all(failure is None for _, failure in checks) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are domain errors (exit 1, one
    line), not argparse's usage block and exit 2."""

    def error(self, message):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eisenfold",
        description="continued-fraction colorings of Eisenstein sphere triangulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a quotient triangulation (complex.v1)")
    p.add_argument("--beta", required=True, help="Eisenstein index 'a,b'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("color", help="continued-fraction coloring (coloring.v1)")
    p.add_argument("--beta", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("validate", help="goodness report for a coloring.v1 file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("eta", help="exact isoperimetric ratio of a coloring")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile")
    group.add_argument("--beta")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("eta-limit", help="exact surd limit of eta along approximants")
    p.add_argument("--zeta", required=True, help="'golden' or 'sqrt:N'")
    p.add_argument("--depths", help="schedule like '40,60;150,200'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eta_limit)

    p = sub.add_parser("search", help="minimize fold count over good colorings")
    p.add_argument("--beta", required=True)
    p.add_argument("--mode", choices=("exact", "anytime"), default="exact")
    p.add_argument("--max-nodes", type=decimal_int)
    p.add_argument("--max-seconds", type=decimal_float)
    p.add_argument("--threads", type=decimal_int, default=1,
                   help="worker processes (exact mode)")
    p.add_argument("--checkpoint-out")
    p.add_argument("--resume")
    p.add_argument("--timing", action="store_true", help="include wall_time in JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("sweep-ie", help="eta order sweep against all primitive beta'")
    p.add_argument("--betas", required=True, help="baselines like '1,2;2,3;3,5'")
    p.add_argument("--b-max", type=decimal_int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep_ie)

    p = sub.add_parser("render", help="deterministic SVG of a coloring or flower")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta")
    group.add_argument("--flower", help="aspect 'p/q' for an empty-flower diagram")
    p.add_argument("--domains", type=decimal_int, help="fundamental domains per side (default 1)")
    p.add_argument("--no-rhombus", action="store_true")
    p.add_argument("--no-folds", action="store_true")
    p.add_argument("--bare", action="store_true", help="triangulation only, no coloring")
    p.add_argument("--scale", type=decimal_float, default=40.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("selftest", help="quick internal battery")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
