"""Command-line front end.

Exit codes: 0 success, 1 usage or I/O error or malformed input, 2
verification failure (a computed value disagrees with a recorded
expectation, or embed finds no host subset).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fixtures as fx
from .degeneration import (
    NoIndependentSubset,
    VerificationFailed,
    embed_value_semigroup,
    family_ideal,
    fiber,
    projection_limit,
    valuation_pipeline,
)
from .groebner import Ideal, buchberger, initial_ideal
from .ioformats import (
    ideal_to_json,
    ideal_to_text,
    read_ideal,
    read_matrix,
    semigroup_to_json,
)
from .momentmap import emit_svg, image_vs_polytope, sample_moment_image
from .polycore import (
    DegreeOverflow,
    Lex,
    WeightOrder,
    _degrevlex,
    to_min,
)
from .toric import PolytopeQ, hull_vertices, toric_ideal


def _parse_ints(text: str):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _print_ideal(I: Ideal, as_json: bool):
    if as_json:
        print(json.dumps(ideal_to_json(I), sort_keys=True))
    else:
        sys.stdout.write(ideal_to_text(I))


def _order_from_flags(args, nvars: int):
    if args.w is not None and args.order != "weight":
        raise SystemExit2("--w requires --order weight")
    if args.order == "degrevlex":
        return _degrevlex(nvars)
    if args.order == "lex":
        return Lex(tuple(range(nvars)))
    if not args.w:
        raise SystemExit2("--order weight requires --w")
    return WeightOrder(to_min([_parse_ints(args.w)], args.convention))


class SystemExit2(Exception):
    """Usage error carrying the synopsis line."""


def cmd_gb(args) -> int:
    I = read_ideal(args.infile)
    order = _order_from_flags(args, len(I.vars))
    G = buchberger(I, order)
    out = Ideal(G.elements, I.vars)
    print(f"{len(G.elements)} generators")
    _print_ideal(out, args.json)
    return 0


def cmd_initial(args) -> int:
    I = read_ideal(args.infile)
    if args.matrix is not None:
        rows = read_matrix(args.matrix).rows_list()
    else:
        rows = [_parse_ints(args.w)]
    _print_ideal(initial_ideal(I, to_min(rows, args.convention)), args.json)
    return 0


def cmd_toric(args) -> int:
    M = read_matrix(args.matrix)
    names = [n.strip() for n in args.names.split(",")]
    out = toric_ideal(M, names)
    _print_ideal(out, args.json)
    return 0


def cmd_family(args) -> int:
    I = read_ideal(args.infile)
    F = family_ideal(I, _parse_ints(args.w), args.convention)
    out = Ideal(F.gens, F.vars)
    _print_ideal(out, args.json)
    return 0


def cmd_fiber(args) -> int:
    I = read_ideal(args.infile)
    F = family_ideal(I, _parse_ints(args.w), args.convention)
    try:
        t0 = Fraction(args.t0)
    except ZeroDivisionError:
        raise ValueError(f"--t0 {args.t0} divides by zero") from None
    out = fiber(F, t0)
    _print_ideal(out, args.json)
    return 0


def _pipeline_json(rep) -> dict:
    return {
        "w": list(rep.w),
        "convention": rep.convention,
        "flipped": rep.flipped,
        "weight_min": list(rep.weight_min),
        "init": ideal_to_json(rep.init),
        "semigroup": semigroup_to_json(rep.semigroup) if rep.semigroup else None,
        "toric": ideal_to_json(rep.toric),
        "binomial_prime": rep.binomial_prime,
    }


def cmd_pipeline(args) -> int:
    I = read_ideal(args.infile)
    M = read_matrix(args.matrix)
    rep = valuation_pipeline(I, M, args.convention)
    print(json.dumps(_pipeline_json(rep), sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    I = read_ideal(args.infile)
    M = read_matrix(args.matrix)
    rep = embed_value_semigroup(I, M, args.convention,
                                degree_bound=args.degree_bound)
    out = {
        "independent_vars": list(rep.independent_vars),
        "hosts": list(rep.hosts),
        "N": rep.N,
        "images": {lab: list(e) for lab, e in rep.images.items()},
        "kernel": ideal_to_json(rep.kernel_check),
        "dims_checked": [list(t) for t in rep.dims_checked],
        "finiteness_certified": rep.finiteness_certified,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_project(args) -> int:
    I = read_ideal(args.infile)
    keep = [v.strip() for v in args.keep.split(",")]
    rep = projection_limit(I, keep)
    out = {
        "kept": list(rep.kept),
        "dropped": list(rep.dropped),
        "w": list(rep.w),
        "limit": ideal_to_json(rep.limit),
        "cone_part": ideal_to_json(rep.cone_part),
        "closure": ideal_to_json(rep.closure),
        "scheme_check": rep.scheme_check,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _frac_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cmd_moment(args) -> int:
    M = read_matrix(args.matrix)
    proj = tuple(_parse_ints(args.project)) if args.project else (0, min(1, M.rows - 1))
    if len(proj) != 2 or not all(0 <= k < M.rows for k in proj):
        raise ValueError(f"--project needs two coordinate indices in 0..{M.rows - 1}")
    samples = sample_moment_image(M, args.samples, args.seed)
    P = PolytopeQ(hull_vertices(M.columns()), M.rows)
    stats = image_vs_polytope(samples, P, args.eps)
    if args.svg:
        emit_svg(samples, P, proj, args.svg)
    out = {
        "samples": [list(s.value) for s in samples],
        "polytope": {"vertices": [[_frac_json(x) for x in v] for v in P.vertices]},
        "stats": stats,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_fixtures(args) -> int:
    names = list(fx.FIXTURE_NAMES) if args.name == "all" else [args.name]
    failed = False
    reports = []
    for name in names:
        rep = fx.run_fixture(name)
        reports.append(rep)
        for c in rep.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {name}:{c.name} [{c.source}]")
            if not c.passed:
                failed = True
                print(f"    expected: {c.expected}")
                print(f"    computed: {c.computed}")
    if args.json:
        payload = [{
            "fixture": r.fixture,
            "passed": r.passed,
            "checks": [{"name": c.name, "passed": c.passed, "source": c.source,
                        "expected": c.expected, "computed": c.computed}
                       for c in r.checks],
        } for r in reports]
        print(json.dumps(payload, sort_keys=True))
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toricdeg",
        description="exact toric degenerations: initial ideals, families, "
                    "toric ideals, embeddings, projections, moment images")
    sub = p.add_subparsers(dest="command", required=True)

    w_help = "comma-separated weight vector"

    def common(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--in", dest="infile", required=True, help="ideal file")
        sp.add_argument("--convention", choices=["min", "max"], default="min")
        sp.add_argument("--json", action="store_true")
        return sp

    sp = common("gb", "reduced Groebner basis")
    sp.add_argument("--w", help=w_help + "; requires --order weight")
    sp.add_argument("--order", choices=["lex", "degrevlex", "weight"], default="degrevlex")
    group = common("initial", "initial ideal for a weight or matrix") \
        .add_mutually_exclusive_group(required=True)
    group.add_argument("--w", help=w_help)
    group.add_argument("--matrix", help="matrix JSON file")

    sp = sub.add_parser("toric", help="toric ideal of an integer matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--names", required=True, help="comma-separated variable names")
    sp.add_argument("--json", action="store_true")

    common("family", "one-parameter degeneration family").add_argument(
        "--w", required=True, help=w_help)
    sp = common("fiber", "fiber of the family at t0")
    sp.add_argument("--w", required=True, help=w_help)
    sp.add_argument("--t0", default="0")

    def ideal_and_matrix(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--in", dest="infile", required=True, help="ideal file")
        sp.add_argument("--matrix", required=True, help="matrix JSON file")
        sp.add_argument("--convention", choices=["min", "max"], default="min")
        return sp

    for name in ("pipeline", "degenerate"):
        ideal_and_matrix(name, "valuation-matrix verification pipeline")
    sp = ideal_and_matrix("embed", "value-semigroup embedding report")
    sp.add_argument("--degree-bound", type=int, default=5)

    sp = sub.add_parser("project", help="degeneration-by-projection report")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--keep", required=True, help="comma-separated kept variables")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("moment", help="sample the moment image of a weight matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--svg", help="write an SVG scatter to this path")
    sp.add_argument("--project", help="two comma-separated coordinate indices")
    sp.add_argument("--eps", type=float, default=1e-9)

    sp = sub.add_parser("fixtures", help="run the bundled worked examples")
    fsub = sp.add_subparsers(dest="fixtures_command", required=True)
    rp = fsub.add_parser("run")
    rp.add_argument("name", help="fixture name or 'all'")
    rp.add_argument("--json", action="store_true")
    return p


_HANDLERS = {
    "gb": cmd_gb,
    "initial": cmd_initial,
    "toric": cmd_toric,
    "family": cmd_family,
    "fiber": cmd_fiber,
    "pipeline": cmd_pipeline,
    "degenerate": cmd_pipeline,
    "embed": cmd_embed,
    "project": cmd_project,
    "moment": cmd_moment,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except SystemExit2 as e:
        print(f"usage error: {e}", file=sys.stderr)
        print(f"synopsis: toricdeg {args.command} --help", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError, DegreeOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (VerificationFailed, NoIndependentSubset) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
