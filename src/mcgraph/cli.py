"""Command-line front end.

Subcommands: gen, product, mc, check, verify, report.  Results go to stdout
as single-line JSON unless --pretty is given.  Exit codes: 0 success, 1
certificate invalid, 2 usage or input error, 3 exact-search budget exhausted.
The environment variable MCGRAPH_BUDGET (a positive integer) overrides the
search-node cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io as gio
from .errors import InapplicableError
from .exact import DEFAULT_NODE_BUDGET, mc_exact
from .families import (
    FAMILIES,
    NetworkSpec,
    generate,
    proposition_report,
    report_to_csv,
    report_to_json_obj,
)
from .graph import Graph
from .mc import check_mc_coloring, mc_bounds_combined, theorem1_certificate
from .products import ProductKind, make_product
from .verification import SUITES

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budget() -> int:
    raw = os.environ.get("MCGRAPH_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"MCGRAPH_BUDGET must be an integer, got {raw!r}")
    if budget <= 0:
        raise ValueError(f"MCGRAPH_BUDGET must be positive, got {raw!r}")
    return budget


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _load(path: str) -> Graph:
    return gio.loads_graph(Path(path).read_text())


def cmd_gen(args: argparse.Namespace) -> int:
    spec = NetworkSpec(args.family, tuple(args.params))
    built = generate(spec)
    _emit(gio.dumps(gio.graph_to_obj(built), args.pretty), args.out)
    return EXIT_OK


def cmd_product(args: argparse.Namespace) -> int:
    kind = ProductKind.parse(args.kind)
    g = _load(args.file_a)
    h = _load(args.file_b)
    product = make_product(kind, g, h)
    _emit(gio.dumps(gio.graph_to_obj(product), args.pretty), args.out)
    return EXIT_OK


def cmd_mc(args: argparse.Namespace) -> int:
    g = _load(args.file)
    if args.mode == "bounds":
        interval = mc_bounds_combined(g)
        _emit(gio.dumps(interval.to_dict(), args.pretty), None)
        return EXIT_OK
    if args.mode == "certify":
        cert = theorem1_certificate(g)
        _emit(gio.dumps(cert.to_dict(), args.pretty), None)
        return EXIT_OK
    # exact
    result = mc_exact(g, max_nodes=_budget())
    _emit(gio.dumps(result.to_dict(), args.pretty), None)
    if args.stats:
        stats = result.stats.to_dict() if result.stats else None
        print(gio.dumps(stats), file=sys.stderr)
    if args.witness and result.witness is not None:
        Path(args.witness).write_text(
            gio.dumps(gio.coloring_to_obj(result.witness), args.pretty) + "\n"
        )
    return EXIT_BUDGET if result.method == "bounds-only" else EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.graph_file)
    coloring = gio.loads_coloring(g, Path(args.coloring_file).read_text())
    ok, violation = check_mc_coloring(g, coloring)
    if ok:
        print(f"VALID {coloring.color_count} colors")
        return EXIT_OK
    print(f"INVALID pair {violation}")
    return EXIT_INVALID


def cmd_verify(args: argparse.Namespace) -> int:
    suite_fn = SUITES[args.suite]
    if args.suite == "core":
        result = suite_fn(max_n=args.max_n or 6, seed=args.seed)
    elif args.suite == "products":
        result = suite_fn(max_vertices=args.max_n or 24)
    elif args.suite == "bounds":
        result = suite_fn(max_exact_vertices=args.max_n or 10)
    else:
        result = suite_fn()
    for line in result.summary_lines():
        print(line)
    total_pass = sum(result.passed.values())
    print(
        f"{result.name}: {total_pass} checks passed, "
        f"{len(result.failures)} failed, {len(result.findings)} findings"
    )
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_report(args: argparse.Namespace) -> int:
    rows = proposition_report()
    if args.format == "json":
        text = gio.dumps(report_to_json_obj(rows), args.pretty)
    else:
        text = report_to_csv(rows).rstrip("\n")
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgraph",
        description=(
            "Graph products, monochromatic connection numbers, bounds and "
            "network-family reports"
        ),
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a network-family instance")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.add_argument("-o", "--out", help="output path (default stdout)")
    p_gen.set_defaults(fn=cmd_gen)

    p_prod = sub.add_parser("product", help="build a product of two graph files")
    p_prod.add_argument("kind", help="cartesian | lexicographic (lex) | strong | direct")
    p_prod.add_argument("file_a")
    p_prod.add_argument("file_b")
    p_prod.add_argument("-o", "--out", help="output path (default stdout)")
    p_prod.set_defaults(fn=cmd_product)

    p_mc = sub.add_parser("mc", help="compute mc exactly, bound it, or certify it")
    p_mc.add_argument("mode", choices=["exact", "bounds", "certify"])
    p_mc.add_argument("file")
    p_mc.add_argument("--witness", help="write the witness coloring here")
    p_mc.add_argument(
        "--stats",
        action="store_true",
        help="exact mode: write the search counters to stderr as one JSON line",
    )
    p_mc.set_defaults(fn=cmd_mc)

    p_check = sub.add_parser("check", help="validate a coloring certificate")
    p_check.add_argument("graph_file")
    p_check.add_argument("coloring_file")
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="run a cross-checking suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--max-n", type=int, dest="max_n")
    p_verify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the core suite's random samples (the other suites draw none)",
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="emit the proposition report")
    p_report.add_argument("--format", choices=["csv", "json"], default="csv")
    p_report.add_argument("-o", "--out", help="output path (default stdout)")
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InapplicableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
