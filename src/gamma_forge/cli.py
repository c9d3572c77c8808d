"""Command-line front end.

Commands: verify (per-theorem suites on one group), survey (conjecture scan
over the builtin catalog or a table directory), convert (between the group
and the two loop forms), export and import (.tbl files).

Exit codes: 0 all verdicts consistent with predicted outcomes, 1 a verdict
contradicts a prediction, every selected check was skipped, or a survey row
is flagged, 2 usage or cap errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tableio
from .catalog import run_survey
from .checks import run_checks
from .constructions import bruck_from_gamma, circ_loop, gamma_from_bruck, oplus_loop
from .core import CayleyTable, GammaForgeError, table_cap
from .groups import construct, is_uniquely_2_divisible
from .loops import Loop
from .report import survey_to_json, survey_to_text


def _spec(token: str) -> str:
    """The group spec a command argument names: an existing path is file:PATH."""
    return f"file:{token}" if Path(token).exists() else token


def _load_loop(token: str) -> Loop:
    token = _spec(token)
    if token.startswith("file:"):
        return Loop(tableio.import_table(token[len("file:"):]).table)
    return construct(token)


def cmd_verify(args) -> int:
    g = construct(_spec(args.spec))
    if not is_uniquely_2_divisible(g):
        print(f"error: {args.spec} is not uniquely 2-divisible "
              f"(order {g.order})", file=sys.stderr)
        return 2
    selected = None
    if args.checks and args.checks != "all":
        selected = [c.strip() for c in args.checks.split(",")]
    report = run_checks(g, selected=selected, force_exhaustive=args.exhaustive,
                        env={"seed": args.seed, "table_cap": table_cap()})
    print(report.to_json() if args.format == "json" else report.to_text(), end="")
    return 0 if report.consistent else 1


def _parse_orders(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise GammaForgeError(f"bad --orders value {text!r}, expected A..B")
    if lo > hi:
        raise GammaForgeError(f"bad --orders value {text!r}, A must not exceed B")
    return lo, hi


def cmd_survey(args) -> int:
    lo, hi = _parse_orders(args.orders)
    rows, summary = run_survey(lo, hi, source_dir=args.source)
    out = survey_to_json(rows, summary) if args.format == "json" \
        else survey_to_text(rows, summary)
    print(out, end="")
    return 1 if summary["counterexample-flags"] else 0


def cmd_convert(args) -> int:
    direction = args.direction
    if direction in ("circ", "oplus"):
        g = construct(_spec(args.input))
        q = circ_loop(g) if direction == "circ" else oplus_loop(g)
    elif direction in ("gamma-to-bruck", "bruck-to-gamma"):  # the translated table, validated as a Loop
        p, name = _load_loop(args.input), direction.split("-")[-1]
        translated = (bruck_from_gamma if name == "bruck" else gamma_from_bruck)(p)
        q = Loop(CayleyTable(translated, name=f"{name}({p.name})", element_names=p.table.element_names))
    else:
        raise GammaForgeError(f"unknown direction {direction!r}")
    comments = [f"source: {args.input}, construction: {direction}"]
    tableio.export_table(q.table, args.out, extra_comments=comments)
    print(f"wrote {args.out} (order {q.n})")
    return 0


def cmd_export(args) -> int:
    g = construct(_spec(args.spec))
    tableio.export_table(g.table, args.out)
    print(f"wrote {args.out} (order {g.order})")
    return 0


def cmd_import(args) -> int:
    res = tableio.import_table(args.path)
    t = res.table
    cls = t.classification
    print(f"imported {args.path}: n={t.n}")
    if res.relabeling is not None:
        print(f"identity relabeled to index 0 (relabeling {res.relabeling})")
    print(f"latin={cls.is_latin} loop={cls.is_loop}"
          + (f" witness={cls.witness}" if cls.witness else ""))
    if cls.is_loop:
        q = Loop(t)
        assoc, w = q.is_associative()
        if assoc:
            print("associative: the table is a group")
        else:
            print(f"not associative, witness ({q.label(w[0])},{q.label(w[1])},{q.label(w[2])})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-forge",
        description="construct commutative loops from odd-order groups and "
                    "verify their structure exhaustively")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run per-theorem suites on one group")
    p.add_argument("spec", help="group spec, e.g. sd:7:3:2 or file:PATH")
    p.add_argument("--checks", default="all", help="comma-separated check ids or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0, help="ignored: no check samples")
    p.add_argument("--exhaustive", action="store_true",
                   help="run the correspondence roundtrip above order 250 too")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("survey", help="scan the catalog for conjecture counterexamples")
    p.add_argument("--orders", default="3..81", help="order range A..B")
    p.add_argument("--source", default=None, help="directory of .tbl files instead of builtins")
    p.add_argument("--seed", type=int, default=0, help="ignored: every survey column is exhaustive")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("convert", help="convert between group and loop forms")
    p.add_argument("input", help="group spec or .tbl path")
    p.add_argument("--direction", required=True,
                   choices=("circ", "oplus", "gamma-to-bruck", "bruck-to-gamma"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("export", help="write a group table to a .tbl file")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="read and classify a .tbl file")
    p.add_argument("path")
    p.set_defaults(func=cmd_import)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GammaForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
