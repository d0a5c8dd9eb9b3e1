"""Command-line front end: five subcommands over the library, strict exit codes."""

from __future__ import annotations

import argparse
import sys

from .atlas import ATLAS_TABLE_FOR_GENUS, atlas_table, check_genera
from .classifier import cell_of, classify, classify_cells, search_cells
from .covers import enumerate_covers
from .compare import compare_atlas_with_reference, compare_with_reference
from .errors import InvalidInputError, IsopencilError
from .groups import make_group, parse_group
from .reference_tables import atlas_table_ids, family_reference, family_table_ids
from .render import (
    FORMATS,
    render_atlas_comparison,
    render_atlas_rows,
    render_covers,
    render_family_comparison,
    render_family_rows,
    render_invariants,
)
from .sandwich import invariants
from .specfile import load_sandwich

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as invalid input instead of killing the process."""

    def error(self, message: str):
        raise InvalidInputError(message)


def _parse_factors(text: str) -> tuple[int, ...]:
    return parse_group(text).factors


def _parse_groups(text: str):
    return "all" if text == "all" else [_parse_factors(text)]


def _parse_genus(text: str):
    if text == "any":
        return "any"
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"quotient genus must be an integer or 'any', got {text!r}")


def _parse_pg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InvalidInputError(f"section range must look like 3..8, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise InvalidInputError(f"section range must use integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isopencil", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    atlas = sub.add_parser("atlas", help="enumerate group actions for one curve genus")
    atlas.add_argument("--genus", type=int, required=True, choices=sorted(ATLAS_TABLE_FOR_GENUS))
    atlas.add_argument("--quotient-genus", type=int, default=None)
    atlas.add_argument("--format", choices=FORMATS, default="table")

    covers = sub.add_parser("covers", help="enumerate covers for one group and base")
    covers.add_argument("--group", type=_parse_factors, required=True)
    covers.add_argument("--base-genus", type=int, required=True)
    covers.add_argument("--genus", type=int, required=True)
    covers.add_argument("--format", choices=FORMATS, default="table")

    classify_cmd = sub.add_parser("classify", help="search for pencil-bearing surfaces")
    classify_cmd.add_argument("--genus-f", type=int, required=True, choices=(2, 3))
    classify_cmd.add_argument("--group", type=_parse_groups, required=True)
    classify_cmd.add_argument("--base-a", type=_parse_genus, default="any")
    classify_cmd.add_argument("--base-b", type=_parse_genus, default="any")
    classify_cmd.add_argument("--pg", type=_parse_pg, default=(3, 8))
    classify_cmd.add_argument("--compare", default=None, metavar="TABLE_ID")
    classify_cmd.add_argument("--format", choices=FORMATS, default="table")

    inv = sub.add_parser("invariants", help="compute invariants from a spec file")
    inv.add_argument("spec", help="path to a JSON cover-pair spec")
    inv.add_argument("--format", choices=FORMATS, default="table")

    comp = sub.add_parser("compare", help="recompute one reference table and diff it")
    comp.add_argument("table", help="reference table id")
    comp.add_argument("--pg", type=_parse_pg, default=(3, 8))
    comp.add_argument("--format", choices=FORMATS, default="table")
    return parser


def _run_atlas(args) -> str:
    if args.quotient_genus is not None:
        check_genera(args.genus, args.quotient_genus)
    rows = atlas_table(args.genus)
    if args.quotient_genus is not None:
        rows = [row for row in rows if row.quotient_genus == args.quotient_genus]
    return render_atlas_rows(rows, args.format)


def _run_covers(args) -> str:
    group = make_group(args.group)
    found = list(enumerate_covers(group, args.base_genus, genus=args.genus, up_to_aut=True))
    return render_covers(found, args.format)


def _run_classify(args) -> str:
    if args.compare is None:
        rows = classify(
            args.genus_f,
            groups=args.group,
            quotient_genus_a=args.base_a,
            quotient_genus_b=args.base_b,
            pg_range=args.pg,
        )
        return render_family_rows(rows, args.format)
    family_reference(args.compare)  # an unknown table id fails before the search
    cells = search_cells(args.genus_f, args.group, args.base_a, args.base_b)
    return _compare_families(cells, args.compare, args)


def _run_invariants(args) -> str:
    return render_invariants(invariants(load_sandwich(args.spec)), args.format)


def _run_compare(args) -> str:
    if args.table in atlas_table_ids():
        report = compare_atlas_with_reference(args.table)
        return render_atlas_comparison(report, args.format)
    if args.table not in family_table_ids():
        known = ", ".join(atlas_table_ids() + family_table_ids())
        raise InvalidInputError(f"unknown table {args.table!r}; known ids: {known}")
    cells = sorted(set(map(cell_of, family_reference(args.table))))
    return _compare_families(cells, args.table, args)


def _compare_families(cells: list, table: str, args) -> str:
    """Classify the cells in the order given, compare with one family table, render."""
    rows = classify_cells(cells, args.pg)
    report = compare_with_reference(rows, table, cells=set(cells))
    return render_family_comparison(report, args.format)


_RUNNERS = {
    "atlas": _run_atlas,
    "covers": _run_covers,
    "classify": _run_classify,
    "invariants": _run_invariants,
    "compare": _run_compare,
}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one subcommand, map errors to the exit contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        sys.stdout.write(_RUNNERS[args.subcommand](args))
    except IsopencilError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
