"""Field-wise matching of computed rows against the embedded reference tables."""

from __future__ import annotations

from .atlas import atlas_table, reference_keys, row_key
from .classifier import FamilyRow, cell_of
from .errors import InvalidInputError
from .linear import LinearForm
from .record import Record
from .reference_tables import (
    atlas_reference,
    atlas_table_ids,
    family_reference,
    family_table_ids,
)

__all__ = [
    "Cell",
    "Discrepancy",
    "MatchedRow",
    "MissingRow",
    "ExtraRow",
    "ComparisonReport",
    "AtlasComparison",
    "compare_with_reference",
    "compare_atlas_with_reference",
]

Cell = tuple[tuple[int, ...], int, int, int]

COMPARED_FIELDS = ("p_g", "g_D", "K2", "t_z")


class Discrepancy(Record):
    """One field where a matched row disagrees with its reference row.

    The reference form is restated in the computed parameter, so equal slopes
    give an integer offset; a None delta marks a shape mismatch.
    """

    __slots__ = ("table", "index", "field", "reference", "computed", "delta")


class MatchedRow(Record):
    """A reference row paired with a computed family, exact or not."""

    __slots__ = ("table", "index", "cell", "shift", "discrepancies", "shared")
    _defaults = {"shared": False}

    @property
    def exact(self) -> bool:
        return not self.discrepancies


class MissingRow(Record):
    """A reference row inside the searched cells with no computed counterpart."""

    __slots__ = ("table", "index", "cell", "note")


class ExtraRow(Record):
    """A computed family in a searched cell that matches no reference row.

    forms holds (column name, LinearForm) pairs in name order.
    """

    __slots__ = ("cell", "kind", "forms", "pg_lo", "pg_hi", "count")


class ComparisonReport(Record):
    """Everything one table comparison produced, in reference-row order."""

    __slots__ = ("table", "matched", "missing", "extra", "skipped")
    _defaults = {"skipped": 0}

    @property
    def discrepancies(self) -> tuple[Discrepancy, ...]:
        return tuple(d for row in self.matched for d in row.discrepancies)

    @property
    def exact(self) -> bool:
        return not (self.discrepancies or self.missing or self.extra)


class _Group(Record):
    """Computed rows sharing one cell and one printed set of column forms."""

    __slots__ = ("cell", "forms", "kind", "pg_lo", "pg_hi", "count")


def _form_groups(rows: list[FamilyRow]) -> list[_Group]:
    buckets: dict[tuple, list[FamilyRow]] = {}
    for row in rows:
        key = (cell_of(row), row.kind, tuple(sorted(row.forms.items())))
        buckets.setdefault(key, []).append(row)
    return [
        _Group(cell, dict(forms), kind, min(r.pg_lo for r in same), max(r.pg_hi for r in same), len(same))
        for (cell, kind, forms), same in sorted(buckets.items())
    ]


def _anchor(group: _Group, ref) -> int | None:
    """Parameter offset aligning the reference g(D) column with the computed one."""
    ref_gd = ref.forms.get("g_D")
    eng_gd = group.forms.get("g_D")
    if ref_gd is None or eng_gd is None:
        return None
    if ref_gd.slope != eng_gd.slope:
        return None
    if ref_gd.slope == 0:
        return 0 if ref_gd.intercept == eng_gd.intercept else None
    gap = eng_gd.intercept - ref_gd.intercept
    if gap % ref_gd.slope:
        return None
    return gap // ref_gd.slope


def _field_records(table: str, ref, group: _Group, shift: int) -> tuple[Discrepancy, ...]:
    records = []
    for name in COMPARED_FIELDS:
        if name not in ref.forms or name not in group.forms:
            continue
        expected = ref.forms[name].shift(shift)
        got = group.forms[name]
        if got == expected:
            continue
        delta = got.intercept - expected.intercept if got.slope == expected.slope else None
        records.append(Discrepancy(table, ref.index, name, expected, got, delta))
    return tuple(records)


def _mismatch_weight(records: tuple[Discrepancy, ...]) -> tuple[int, int]:
    shape = sum(1 for d in records if d.delta is None)
    offset = sum(abs(d.delta) for d in records if d.delta is not None)
    return (shape, len(records) * 1000 + offset)


def _group_sort_key(group: _Group):
    return (group.cell, sorted(group.forms.items()))


def compare_with_reference(
    rows: list[FamilyRow], table_id: str, *, cells: set[Cell] | None = None
) -> ComparisonReport:
    """Match computed family rows against one reference table, field by field.

    Exact agreements stay silent; every divergence surfaces as a discrepancy,
    missing-row, or extra-row record. Reference rows outside the searched cells
    are skipped, not reported missing; by default the searched cells are read
    off the rows themselves, and callers that searched more ground than they
    found pass the full cell set explicitly.
    """
    if table_id not in family_table_ids():
        known = ", ".join(family_table_ids())
        raise InvalidInputError(f"unknown family table {table_id!r}; known ids: {known}")
    reference = family_reference(table_id)
    if cells is None:
        cells = {cell_of(row) for row in rows}
    in_scope = [ref for ref in reference if cell_of(ref) in cells]
    skipped = len(reference) - len(in_scope)

    groups = _form_groups(rows)
    families = [g for g in groups if g.kind == "family"]
    consumed: set[int] = set()
    outcome: dict[int, MatchedRow] = {}

    def closest(ref, pool, exact_only):
        """The (pos, shift, records) of ref's least mismatched family in pool, or None."""
        found = []
        for pos in pool:
            group = families[pos]
            if group.cell != cell_of(ref):
                continue
            shift = _anchor(group, ref)
            if shift is None:
                continue
            records = _field_records(table_id, ref, group, shift)
            if not (exact_only and records):
                found.append((pos, shift, records))
        return min(
            found,
            key=lambda c: (_mismatch_weight(c[2]), _group_sort_key(families[c[0]])),
            default=None,
        )

    # Pass 1 takes only perfect matches, pass 2 settles the remaining rows on
    # the closest available family, pass 3 lets a reference row repeat an
    # already-taken family verbatim rather than report a spurious miss.
    remaining = list(range(len(families)))
    for exact_only in (True, False):
        for ref in in_scope:
            if ref.index in outcome:
                continue
            best = closest(ref, remaining, exact_only)
            if best is None:
                continue
            pos, shift, records = best
            outcome[ref.index] = MatchedRow(table_id, ref.index, cell_of(ref), shift, records)
            remaining.remove(pos)
            consumed.add(pos)
    for ref in in_scope:
        if ref.index in outcome:
            continue
        best = closest(ref, sorted(consumed), True)
        if best is not None:
            _, shift, records = best
            outcome[ref.index] = MatchedRow(
                table_id, ref.index, cell_of(ref), shift, records, shared=True
            )

    matched = tuple(outcome[ref.index] for ref in in_scope if ref.index in outcome)
    missing = tuple(
        MissingRow(table_id, ref.index, cell_of(ref), _miss_note(ref, families))
        for ref in in_scope
        if ref.index not in outcome
    )
    leftover = [g for i, g in enumerate(families) if i not in consumed]
    leftover += [g for g in groups if g.kind != "family"]
    extra = tuple(
        ExtraRow(g.cell, g.kind, tuple(sorted(g.forms.items())), g.pg_lo, g.pg_hi, g.count)
        for g in leftover
    )
    return ComparisonReport(table_id, matched, missing, extra, skipped)


def _miss_note(ref, families: list[_Group]) -> str:
    gd = ref.forms.get("g_D")
    same_cell = [g for g in families if g.cell == cell_of(ref)]
    if not same_cell:
        return "no computed family in this cell"
    if gd is not None:
        slopes = sorted({g.forms["g_D"].slope for g in same_cell})
        if gd.slope not in slopes:
            return f"no computed family grows g(D) at rate {gd.slope}"
        residues = sorted(
            {g.forms["g_D"].intercept % gd.slope for g in same_cell if g.forms["g_D"].slope == gd.slope}
        )
        want = gd.intercept % gd.slope
        if want not in residues:
            others = ", ".join(str(r) for r in residues)
            return (
                f"g(D) intercept sits at {want} mod {gd.slope}; "
                f"computed families only reach {others}"
            )
    return "no computed family aligns with this row's g(D) column"


class AtlasComparison(Record):
    """Action-table comparison: matched and missing reference rows, extras kept."""

    __slots__ = ("table", "genus", "matched", "missing", "extra_count")

    @property
    def exact(self) -> bool:
        return not self.missing


def compare_atlas_with_reference(table_id: str) -> AtlasComparison:
    """Check one action table against the full enumeration for its genus."""
    if table_id not in atlas_table_ids():
        known = ", ".join(atlas_table_ids())
        raise InvalidInputError(f"unknown atlas table {table_id!r}; known ids: {known}")
    genus, _ = atlas_reference(table_id)
    rows = atlas_table(genus)
    have = {row_key(row) for row in rows}
    matched = []
    missing = []
    for pos, key in enumerate(reference_keys(table_id), start=1):
        (matched if key in have else missing).append(pos)
    extra = sum(1 for row in rows if not row.in_reference)
    return AtlasComparison(table_id, genus, tuple(matched), tuple(missing), extra)
