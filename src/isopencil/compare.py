"""Field-wise matching of computed rows against the embedded reference tables."""

from __future__ import annotations

from .atlas import atlas_table, reference_keys, row_key
from .classifier import FamilyRow, cell_of
from .record import Record
from .reference_tables import atlas_reference, family_reference

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


def _form_groups(rows: list[FamilyRow]) -> list[ExtraRow]:
    """Computed rows merged by cell, kind and printed column forms, in that order."""
    buckets: dict[tuple, list[FamilyRow]] = {}
    for row in rows:
        key = (cell_of(row), row.kind, tuple(sorted(row.forms.items())))
        buckets.setdefault(key, []).append(row)
    return [
        ExtraRow(cell, kind, forms, min(r.pg_lo for r in same), max(r.pg_hi for r in same), len(same))
        for (cell, kind, forms), same in sorted(buckets.items())
    ]


def _anchor(group: ExtraRow, ref) -> int | None:
    """Parameter offset aligning the reference g(D) column with the computed one."""
    ref_gd = ref.forms.get("g_D")
    eng_gd = dict(group.forms).get("g_D")
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


def _field_records(table: str, ref, group: ExtraRow, shift: int) -> tuple[Discrepancy, ...]:
    forms = dict(group.forms)
    records = []
    for name in COMPARED_FIELDS:
        if name not in ref.forms or name not in forms:
            continue
        expected = ref.forms[name].shift(shift)
        got = forms[name]
        if got == expected:
            continue
        delta = got.intercept - expected.intercept if got.slope == expected.slope else None
        records.append(Discrepancy(table, ref.index, name, expected, got, delta))
    return tuple(records)


def _mismatch_weight(records: tuple[Discrepancy, ...]) -> tuple[int, int, int]:
    """(shape mismatches, mismatched fields, total offset): smaller is closer."""
    shape = sum(1 for d in records if d.delta is None)
    offset = sum(abs(d.delta) for d in records if d.delta is not None)
    return (shape, len(records), offset)


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
    reference = family_reference(table_id)
    if cells is None:
        cells = {cell_of(row) for row in rows}
    in_scope = [ref for ref in reference if cell_of(ref) in cells]
    skipped = len(reference) - len(in_scope)

    groups = _form_groups(rows)
    families = [g for g in groups if g.kind == "family"]
    consumed: set[int] = set()
    outcome: dict[int, MatchedRow] = {}
    # Pass 1 takes only perfect matches, pass 2 settles the remaining rows on
    # the closest unclaimed family, pass 3 lets a reference row repeat an
    # already-claimed family verbatim (shared) rather than report a spurious
    # miss. Families come in (cell, forms) order, so among equal mismatch
    # weights the lowest position is the least (cell, forms).
    for exact_only, shared in ((True, False), (False, False), (True, True)):
        for ref in in_scope:
            if ref.index in outcome:
                continue
            found = []
            for pos, family in enumerate(families):
                if (pos in consumed) != shared or family.cell != cell_of(ref):
                    continue
                shift = _anchor(family, ref)
                if shift is None:
                    continue
                records = _field_records(table_id, ref, family, shift)
                if not (exact_only and records):
                    found.append((_mismatch_weight(records), pos, shift, records))
            if found:
                _, pos, shift, records = min(found)
                outcome[ref.index] = MatchedRow(table_id, ref.index, cell_of(ref), shift, records, shared)
                consumed.add(pos)

    matched = tuple(outcome[ref.index] for ref in in_scope if ref.index in outcome)
    missing = tuple(
        MissingRow(table_id, ref.index, cell_of(ref), _miss_note(ref, families))
        for ref in in_scope
        if ref.index not in outcome
    )
    extra = tuple(g for pos, g in enumerate(families) if pos not in consumed)
    extra += tuple(g for g in groups if g.kind != "family")
    return ComparisonReport(table_id, matched, missing, extra, skipped)


def _miss_note(ref, families: list[ExtraRow]) -> str:
    gd = ref.forms.get("g_D")
    gd_forms = [dict(g.forms)["g_D"] for g in families if g.cell == cell_of(ref)]
    if not gd_forms:
        return "no computed family in this cell"
    if gd is not None:
        slopes = sorted({form.slope for form in gd_forms})
        if gd.slope not in slopes:
            return f"no computed family grows g(D) at rate {gd.slope}"
        residues = sorted({form.intercept % gd.slope for form in gd_forms if form.slope == gd.slope})
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
    genus, _ = atlas_reference(table_id)
    rows = atlas_table(genus)
    have = {row_key(row) for row in rows}
    matched = []
    missing = []
    for pos, key in enumerate(reference_keys(table_id), start=1):
        (matched if key in have else missing).append(pos)
    extra = sum(1 for row in rows if not row.in_reference)
    return AtlasComparison(table_id, genus, tuple(matched), tuple(missing), extra)
