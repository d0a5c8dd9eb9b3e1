"""Comparison layer: matched rows stay silent, every divergence gets a record."""

import pytest

from isopencil import compare
from isopencil.classifier import FamilyRow, cell_of, classify
from isopencil.compare import (
    compare_atlas_with_reference,
    compare_with_reference,
)
from isopencil.cli import main
from isopencil.errors import InvalidInputError
from isopencil.linear import LinearForm
from isopencil.reference_tables import (
    FamilyReferenceRow,
    atlas_reference,
    atlas_table_ids,
    family_reference,
    family_table_ids,
)


def test_table_ids_are_checked():
    with pytest.raises(InvalidInputError):
        compare_with_reference([], "nope")
    # Atlas ids and family ids live in separate namespaces.
    with pytest.raises(InvalidInputError):
        compare_with_reference([], "tabelladue")
    with pytest.raises(InvalidInputError):
        compare_atlas_with_reference("zero")


def test_every_unknown_table_id_error_names_the_known_ids(capsys):
    atlas_ids, family_ids = ", ".join(atlas_table_ids()), ", ".join(family_table_ids())
    entry_points = [
        (lambda: family_reference("nope"), f"unknown family table 'nope'; known ids: {family_ids}"),
        (lambda: compare_with_reference([], "nope"), f"unknown family table 'nope'; known ids: {family_ids}"),
        (lambda: atlas_reference("nope"), f"unknown atlas table 'nope'; known ids: {atlas_ids}"),
        (lambda: compare_atlas_with_reference("nope"), f"unknown atlas table 'nope'; known ids: {atlas_ids}"),
    ]
    for call, message in entry_points:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message
    assert main(["compare", "nope"]) == 1  # the CLI routes by kind, so it lists both
    assert capsys.readouterr().err == f"error: unknown table 'nope'; known ids: {atlas_ids}, {family_ids}\n"


def test_exact_tables_produce_no_records():
    searches = [
        ("quattordici", 2, [(2, 2)], 0, 1),
        ("pippo", 3, [(2, 2)], 1, 0),
        ("qugualedue", 3, [(2,)], 2, 0),
        ("eccolottouno", 3, [(2, 8)], 0, 1),
    ]
    for table, genus_f, groups, a, b in searches:
        rows = classify(genus_f, groups=groups, quotient_genus_a=a, quotient_genus_b=b)
        report = compare_with_reference(rows, table)
        assert report.exact, table
        assert report.skipped == 0
        assert all(m.shift in (0, 1) for m in report.matched)


def test_free_action_table_covers_both_groups():
    rows = classify(3, groups=[(2, 2), (2, 2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    report = compare_with_reference(rows, "pippodue")
    assert report.exact
    assert len(report.matched) == 2


def test_rank_three_families_match_their_reference_rows():
    rows = classify(3, groups=[(2, 2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    report = compare_with_reference(rows, "qugualebugualezero")
    assert report.exact
    assert len(report.matched) == 5
    # The rank-two rows of the same table sit outside the searched cell.
    assert report.skipped == 3


def test_single_flagged_field_is_isolated():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    report = compare_with_reference(rows, "diciotto")
    assert len(report.matched) == 3
    assert not report.missing and not report.extra
    record, = report.discrepancies
    assert (record.index, record.field, record.delta) == (1, "K2", -4)
    assert record.reference == LinearForm(4, 4)
    assert record.computed == LinearForm(4, 0)
    assert [m.exact for m in report.matched] == [False, True, True]


def test_two_flagged_fields_leave_the_rest_silent():
    rows = classify(2, groups=[(2,)], quotient_genus_a=1, quotient_genus_b=0)
    report = compare_with_reference(rows, "sedici")
    assert len(report.matched) == 1
    flagged = {(d.field, d.delta) for d in report.discrepancies}
    assert flagged == {("p_g", 1), ("t_z", 8)}


def test_summary_table_full_scope():
    rows = []
    rows += classify(2, groups=[(2, 2), (2,)])
    rows += classify(3, groups=[(2, 2), (2, 2, 2), (2,)])
    report = compare_with_reference(rows, "zero")
    assert len(report.matched) == 19
    assert not report.missing and report.skipped == 0
    flagged = {(d.index, d.field, d.delta) for d in report.discrepancies}
    assert flagged == {(1, "K2", -4), (5, "p_g", 1), (6, "K2", -8)}
    # Genus-2 rows anchor one step off the genus-3 ones, never more.
    assert {m.shift for m in report.matched} <= {-1, 0, 1}


def test_mixed_cyclic_table_splits_by_parity():
    rows = classify(3, groups=[(2, 8)])
    report = compare_with_reference(rows, "mostro")

    matched = {m.index: m for m in report.matched}
    assert set(matched) == {1, 2, 3, 4, 11, 12, 13, 14, 15, 19}
    assert all(matched[i].exact for i in (1, 2, 3, 4, 19))
    for i in (11, 12, 13, 14, 15):
        fields = [d.field for d in matched[i].discrepancies]
        assert fields == ["K2"]
    deltas = {d.index: d.delta for d in report.discrepancies}
    assert deltas == {11: -10, 12: -16, 13: -4, 14: -16, 15: -10}

    assert {m.index for m in report.missing} == {5, 6, 7, 8, 9, 10, 16, 17, 18}
    for miss in report.missing:
        assert "mod 8" in miss.note

    # Two families print identical columns and fold into one extra row.
    assert len(report.extra) == 12
    assert sum(e.count for e in report.extra) == 13
    folded, = [e for e in report.extra if e.count == 2]
    assert dict(folded.forms)["g_D"] == LinearForm(8, 5)


def _stub_row(forms):
    return FamilyRow((2, 8), 0, 0, 3, (0, 1), "family", 3, 8, forms, ())


def test_reference_rows_may_share_one_family():
    forms = {
        "p_g": LinearForm(1, 0),
        "q": LinearForm(0, 0),
        "g_D": LinearForm(8, 3),
        "K2": LinearForm(8, 0),
        "chi": LinearForm(1, 1),
        "euler_e": LinearForm(4, 12),
    }
    report = compare_with_reference([_stub_row(forms)], "mostro")
    matched = {m.index: m for m in report.matched}
    # Rows 11 and 14 are the same family written at offset parameters.
    assert set(matched) == {11, 14}
    assert not matched[11].shared and matched[14].shared
    assert matched[11].exact and matched[14].exact
    assert (matched[11].shift, matched[14].shift) == (0, 1)
    assert not report.extra
    assert report.skipped == 1


def test_a_cell_without_families_notes_it_on_every_missing_row():
    # A computed family only in row 19's cell, and both cells searched.
    forms = {"p_g": LinearForm(1, 0), "g_D": LinearForm(8, 1), "K2": LinearForm(8, 0)}
    stub = FamilyRow((2, 8), 0, 1, 3, (0, 1), "family", 3, 8, forms, ())
    report = compare_with_reference([stub], "mostro", cells={cell_of(stub), cell_of(_stub_row(forms))})
    assert [(m.index, m.exact) for m in report.matched] == [(19, True)]
    assert [m.index for m in report.missing] == list(range(1, 19))
    assert {m.note for m in report.missing} == {"no computed family in this cell"}
    assert not report.extra


def test_a_row_whose_g_d_slope_no_family_has_is_noted():
    forms = {"p_g": LinearForm(1, 0), "g_D": LinearForm(4, 3), "K2": LinearForm(4, 0)}
    report = compare_with_reference([_stub_row(forms)], "mostro")
    assert not report.matched
    assert len(report.missing) == 18
    assert {m.note for m in report.missing} == {"no computed family grows g(D) at rate 8"}
    extra, = report.extra
    assert dict(extra.forms)["g_D"] == LinearForm(4, 3)


def test_a_row_aligned_only_with_a_claimed_family_is_noted():
    # Rows 2 and 3 anchor on the family rows 11 and 14 share, one step off and
    # with another K2, so no pass may take them: sharing takes exact rows only.
    forms = {"p_g": LinearForm(1, 0), "g_D": LinearForm(8, 3), "K2": LinearForm(8, 0)}
    report = compare_with_reference([_stub_row(forms)], "mostro")
    assert {m.index for m in report.matched} == {11, 14}
    notes = {m.index: m.note for m in report.missing}
    aligns = "no computed family aligns with this row's g(D) column"
    aligned = {i for i, note in notes.items() if note == aligns}
    assert aligned == {2, 3}
    assert all("mod 8" in notes[i] for i in set(notes) - aligned)


def test_fewer_mismatched_fields_outrank_a_smaller_total_offset(monkeypatch):
    # One reference row and two families in its cell: one misses K2 and t_z
    # by 1 each, the other misses K2 alone, by 1500. The row takes the family
    # with fewer mismatched fields, however large its offset.
    ref_forms = {
        "p_g": LinearForm(1, 0),
        "g_D": LinearForm(4, 1),
        "K2": LinearForm(4, 0),
        "t_z": LinearForm(2, 2),
    }
    ref = FamilyReferenceRow("synthetic", 1, (2, 2), 0, 1, 2, ref_forms, "")
    monkeypatch.setattr(compare, "family_reference", lambda table_id: [ref])

    def family(k2, t_z):
        forms = {**ref_forms, "K2": LinearForm(4, k2), "t_z": LinearForm(2, t_z)}
        return FamilyRow((2, 2), 0, 1, 2, (0, 1), "family", 3, 8, forms, ())

    two_fields, one_field = family(1, 3), family(1500, 2)
    report = compare_with_reference([two_fields, one_field], "synthetic")
    matched, = report.matched
    assert [(d.field, d.delta) for d in matched.discrepancies] == [("K2", 1500)]
    extra, = report.extra
    assert dict(extra.forms)["t_z"] == LinearForm(2, 3)


def test_sporadic_rows_never_match_but_are_kept():
    forms = {key: LinearForm(0, v) for key, v in [
        ("p_g", 3), ("q", 0), ("g_D", 17), ("K2", 20), ("chi", 4), ("euler_e", 28),
    ]}
    stub = FamilyRow((2, 8), 0, 0, 3, (0, 1), "sporadic", 3, 3, forms, ())
    report = compare_with_reference([stub], "mostro")
    assert not report.matched
    extra, = report.extra
    assert extra.kind == "sporadic"
    assert (extra.pg_lo, extra.pg_hi, extra.count) == (3, 3, 1)


def test_atlas_table_genus_two_is_complete_with_extras():
    report = compare_atlas_with_reference("tabelladue")
    assert report.genus == 2
    assert report.exact
    assert len(report.matched) == 7
    assert report.extra_count >= 1


def test_atlas_table_genus_three_gaps_are_reported():
    report = compare_atlas_with_reference("tabellauno")
    assert report.genus == 3
    assert len(report.matched) == 22
    assert report.missing == (15, 19, 25)
    assert report.extra_count >= 1
