"""Acceptance gates: one pass or fail line per contract under pytest -v.

Each test replays a published-table comparison, a robustness identity, or a
negative control at its stated tolerance. Where exact arithmetic provably
disagrees with a printed reference row, the literal reading is kept as a
strict xfail and a companion test pins the verified truth, so nothing is
silently dropped and nothing is quietly patched.
"""

from __future__ import annotations

import time

import pytest

import oracle
from conftest import (
    check_carry_relation,
    check_discrepancy_interval,
    check_dual_route_reports,
    check_eigenspace_totals,
    check_hj_roundtrip,
    check_node_shortcut,
    check_repeat_determinism,
)
from isopencil.atlas import atlas_table, canonical_profile
from isopencil.classifier import classify
from isopencil.compare import compare_atlas_with_reference, compare_with_reference
from isopencil.covers import eigen_profile
from isopencil.linear import LinearForm
from isopencil.reference_tables import atlas_reference, family_reference


def indexed_flags(report):
    return {(m.index, d.field, d.delta) for m in report.matched for d in m.discrepancies}


def families(rows):
    return [r for r in rows if r.kind == "family"]


def bounded_orders(row):
    # Capped multiplicities repeat across members; only the growth element moves.
    group = row.members[0].cover_f.group
    first = dict(row.members[0].cover_d.branch)
    last = dict(row.members[-1].cover_d.branch)
    orders = []
    for e, m in last.items():
        if first.get(e) == m:
            orders.extend([oracle.order(group, e)] * m)
    return tuple(sorted(orders))


def test_criterion_01_genus_two_action_table_exact_with_flagged_extras():
    start = time.monotonic()
    report = compare_atlas_with_reference("tabelladue")
    elapsed = time.monotonic() - start
    assert report.matched == (1, 2, 3, 4, 5, 6, 7)
    assert report.missing == ()
    assert report.extra_count == 4
    extras = [r for r in atlas_table(2) if not r.in_reference]
    assert len(extras) == 4
    assert any(r.group.factors == (8,) for r in extras)
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="three printed rows name character profiles no genus-3 action realizes",
)
def test_criterion_02_genus_three_action_table_reproduced_in_full():
    assert compare_atlas_with_reference("tabellauno").exact


def test_criterion_02_genus_three_action_table_verified_scope_within_budget():
    start = time.monotonic()
    report = compare_atlas_with_reference("tabellauno")
    elapsed = time.monotonic() - start
    assert len(report.matched) == 22
    assert report.missing == (15, 19, 25)
    _, rows = atlas_reference("tabellauno")
    mixed = [i for i, row in enumerate(rows, 1) if row.factors == (2, 8)]
    assert mixed and all(i in report.matched for i in mixed)
    assert report.extra_count == 6
    assert elapsed < 60.0


def test_criterion_03_elliptic_base_genus_two_family_is_exact():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    report = compare_with_reference(rows, "quattordici")
    assert report.exact and len(report.matched) == 1
    assert family_reference("quattordici")[0].forms == {
        "p_g": LinearForm(1, 0),
        "g_D": LinearForm(2, 1),
        "K2": LinearForm(4, 0),
        "t_z": LinearForm(8, 0),
    }


def test_criterion_03_genus_two_irregular_family_flags_two_printed_values():
    rows = classify(2, groups=[(2,)], quotient_genus_a=1, quotient_genus_b=0)
    report = compare_with_reference(rows, "sedici")
    assert [m.index for m in report.matched] == [1]
    assert not report.missing and not report.extra
    assert indexed_flags(report) == {(1, "p_g", 1), (1, "t_z", 8)}


def test_criterion_03_rational_base_trio_matches_with_one_flagged_degree():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    report = compare_with_reference(rows, "diciotto")
    assert [m.index for m in report.matched] == [1, 2, 3]
    assert all(m.shift == 1 for m in report.matched)
    assert not report.missing and not report.extra
    assert indexed_flags(report) == {(1, "K2", -4)}
    fams = {r.forms["t_z"].intercept: r for r in families(rows)}
    assert sorted(fams) == [16, 20, 24]
    vectors = {
        16: lambda m: [0, 2, 2 * m],
        20: lambda m: [1, 1, 2 * m - 1],
        24: lambda m: [0, 2, 2 * m - 2],
    }
    for intercept, expected in vectors.items():
        for member in (fams[intercept].members[0], fams[intercept].members[-1]):
            m = member.p_g + 1
            grp = member.cover_f.group
            degrees = dict(member.cover_d.branch)
            got = sorted(degrees.get(e, 0) for e in grp.elements()[1:])
            assert got == sorted(expected(m))


def test_criterion_04_rank_two_genus_three_trio_isolates_one_degree_record():
    rows = classify(3, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    report = compare_with_reference(rows, "qugualebugualezero")
    assert [m.index for m in report.matched] == [1, 2, 3]
    assert report.skipped == 5 and not report.missing and not report.extra
    assert indexed_flags(report) == {(1, "K2", -8)}
    refs = family_reference("qugualebugualezero")
    assert [refs[i].forms["t_z"] for i in (1, 2)] == [LinearForm(0, 24), LinearForm(0, 32)]
    assert [refs[i].forms["K2"] for i in (1, 2)] == [LinearForm(8, -12), LinearForm(8, -16)]


def test_criterion_05_rank_three_families_exact_in_both_tables():
    rows = classify(3, groups=[(2, 2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    detailed = compare_with_reference(rows, "qugualebugualezero")
    assert detailed.exact and detailed.skipped == 3
    assert [m.index for m in detailed.matched] == [4, 5, 6, 7, 8]
    summary = compare_with_reference(rows, "zero")
    assert summary.exact and summary.skipped == 14
    assert [m.index for m in summary.matched] == [9, 10, 11, 12, 13]
    free = [r for r in families(rows) if r.forms["t_z"] == LinearForm(0, 0)]
    assert len(free) == 1
    forms = free[0].forms
    assert forms["p_g"] == LinearForm(1, 0)
    assert forms["chi"] == LinearForm(1, 1)
    assert forms["euler_e"] == LinearForm(4, 4)
    assert forms["K2"] == LinearForm(8, 8)
    assert forms["g_D"] == LinearForm(4, 5)
    first = free[0].members[0]
    assert (first.p_g, first.report.chi, first.report.euler_e, first.report.K2) == (3, 4, 16, 32)
    assert not first.report.sing


def test_criterion_06_albanese_genus_three_trio_is_exact():
    rows = classify(3, groups=[(2, 2)], quotient_genus_a=1, quotient_genus_b=0)
    report = compare_with_reference(rows, "pippo")
    assert report.exact
    assert [m.index for m in report.matched] == [1, 2, 3]
    refs = family_reference("pippo")
    assert [r.forms["t_z"].intercept for r in refs] == [0, 8, 16]
    assert [r.forms["K2"] for r in refs] == [LinearForm(8, -8), LinearForm(8, -12), LinearForm(8, -16)]


def test_criterion_06_free_quotient_families_exact_for_both_groups():
    rows = classify(3, groups=[(2, 2), (2, 2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    report = compare_with_reference(rows, "pippodue")
    assert report.exact and len(report.matched) == 2
    refs = family_reference("pippodue")
    assert {refs[m.index - 1].factors for m in report.matched} == {(2, 2), (2, 2, 2)}
    fams = families(rows)
    assert len(fams) == 2
    for row in fams:
        assert row.forms["q"] == LinearForm(0, 1)
        assert row.forms["t_z"] == LinearForm(0, 0)
        assert row.forms["K2"].slope == 8 * row.forms["chi"].slope
        assert row.forms["K2"].intercept == 8 * row.forms["chi"].intercept
        assert not row.members[0].report.sing


def test_criterion_06_doubly_irregular_family_exact_and_free():
    rows = classify(3, groups=[(2,)], quotient_genus_a=2, quotient_genus_b=0)
    report = compare_with_reference(rows, "qugualedue")
    assert report.exact and len(report.matched) == 1
    fams = families(rows)
    assert len(fams) == 1
    assert fams[0].forms["q"] == LinearForm(0, 2)
    assert fams[0].forms["t_z"] == LinearForm(0, 0)
    assert not fams[0].members[0].report.sing
    assert family_reference("qugualedue")[0].forms["K2"] == LinearForm(8, -8)


def test_criterion_07_mixed_cyclic_solution_shapes_and_degree_offsets():
    rows = classify(3, groups=[(2, 8)], quotient_genus_a=0, quotient_genus_b=0)
    fams = families(rows)
    assert len(fams) == 22 and len(fams) == len(rows)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for row in fams:
        by_shape.setdefault(bounded_orders(row), []).append(row.forms["g_D"].intercept)
    assert {shape: sorted(v) for shape, v in by_shape.items()} == {
        (8, 8): [-5, -1, -1, 3],
        (4, 8, 8): [-3, 1, 1, 5, 5, 9],
        (2, 8, 8): [-5, -1, -1, 3, 3, 7],
        (8, 8, 8, 8): [-3, 1, 5, 5, 9, 13],
    }


def test_criterion_07_mixed_cyclic_rows_split_by_reachable_parity():
    rows = classify(3, groups=[(2, 8)])
    report = compare_with_reference(rows, "mostro")
    assert [m.index for m in report.matched] == [1, 2, 3, 4, 11, 12, 13, 14, 15, 19]
    assert {m.index for m in report.matched if m.exact} == {1, 2, 3, 4, 19}
    deltas = {}
    for m in report.matched:
        for d in m.discrepancies:
            assert d.field == "K2"
            deltas[m.index] = d.delta
    assert deltas == {11: -10, 12: -16, 13: -4, 14: -16, 15: -10}
    assert [m.index for m in report.missing] == [5, 6, 7, 8, 9, 10, 16, 17, 18]
    assert all("mod 8" in m.note for m in report.missing)
    assert len(report.extra) == 12
    assert sum(e.count for e in report.extra) == 13
    folded = [e for e in report.extra if e.count == 2]
    assert len(folded) == 1
    assert dict(folded[0].forms)["g_D"] == LinearForm(8, 5)
    assert dict(folded[0].forms)["K2"] == LinearForm(8, -20)


@pytest.mark.xfail(
    strict=True,
    reason="the mixed-cyclic search reaches one g(D) parity only; nine even rows have no realization",
)
def test_criterion_07_every_mixed_cyclic_row_is_matched():
    rows = classify(3, groups=[(2, 8)])
    assert not compare_with_reference(rows, "mostro").missing


def test_criterion_07_elliptic_base_mixed_cyclic_family_is_exact():
    rows = classify(3, groups=[(2, 8)], quotient_genus_a=0, quotient_genus_b=1)
    report = compare_with_reference(rows, "eccolottouno")
    assert report.exact and len(report.matched) == 1
    assert family_reference("eccolottouno")[0].forms == {
        "p_g": LinearForm(1, 0),
        "g_D": LinearForm(8, 1),
        "K2": LinearForm(8, 0),
        "t_z": LinearForm(0, 0),
    }
    assert all(r.forms["q"] == LinearForm(0, 1) for r in families(rows))


def test_criterion_08a_randomized_eigenspace_totals(random_covers):
    assert len(random_covers) >= 1000
    check_eigenspace_totals(random_covers)


def test_criterion_08b_randomized_bundle_degree_carries(random_covers):
    check_carry_relation(random_covers)


def test_criterion_08c_dual_route_invariants_on_classifier_output(classified_rows):
    assert check_dual_route_reports(classified_rows) >= 500


def test_criterion_08d_node_only_shortcut_on_classifier_output(classified_rows):
    assert check_node_shortcut(classified_rows) >= 100


def test_criterion_08e_continued_fraction_roundtrip():
    check_hj_roundtrip()


def test_criterion_08f_resolution_discrepancies_in_interval(classified_rows):
    check_discrepancy_interval(classified_rows)


def test_criterion_08g_worker_count_determinism():
    check_repeat_determinism()


CONTROL_GROUPS = ((3,), (4,), (7,), (8,), (9,), (12,), (14,), (4, 4))


def test_criterion_09_excluded_groups_yield_no_unbounded_families():
    for factors in CONTROL_GROUPS:
        for genus_f in (2, 3):
            rows = classify(genus_f, groups=[factors], pg_range=(3, 8))
            assert not families(rows), (factors, genus_f)
            if factors != (4, 4):
                assert not rows, (factors, genus_f)


def test_criterion_09_orders_twelve_and_fourteen_cap_at_sporadic_solutions():
    for factors, count in (((12,), 8), ((14,), 7)):
        assert classify(2, groups=[factors], pg_range=(2, 8)) == []
        rows = classify(3, groups=[factors], pg_range=(2, 8))
        assert len(rows) == count
        assert all(r.kind == "sporadic" and (r.pg_lo, r.pg_hi) == (2, 2) for r in rows)


def test_criterion_09_control_families_only_arise_from_unlisted_actions():
    for factors, genus_f in (((6,), 2), ((2, 4), 3)):
        listed = {
            row.profile
            for row in atlas_table(genus_f)
            if row.group.factors == factors and row.in_reference
        }
        unlisted = {
            row.profile
            for row in atlas_table(genus_f)
            if row.group.factors == factors and not row.in_reference
        }
        assert listed and unlisted
        fams = families(classify(genus_f, groups=[factors], pg_range=(3, 8)))
        assert fams, (factors, genus_f)
        for row in fams:
            cover = row.members[0].cover_f
            profile = canonical_profile(cover.group, eigen_profile(cover))
            assert profile in unlisted and profile not in listed


@pytest.mark.xfail(
    strict=True,
    reason="two control groups carry curve actions absent from the reference action"
    " tables; those actions generate genuine unbounded families",
)
def test_criterion_09_all_controls_return_no_families():
    for factors, genus_f in (((6,), 2), ((2, 4), 3)):
        rows = classify(genus_f, groups=[factors], pg_range=(3, 8))
        assert not families(rows)
