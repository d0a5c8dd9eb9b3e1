"""Arithmetic identities checked over random covers and classifier output."""

from __future__ import annotations

from conftest import (
    check_carry_relation,
    check_discrepancy_interval,
    check_dual_route_reports,
    check_eigenspace_totals,
    check_hj_roundtrip,
    check_node_shortcut,
    check_repeat_determinism,
)


def test_eigenspace_dimensions_sum_to_the_genus(random_covers):
    assert len(random_covers) >= 1000
    check_eigenspace_totals(random_covers)


def test_bundle_degrees_obey_the_carry_relation(random_covers):
    check_carry_relation(random_covers)


def test_quotient_invariants_agree_between_routes(classified_rows):
    assert check_dual_route_reports(classified_rows) >= 500


def test_node_only_quotients_obey_the_division_shortcut(classified_rows):
    assert check_node_shortcut(classified_rows) >= 100


def test_hirzebruch_jung_data_roundtrip():
    check_hj_roundtrip()


def test_resolution_discrepancies_stay_in_the_exceptional_interval(classified_rows):
    check_discrepancy_interval(classified_rows)


def test_classification_is_deterministic_across_worker_counts():
    check_repeat_determinism()
