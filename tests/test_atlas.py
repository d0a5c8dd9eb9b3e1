"""Curve-action atlas: group inventory, action enumeration, table flags."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from isopencil.atlas import (
    AtlasRow,
    _actions_cell,
    abelian_groups_up_to,
    atlas_table,
    canonical_profile,
    check_genera,
    enumerate_actions,
    groups_acting_on,
    reference_keys,
)
from isopencil.classifier import classify_cell, search_cells
from isopencil.compare import compare_atlas_with_reference
from isopencil.covers import FIBER_GENUS_RANGE, eigen_profile, genus
from isopencil.errors import InvalidInputError
from isopencil.groups import make_group


def factor_set(groups):
    return {g.factors for g in groups}


def test_groups_up_to_four():
    assert factor_set(abelian_groups_up_to(4)) == {(2,), (3,), (4,), (2, 2)}


def test_groups_up_to_one_is_empty():
    assert abelian_groups_up_to(1) == []


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_not_counts_or_genera(flag):
    # True == 1 and False == 0 as integers, so each check names bool itself.
    with pytest.raises(InvalidInputError, match="order bound"):
        abelian_groups_up_to(flag)
    with pytest.raises(InvalidInputError, match="quotient genus"):
        check_genera(3, flag)
    with pytest.raises(InvalidInputError, match="quotient genus"):
        enumerate_actions(3, flag)
    with pytest.raises(InvalidInputError, match="curve genus"):
        check_genera(flag, 0)
    with pytest.raises(InvalidInputError, match="fiber genus"):
        search_cells(flag)
    with pytest.raises(InvalidInputError, match="fiber genus"):
        classify_cell([2, 2], flag, 0, 0, (3, 8))


def test_groups_up_to_sixteen():
    groups = abelian_groups_up_to(16)
    fs = factor_set(groups)
    assert len(groups) == len(fs) == 24
    for want in [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2), (2, 6), (12,), (15,)]:
        assert want in fs
    for g in groups:
        assert list(g.factors) == sorted(g.factors)
        for d, e in zip(g.factors, g.factors[1:]):
            assert e % d == 0
        assert math.prod(g.factors) == g.order <= 16


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def test_groups_of_each_order_are_counted_by_partitions_of_the_prime_exponents():
    # OEIS A000688: an abelian group of order prod p^e is a choice of one
    # partition of every exponent e.
    groups = abelian_groups_up_to(64)
    assert len(factor_set(groups)) == len(groups)
    counts = Counter(g.order for g in groups)
    for order in range(2, 65):
        expected, rest, p = 1, order, 2
        while rest > 1:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            expected *= _partition_count(e)
            p += 1
        assert counts[order] == expected, order
    assert (counts[16], counts[32], counts[48], counts[64]) == (5, 7, 5, 11)


def test_groups_bad_bound():
    with pytest.raises(InvalidInputError):
        abelian_groups_up_to(0)
    with pytest.raises(InvalidInputError):
        abelian_groups_up_to("12")


def test_canonical_profile_orbit_representative():
    g5 = make_group([5])
    canon = canonical_profile(g5, {(1,): 1, (3,): 1})
    assert canon == (((1,), 1), ((2,), 1))
    assert canonical_profile(g5, {(2,): 1, (4,): 1}) == canon
    assert canonical_profile(g5, {(1,): 1, (2,): 1}) == canon


def test_canonical_profile_drops_zero_dims():
    g2 = make_group([2])
    assert canonical_profile(g2, {(0,): 0, (1,): 2}) == (((1,), 2),)


@pytest.mark.parametrize("profile", [{(1,): True}, {(0,): 0, (1,): False}, [((1,), True)]])
def test_canonical_profile_rejects_bool_dims(profile):
    with pytest.raises(InvalidInputError, match="eigenspace dimension"):
        canonical_profile(make_group([2]), profile)


@pytest.mark.parametrize("profile", [
    [((0, 1), 1), ((0, 1), 1)],
    [((0, 1), 1), ((0, 1), 2)],
    [((0, 1), 0), ((1, 0), 1), ((0, 1), 1)],
])
def test_canonical_profile_rejects_a_repeated_character(profile):
    with pytest.raises(InvalidInputError, match=r"character \[0, 1\] more than once"):
        canonical_profile(make_group((2, 2)), profile)


def test_genus_two_base_one():
    rows = enumerate_actions(2, 1)
    assert len(rows) == 1
    row = rows[0]
    assert row.group.factors == (2,)
    assert row.profile == (((0,), 1), ((1,), 1))
    assert row.witness.base_genus == 1


def test_genus_two_base_zero_contents():
    rows = enumerate_actions(2, 0)
    by_group = {}
    for row in rows:
        by_group.setdefault(row.group.factors, []).append(row.profile)

    g5 = make_group([5])
    assert canonical_profile(g5, {(1,): 1, (3,): 1}) in by_group[(5,)]
    g6 = make_group([6])
    assert canonical_profile(g6, {(1,): 1, (5,): 1}) in by_group[(6,)]
    assert len(by_group[(6,)]) == 2
    g8 = make_group([8])
    assert canonical_profile(g8, {(5,): 1, (7,): 1}) in by_group[(8,)]
    g22 = make_group([2, 2])
    assert by_group[(2, 2)] == [canonical_profile(g22, {(1, 0): 1, (0, 1): 1})]
    assert (10,) in by_group
    assert (2, 6) in by_group
    for absent in [(7,), (9,), (11,), (12,), (2, 4), (2, 2, 2), (3, 3)]:
        assert absent not in by_group


def test_genus_two_high_base_is_empty():
    assert enumerate_actions(2, 2) == []


def test_rows_carry_valid_witnesses():
    for row in enumerate_actions(2, 0):
        assert genus(row.witness) == 2
        prof = {c: d for c, d in eigen_profile(row.witness).items() if d}
        assert canonical_profile(row.group, prof) == row.profile
        assert sum(d for _, d in row.profile) == 2


@pytest.mark.parametrize("curve_genus, count", [(2, 11), (3, 28)])
def test_cell_profiles_match_the_checked_canonical_profile(curve_genus, count):
    # _actions_cell canonicalizes each witness's index profile without the
    # validating front; the public route must give the same profile.
    rows = 0
    for group in groups_acting_on(curve_genus):
        for a in range(curve_genus + 1):
            for row in _actions_cell(curve_genus, a, group.factors):
                assert row.profile == canonical_profile(group, eigen_profile(row.witness))
                rows += 1
    assert rows == count


def test_action_preconditions():
    for bad in (1, 6):
        with pytest.raises(InvalidInputError):
            enumerate_actions(bad, 0)
        with pytest.raises(InvalidInputError):
            search_cells(bad)
    with pytest.raises(InvalidInputError):
        enumerate_actions(3, 4)
    with pytest.raises(InvalidInputError):
        enumerate_actions(3, -1)


def test_atlas_and_classifier_share_the_genus_range_and_order_bound():
    assert FIBER_GENUS_RANGE == (2, 5)
    for g in range(FIBER_GENUS_RANGE[0], FIBER_GENUS_RANGE[1] + 1):
        groups = groups_acting_on(g)
        assert max(grp.order for grp in groups) == 4 * g + 4
        assert {factors for factors, _, _, _ in search_cells(g)} == factor_set(groups)


def test_atlas_flags_and_comparison_read_one_set_of_reference_keys():
    # A reference row is matched exactly when a row of atlas_table carries its
    # key, and then that row is flagged; the rest are the missing rows.
    for genus, table in ((2, "tabelladue"), (3, "tabellauno")):
        keys = reference_keys(table)
        listed = {(r.quotient_genus, r.group.factors, r.profile) for r in atlas_table(genus) if r.in_reference}
        report = compare_atlas_with_reference(table)
        assert listed <= set(keys)
        assert report.matched == tuple(pos for pos, key in enumerate(keys, 1) if key in listed)
        assert report.missing == tuple(pos for pos, key in enumerate(keys, 1) if key not in listed)


def test_atlas_genus_two_flags():
    rows = atlas_table(2)
    assert all(isinstance(r, AtlasRow) and r.in_reference is not None for r in rows)
    listed = [r for r in rows if r.in_reference]
    extras = [r for r in rows if not r.in_reference]
    assert len(listed) == 7
    assert {r.group.factors for r in extras} >= {(8,), (10,), (2, 6)}
    assert rows == sorted(
        rows, key=lambda r: (-r.quotient_genus, r.group.order, r.group.factors, r.profile)
    )


def test_atlas_rejects_other_genera():
    with pytest.raises(InvalidInputError):
        atlas_table(4)


def test_large_group_action_exists_in_genus_three():
    g28 = make_group([2, 8])
    rows = [r for r in enumerate_actions(3, 0) if r.group.factors == (2, 8)]
    assert canonical_profile(g28, {(0, 3): 1, (1, 2): 1, (0, 1): 1}) in {r.profile for r in rows}
