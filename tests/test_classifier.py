"""Checks for the pencil classifier on hand-worked search cells."""

from __future__ import annotations

import pickle
from collections import Counter
from itertools import product
from math import gcd
from operator import mul

import pytest

import oracle
from isopencil import classifier, groups, sandwich
from isopencil.atlas import _actions_cell, abelian_groups_up_to, groups_acting_on
from isopencil.classifier import (
    PencilPair,
    SurfaceSolution,
    _branch_solutions,
    _complete_twist,
    _pencil_pair,
    _stabilizer,
    _twist_interchangeable,
    cell_of,
    classify,
    classify_cell,
    classify_cells,
    fit_families,
    pencil_pairs,
    search_cells,
)
from isopencil.covers import eigen_profile, enumerate_covers, genus, make_cover
from isopencil.errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
)
from isopencil.groups import image, make_group
from isopencil.sandwich import Sandwich, invariants, make_sandwich
from test_sandwich import _oracle_locus


def rows_for(factors, genus_f, a, b, pg=(3, 8)):
    return fit_families(classify_cell(factors, genus_f, a, b, pg))


def forms5(row):
    keys = ("g_D", "K2", "t_z", "chi", "euler_e")
    return tuple((row.forms[k].slope, row.forms[k].intercept) for k in keys)


def mult_multiset(cover):
    return tuple(sorted(m for _, m in cover.branch))


def test_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, 0, 0, (3,))
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, 0, 0, (5, 3))
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, 0, 0, (1, 4))
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, 0, 0, ("3", 8))
    for bad_genus_f in (1, 6):
        with pytest.raises(InvalidInputError):
            classify_cell([2, 2], bad_genus_f, 0, 0, (3, 8))
        with pytest.raises(InvalidInputError):
            search_cells(bad_genus_f)
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, -1, 0, (3, 8))
    with pytest.raises(InvalidInputError):
        classify_cell([2, 2], 2, 0, True, (3, 8))
    with pytest.raises(InvalidInputError):
        classify(7)


@pytest.mark.parametrize("genus_f, groups_arg, a, b", [
    (2, "all", "any", "any"),
    (3, [(2, 2, 2), (4,)], 0, "any"),
    (2, [(2, 2)], "any", 1),
])
def test_classify_is_classify_cells_over_search_cells(genus_f, groups_arg, a, b):
    # The cell tuple (factors, a, b, genus_f) goes from search_cells to
    # classify_cells unchanged, and every row lands in one of those cells.
    cells = search_cells(genus_f, groups_arg, a, b)
    assert all(len(cell) == 4 and cell[3] == genus_f for cell in cells)
    assert len(set(cells)) == len(cells)
    rows = classify(genus_f, groups_arg, a, b, pg_range=(3, 7))
    assert rows and rows == classify_cells(cells, (3, 7))
    assert {cell_of(row) for row in rows} <= set(cells)


def test_unreachable_cells_are_empty():
    # A positive-genus pair on both quotients, or b >= 2, spreads the canonical
    # system over several characters, and a > g(F) has no quotient map at all.
    assert classify_cell([2, 2], 2, 1, 1, (3, 5)) == []
    assert classify_cell([2, 2], 2, 0, 2, (3, 5)) == []
    assert classify_cell([2, 2], 2, 3, 0, (3, 5)) == []
    # Small cyclic cells are bounded: degree budgets cap every multiplicity.
    assert classify_cell([3], 2, 0, 0, (3, 8)) == []


def test_escaping_element_is_reported():
    group = make_group([2, 2])
    with pytest.raises(CapabilityError):
        _branch_solutions(group, (), group.index[(1, 0)], range(1, 2))


def _requirements(witness, chi0, b, degree):
    """The degree requirements _pencil_pair builds for one witness and character."""
    group = witness.group
    profile = eigen_profile(witness)
    support = sorted(chi for chi, dim in profile.items() if dim and chi != oracle.zero(group))
    fixed = [(oracle.neg(group, chi), 1 - b) for chi in support if chi != chi0]
    return fixed + [(oracle.neg(group, chi0), degree)]


def _indexed(group, requirements):
    """The requirements with each character as its index, as _branch_solutions takes them."""
    return tuple((group.index[chi], degree) for chi, degree in requirements)


def _box_solutions(group, requirements):
    """Every vector in the box d_e <= budget/coef meeting all degrees, in product order."""
    nonzero = group.elements()[1:]
    cols = [[oracle.pair_num(group, chi, e) for e in nonzero] for chi, _ in requirements]
    budgets = [deg * group.exponent for _, deg in requirements]
    caps = [
        min(budget // col[i] for col, budget in zip(cols, budgets) if col[i])
        for i in range(len(nonzero))
    ]
    return [
        [(e, d) for e, d in zip(nonzero, vec) if d]
        for vec in product(*(range(cap + 1) for cap in caps))
        if all(sum(map(mul, vec, col)) == budget for col, budget in zip(cols, budgets))
    ]


# (factors, witness branch over P^1, characters chi0 or None for every
# dimension-1 candidate, degrees tried in this order for b = 0 and b = 1)
ORACLE_CASES = [
    # The (2,6), a = b = 0 cell at g_F = 2 with its real pencil character.
    ((2, 6), {(0, 1): 1, (1, 0): 1, (1, 5): 1}, [(1, 4)], {0: (2, 0, 1), 1: (3, 1, 5, 2, 4)}),
    ((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 1, (1, 0, 0): 2}, None,
     {0: (3, 1, 4, 2), 1: (2, 5, 1)}),
    ((4,), {(1,): 1, (2,): 2, (3,): 1}, None, {0: (5, 1, 3, 2, 4), 1: (3, 1, 2)}),
    ((3, 3), {(1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1}, None, {0: (1, 3, 2), 1: (2, 1, 3)}),
]


@pytest.mark.parametrize("factors,branch,chars,degrees", ORACLE_CASES)
def test_branch_solutions_match_a_brute_force_box(factors, branch, chars, degrees):
    group = make_group(factors)
    witness = make_cover(group, 0, branch)
    profile = eigen_profile(witness)
    if chars is None:
        chars = [chi for chi, dim in sorted(profile.items()) if dim == 1 and chi != oracle.zero(group)]
    assert chars
    checked = 0
    for chi0 in chars:
        for b, degs in degrees.items():
            # one window solve over every degree from the least to the greatest tried
            window = range(min(degs), max(degs) + 1)
            *fixed, (target, _) = _indexed(group, _requirements(witness, chi0, b, 0))
            solved = _branch_solutions(group, tuple(fixed), target, window)
            els = group.elements()
            found = [(d, [(els[i], m) for i, m in v]) for d, v in solved]
            assert found == [
                (degree, vec)
                for degree in window
                for vec in _box_solutions(group, _requirements(witness, chi0, b, degree))
            ]
            for degree in degs:  # and each degree alone, a window whose top is its bottom
                alone = _branch_solutions(group, tuple(fixed), target, range(degree, degree + 1))
                assert alone == [(d, v) for d, v in solved if d == degree]
            checked += len(found)
    assert checked


def test_twist_is_fixed_only_over_a_non_cyclic_quotient():
    group = make_group([2, 2])
    cyclic = make_cover(group, 1, {(1, 0): 2}, twist=((0, 1), (0, 0)))
    assert _twist_interchangeable(cyclic)
    assert len(_stabilizer(cyclic)) == 2
    # All six automorphisms fix the empty branch; only the identity fixes the twist.
    non_cyclic = make_cover(group, 1, {}, twist=((1, 0), (0, 1)))
    assert not _twist_interchangeable(non_cyclic)
    assert len(_stabilizer(non_cyclic)) == 1


def _quotient_is_cyclic(cover):
    """Brute force: some g has order |G/Omega| modulo Omega, the subgroup the
    branch elements span, closed under coordinate sums."""
    group = cover.group
    omega = oracle.span(group, [e for e, _ in cover.branch])
    index = group.order // len(omega)
    for g in group.elements():
        k = 1
        while oracle.scale(group, k, g) not in omega:
            k += 1
        if k == index:
            return True
    return False


def test_non_cyclic_twisted_witnesses_first_appear_at_genus_five():
    found = []
    visited = 0
    for genus_f in range(2, 6):
        for grp in abelian_groups_up_to(4 * genus_f + 4):
            for a in range(1, genus_f + 1):
                for row in _actions_cell(genus_f, a, grp.factors):
                    interchangeable = _twist_interchangeable(row.witness)
                    assert interchangeable == _quotient_is_cyclic(row.witness), row.witness
                    visited += 1
                    if row.witness.twist and not interchangeable:
                        found.append((genus_f, a, grp.factors))
    assert visited == 29
    assert found == [(5, 2, (2, 2)), (5, 1, (2, 2, 2)), (5, 1, (2, 4))]
    for _, a, factors in found:
        assert classify_cell(factors, 5, a, 0, (3, 10)) == []


def test_genus_two_base_zero_families():
    rows = rows_for([2, 2], 2, 0, 0)
    assert len(rows) == 3
    assert all(r.kind == "family" for r in rows)
    assert all(r.chi0 == (0, 1) for r in rows)
    assert all((r.pg_lo, r.pg_hi) == (3, 8) for r in rows)
    assert all(len(r.members) == 6 for r in rows)
    assert all((r.forms["p_g"].slope, r.forms["p_g"].intercept) == (1, 0) for r in rows)
    assert all((r.forms["q"].slope, r.forms["q"].intercept) == (0, 0) for r in rows)
    assert [forms5(r) for r in rows] == [
        ((2, 1), (4, 0), (8, 16), (1, 1), (8, 12)),
        ((2, 0), (4, -2), (8, 20), (1, 1), (8, 14)),
        ((2, -1), (4, -4), (8, 24), (1, 1), (8, 16)),
    ]
    assert [mult_multiset(r.members[0].cover_d) for r in rows] == [
        (2, 8),
        (1, 1, 7),
        (2, 6),
    ]


def test_genus_two_base_one_family():
    rows = rows_for([2, 2], 2, 0, 1)
    assert len(rows) == 1
    row = rows[0]
    assert row.kind == "family"
    assert (row.forms["q"].slope, row.forms["q"].intercept) == (0, 1)
    assert forms5(row) == ((2, 1), (4, 0), (8, 0), (1, 0), (8, 0))
    first = row.members[0]
    assert mult_multiset(first.cover_d) == (6,)
    assert first.cover_d.base_genus == 1
    assert len(first.cover_d.twist) == 2
    assert first.genus_d == 7
    assert first.report.q == 1


def test_genus_two_free_quotient_family():
    rows = rows_for([2], 2, 1, 0)
    assert len(rows) == 1
    row = rows[0]
    assert (row.forms["q"].slope, row.forms["q"].intercept) == (0, 1)
    assert forms5(row) == ((1, 0), (4, -4), (4, 4), (1, 0), (8, 4))
    first = row.members[0]
    assert mult_multiset(first.cover_d) == (8,)
    assert first.genus_d == 3


def test_genus_three_elliptic_quotient_families():
    rows = rows_for([2, 2], 3, 1, 0)
    assert len(rows) == 3
    assert all(r.kind == "family" for r in rows)
    assert all((r.forms["q"].slope, r.forms["q"].intercept) == (0, 1) for r in rows)
    assert [forms5(r) for r in rows] == [
        ((2, 1), (8, 0), (0, 0), (1, 0), (4, 0)),
        ((2, 0), (8, -4), (0, 8), (1, 0), (4, 4)),
        ((2, -1), (8, -8), (0, 16), (1, 0), (4, 8)),
    ]


def test_genus_three_base_one_families():
    for factors, g_d_form in (([2, 2], (2, 1)), ([2, 2, 2], (4, 1))):
        rows = rows_for(factors, 3, 0, 1)
        assert len(rows) == 1
        row = rows[0]
        assert (row.forms["q"].slope, row.forms["q"].intercept) == (0, 1)
        assert forms5(row) == (g_d_form, (8, 0), (0, 0), (1, 0), (4, 0))
        assert mult_multiset(row.members[0].cover_d) == (6,)


def test_genus_three_double_quotient_family():
    rows = rows_for([2], 3, 2, 0)
    assert len(rows) == 1
    row = rows[0]
    assert row.members[0].cover_f.branch == ()
    assert (row.forms["q"].slope, row.forms["q"].intercept) == (0, 2)
    assert forms5(row) == ((1, 0), (8, -8), (0, 0), (1, -1), (4, -4))


def test_genus_three_large_cyclic_base_one_family():
    rows = rows_for([2, 8], 3, 0, 1)
    assert len(rows) == 1
    row = rows[0]
    assert (row.forms["q"].slope, row.forms["q"].intercept) == (0, 1)
    assert forms5(row) == ((8, 1), (8, 0), (0, 0), (1, 0), (4, 0))
    first = row.members[0]
    assert mult_multiset(first.cover_d) == (6,)
    assert first.genus_d == 25


def test_genus_three_klein_base_zero_families():
    rows = rows_for([2, 2], 3, 0, 0)
    assert len(rows) == 3
    assert [forms5(r) for r in rows] == [
        ((2, 1), (8, 0), (0, 16), (1, 1), (4, 12)),
        ((2, 0), (8, -4), (0, 24), (1, 1), (4, 16)),
        ((2, -1), (8, -8), (0, 32), (1, 1), (4, 20)),
    ]
    assert [mult_multiset(r.members[0].cover_d) for r in rows] == [
        (2, 8),
        (1, 1, 7),
        (2, 6),
    ]


def test_genus_three_rank_three_cell():
    rows = rows_for([2, 2, 2], 3, 0, 0)
    assert len(rows) == 12
    assert all(r.kind == "family" for r in rows)
    assert len({r.members[0].cover_f for r in rows}) == 1
    counts = Counter(forms5(r) for r in rows)
    assert counts == {
        ((4, 5), (8, 8), (0, 0), (1, 1), (4, 4)): 1,
        ((4, 3), (8, 4), (0, 16), (1, 1), (4, 8)): 2,
        ((4, 1), (8, 0), (0, 32), (1, 1), (4, 12)): 4,
        ((4, -1), (8, -4), (0, 48), (1, 1), (4, 16)): 3,
        ((4, -3), (8, -8), (0, 64), (1, 1), (4, 20)): 2,
    }
    top = [r for r in rows if forms5(r)[0] == (4, 5)][0]
    first = top.members[0]
    assert first.p_g == 3
    assert first.genus_d == 17
    assert first.report.chi == 4
    assert first.report.euler_e == 16
    assert first.report.K2 == 32
    assert first.report.t_z == 0


def bounded_orders(row):
    # Multiplicities of capped elements stay fixed along a family while the
    # growing element's count changes, and element orders survive relabeling.
    group = row.members[0].cover_f.group
    first = dict(row.members[0].cover_d.branch)
    last = dict(row.members[-1].cover_d.branch)
    orders = []
    for e, m in last.items():
        if first.get(e) == m:
            orders.extend([oracle.order(group, e)] * m)
    return tuple(sorted(orders))


def test_genus_three_mixed_cyclic_cell():
    rows = rows_for([2, 8], 3, 0, 0)
    assert len(rows) == 22
    assert all(r.kind == "family" for r in rows)
    assert len({r.members[0].cover_f for r in rows}) == 1
    assert all(r.forms["g_D"].slope == 8 for r in rows)
    assert all((r.forms["chi"].slope, r.forms["chi"].intercept) == (1, 1) for r in rows)
    intercepts = sorted(r.forms["g_D"].intercept for r in rows)
    assert intercepts == [
        -5, -5, -3, -3, -1, -1, -1, -1, 1, 1, 1,
        3, 3, 3, 5, 5, 5, 5, 7, 9, 9, 13,
    ]
    by_shape = {}
    for r in rows:
        by_shape.setdefault(bounded_orders(r), []).append(r.forms["g_D"].intercept)
    assert {k: sorted(v) for k, v in by_shape.items()} == {
        (8, 8): [-5, -1, -1, 3],
        (4, 8, 8): [-3, 1, 1, 5, 5, 9],
        (2, 8, 8): [-5, -1, -1, 3, 3, 7],
        (8, 8, 8, 8): [-3, 1, 5, 5, 9, 13],
    }


def test_classify_merges_cells_and_is_deterministic():
    rows1 = classify(3, groups=[[2, 2]], pg_range=(3, 5))
    rows2 = classify(3, groups=[[2, 2]], pg_range=(3, 5))
    assert rows1 == rows2
    assert [(r.quotient_genus_a, r.quotient_genus_b) for r in rows1] == [
        (0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 0), (1, 0),
    ]


def test_short_ranges_fall_back_to_sporadic_rows():
    rows = rows_for([2, 2], 2, 0, 0, (3, 4))
    assert len(rows) == 6
    assert all(r.kind == "sporadic" for r in rows)
    assert all(r.pg_lo == r.pg_hi for r in rows)
    got = {(r.forms["p_g"].intercept, r.forms["K2"].intercept) for r in rows}
    assert got == {(3, 12), (3, 10), (3, 8), (4, 16), (4, 14), (4, 12)}


def _inverse(perm) -> tuple[int, ...]:
    inverse = [0] * len(perm)
    for i, j in enumerate(perm):
        inverse[j] = i
    return tuple(inverse)


def _canonical_pair(stab, chi0: int, branch: tuple):
    """Smallest image of the pair (character, branch data) under the
    (char_perm, perm) pairs of a stabilizer, all in index space.

    Pulling the character back along alpha pairs with pushing the branch
    forward along alpha's inverse, so both sides move as one solution; the
    character decides first.
    """
    return min((pull[chi0], image(_inverse(perm), branch)) for pull, perm in stab)


def test_the_fixers_of_every_pencil_character_are_closed_under_inverse():
    # pair_solutions canonicalizes a solution with the perms of the
    # automorphisms fixing its character, not with their inverses, which
    # gives the same minimum only because those fixers form a group.
    witnesses = pairs = largest = 0
    for genus_f in range(2, 6):
        for group in groups_acting_on(genus_f):
            for a in range(genus_f + 1):
                for row in _actions_cell(genus_f, a, group.factors):
                    witnesses += 1
                    stab = _stabilizer(row.witness)
                    for chi0, dim in enumerate(row.witness.dims):
                        if chi0 and dim == 1:
                            fixers = {perm for pull, perm in stab if pull[chi0] == chi0}
                            assert {_inverse(perm) for perm in fixers} == fixers
                            pairs += 1
                            largest = max(largest, len(fixers))
    assert (witnesses, pairs, largest) == (129, 346, 24)


def test_search_is_complete_within_a_box():
    # Scan every branch vector with multiplicities up to 12 against the same
    # first curve and keep the sandwiches whose canonical image is a pencil;
    # the targeted search must find exactly the same set.
    sols = classify_cell([2, 2], 2, 0, 0, (3, 3))
    assert len(sols) == 3
    f_curves = {s.cover_f for s in sols}
    assert len(f_curves) == 1
    cover_f = f_curves.pop()
    group = make_group([2, 2])
    stab = _stabilizer(cover_f)
    index = group.index

    def indexed(chi, branch):
        return index[chi], tuple((index[e], m) for e, m in branch)

    expected = {indexed(s.chi0, s.cover_d.branch) for s in sols}
    found = set()
    elems = sorted(group.elements()[1:])
    for d1 in range(13):
        for d2 in range(13):
            for d3 in range(13):
                branch = {e: d for e, d in zip(elems, (d1, d2, d3)) if d}
                if not branch:
                    continue
                try:
                    cover_d = make_cover(group, 0, branch)
                except InvalidInputError:
                    continue
                if genus(cover_d) < 2:
                    continue
                report = invariants(make_sandwich(cover_f, cover_d))
                if report.p_g != 3 or report.canonical_character is None:
                    continue
                found.add(_canonical_pair(stab, *indexed(report.canonical_character, cover_d.branch)))
    assert found == expected


def test_every_search_cell_matches_a_brute_force_over_small_second_curves():
    # Pair every witness class F with every second curve D of genus up to 14
    # and keep the canonical pencils with p_g in 3..12. This avoids the
    # classifier's degree equations, stabilizer and twist completion; it
    # shares make_cover, the cover enumerator and invariants.
    max_genus_d, pg = 14, (3, 12)
    curves_d = {}
    cells = total = 0
    for genus_f in (2, 3):
        for factors, a, b, _ in search_cells(genus_f):
            group = make_group(factors)
            if (factors, b) not in curves_d:
                curves_d[factors, b] = [
                    d for g_d in range(2, max_genus_d + 1) for d in enumerate_covers(group, b, genus=g_d)
                ]
            found = set()
            for cover_f in enumerate_covers(group, a, genus=genus_f, up_to_aut=True):
                for cover_d in curves_d[factors, b]:
                    sw = make_sandwich(cover_f, cover_d)
                    p_g, chi = oracle.pencil(sw)
                    if pg[0] <= p_g <= pg[1] and chi is not None:
                        r = invariants(sw)
                        assert (r.p_g, r.canonical_character) == (p_g, chi)
                        found.add((r.p_g, genus(cover_d), r.K2, r.t_z, r.euler_e))
            expected = {
                (s.p_g, s.genus_d, s.report.K2, s.report.t_z, s.report.euler_e)
                for s in classify_cell(factors, genus_f, a, b, pg)
                if s.genus_d <= max_genus_d
            }
            assert found == expected, (factors, a, b, genus_f)
            cells += 1
            total += len(found)
    assert (cells, total) == (288, 107)


def _every_character_route(factors, genus_f, a, b, pg):
    """(character, branch) index pairs, in order, that reach make_cover's
    checks when every one-dimensional character is solved and each vector is
    put in canonical form over the whole stabilizer, keeping first
    occurrences; and the number of solver runs that takes."""
    if b >= 2 or (a >= 1 and b >= 1) or a > genus_f:
        return [], 0
    group = make_group(factors)
    lo, hi = pg
    pairs = []
    runs = 0
    for row in _actions_cell(genus_f, a, group.factors):
        witness = row.witness
        stab = _stabilizer(witness)
        seen = set()
        for chi0 in [chi for chi, dim in enumerate(witness.dims) if chi and dim == 1]:
            runs += 1
            pair = _pencil_pair(witness, chi0, b)
            for _, branch in _branch_solutions(group, pair.fixed, pair.target, range(lo + 1 - b, hi + 2 - b)):
                canon = _canonical_pair(stab, chi0, branch)
                if canon in seen:
                    continue
                seen.add(canon)
                if _complete_twist(group, b, tuple(i for i, _ in canon[1])) is not None:
                    pairs.append(canon)
    return pairs, runs


@pytest.mark.parametrize("genus_f, pg", [(2, (3, 12)), (3, (3, 5))])
def test_one_character_per_orbit_hands_make_cover_the_same_sequence(monkeypatch, genus_f, pg):
    # classify_cell solves only the smallest character of each stabilizer
    # orbit; the every-character route must reach make_cover's checks, which
    # classify_cell calls as _checked_cover, with the same pairs in the same
    # order, cell by cell.
    handed = []
    solved = []
    real_branch_solutions = classifier._branch_solutions
    real_checked_cover = classifier._checked_cover

    def recording_branch_solutions(group, fixed, target, degrees):
        solved.append(group.neg_index[target])
        return real_branch_solutions(group, fixed, target, degrees)

    def recording_checked_cover(group, base_genus, branch_ix, twist_ix):
        handed.append((solved[-1], branch_ix))
        return real_checked_cover(group, base_genus, branch_ix, twist_ix)

    monkeypatch.setattr(classifier, "_branch_solutions", recording_branch_solutions)
    monkeypatch.setattr(classifier, "_checked_cover", recording_checked_cover)
    total = runs = 0
    for factors, a, b, _ in search_cells(genus_f):
        expected, cell_runs = _every_character_route(factors, genus_f, a, b, pg)
        handed.clear()
        classify_cell(factors, genus_f, a, b, pg)
        assert handed == expected, (factors, a, b)
        total += len(expected)
        runs += cell_runs
    assert total > 100
    assert len(solved) < runs


def test_each_stabilizer_orbit_of_characters_is_solved_once(monkeypatch):
    # The (2,2) genus-two witness over a rational base has two one-dimensional
    # characters, swapped by its stabilizer: one solver run covers both.
    calls = Counter()
    real = classifier._branch_solutions

    def counting(*args):
        calls["solve"] += 1
        return real(*args)

    monkeypatch.setattr(classifier, "_branch_solutions", counting)
    assert classify_cell([2, 2], 2, 0, 0, (3, 8))
    assert calls["solve"] == 1


def test_generation_is_checked_once_per_branch_vector(monkeypatch):
    _actions_cell(3, 0, (2, 2, 2))  # warm the witness cache, whose enumeration checks generation too
    calls = Counter()
    real_generates = groups.FiniteAbelianGroup.generates
    real_checked_cover = classifier._checked_cover

    def counting_generates(self, elems):
        calls["generates"] += 1
        return real_generates(self, elems)

    def counting_checked_cover(*args, **kwargs):
        calls["checked_cover"] += 1
        try:
            return real_checked_cover(*args, **kwargs)
        except DisconnectedCoverError:
            calls["disconnected"] += 1
            raise

    monkeypatch.setattr(groups.FiniteAbelianGroup, "generates", counting_generates)
    monkeypatch.setattr(classifier, "_checked_cover", counting_checked_cover)
    solutions = classify_cell((2, 2, 2), 3, 0, 0, (3, 6))
    assert len(solutions) == 48
    # Over the rational base the twist table's kernel mask already drops
    # branch data that do not generate, so no cover check is spent on them.
    assert calls["disconnected"] == 0
    assert calls["generates"] == calls["checked_cover"]


def test_a_solution_that_is_not_a_cover_raises(monkeypatch):
    # (1,1) + (2,1) generates (2,2) but sums to a nonzero element, so
    # make_cover's checks reject it; the solver can never return such data.
    group = make_group((2, 2))
    assert group.generates([1, 2])

    def not_closing(group, fixed, target, degrees):
        return [(degrees[0], ((1, 1), (2, 1)))]

    monkeypatch.setattr(classifier, "_branch_solutions", not_closing)
    with pytest.raises(InternalConsistencyError, match="not a cover"):
        classify_cell((2, 2), 2, 0, 0, (3, 3))


@pytest.mark.parametrize("genus_f, pg", [(2, (3, 30)), (3, (3, 8)), (4, (3, 12)), (5, (3, 12))])
def test_every_solution_matches_the_one_shot_route(genus_f, pg):
    # classify_cell checks solver output with make_cover's checks and F's side
    # of invariants once per pencil pair; rebuilding each surface from its
    # element tuples through the public one-shot route must give the same
    # record, field by field.
    cells = search_cells(genus_f)
    checked = shared = 0
    for factors, a, b, _ in cells:
        group = make_group(factors)
        classes = {}  # (id(witness), chi0) -> ids of the pair's singular classes
        for sol in classify_cell(factors, genus_f, a, b, pg):
            cover_d = make_cover(group, b, sol.cover_d.branch, sol.cover_d.twist)
            report = invariants(make_sandwich(sol.cover_f, cover_d))
            rebuilt = SurfaceSolution(
                report.p_g, report.canonical_character, sol.cover_f, cover_d, genus(cover_d), report
            )
            for field in SurfaceSolution._fields:
                assert getattr(sol, field) == getattr(rebuilt, field), (factors, a, b, field)
            assert sol == rebuilt
            ids = classes.setdefault((id(sol.cover_f), sol.chi0), set())
            shared += sum(id(s) in ids for s in sol.report.sing)
            ids.update(map(id, sol.report.sing))
            checked += 1
    assert checked == {2: 1883, 3: 321, 4: 0, 5: 1}[genus_f]
    # Equal singular classes within one pair are one object, and the rows
    # still pickle round-trip equal.
    rows = classify_cells(cells, pg)
    assert pickle.loads(pickle.dumps(rows)) == rows
    if genus_f == 2:
        assert shared > checked


@pytest.mark.parametrize("genus_f, pg, solutions", [(2, (3, 30), 1883), (3, (3, 8), 321)])
def test_every_classified_singular_locus_matches_the_coordinate_walk(monkeypatch, genus_f, pg, solutions):
    # classify and invariants read the singular locus from one support plan
    # per (pencil pair, support of D); the coordinate walk recomputes every
    # point type from element tuples for every pair of branch points. Each
    # plan is built once, for the 60 combinations that occur at either genus.
    built = []
    real = sandwich._support_plan

    def counting(grp, branch_f, support):
        built.append(support)
        return real(grp, branch_f, support)

    monkeypatch.setattr(sandwich, "_support_plan", counting)
    members = [sol for row in classify_cells(search_cells(genus_f), pg) for sol in row.members]
    assert len(members) == solutions
    for sol in members:
        assert sol.report.sing == _oracle_locus(Sandwich(sol.cover_f, sol.cover_d))
    combinations = {
        (sol.cover_f, sol.chi0, sol.cover_d.base_genus, tuple(i for i, _ in sol.cover_d.branch_ix))
        for sol in members
    }
    assert len(built) == len(combinations) == 60


def _per_solution_bucket_key(group, sol):
    """The bounded multiplicities and free residues of a solution, computed
    afresh from coordinates, with every element mapped to its index at the
    end."""
    profile_f = eigen_profile(sol.cover_f)
    constraint_chars = [
        oracle.neg(group, chi)
        for chi, dim in sorted(profile_f.items())
        if dim and chi not in (oracle.zero(group), sol.chi0)
    ]
    target = oracle.neg(group, sol.chi0)
    branch = dict(sol.cover_d.branch)
    bounded = []
    residues = []
    for e in group.elements()[1:]:
        if any(oracle.pair_num(group, chi, e) for chi in constraint_chars):
            if branch.get(e):
                bounded.append((group.index[e], branch[e]))
        else:
            step = group.exponent // gcd(group.exponent, oracle.pair_num(group, target, e))
            residues.append((group.index[e], branch.get(e, 0) % step))
    return tuple(bounded), tuple(residues)


@pytest.mark.parametrize("factors, genus_f, pg, least", [
    ((2, 6), 2, (3, 30), 1452),
    ((2, 2, 2), 3, (3, 8), 78),
])
def test_pencil_pair_split_matches_the_per_solution_key(monkeypatch, factors, genus_f, pg, least):
    # fit_families keys each solution from the layout of its (pencil pair,
    # support), worked out once; every key it builds must equal the key
    # computed afresh from coordinates.
    group = make_group(factors)
    keys, layouts = [], []
    real_bucket_key, real_key_layout = classifier._bucket_key, classifier._key_layout

    def recording_bucket_key(layout, mults):
        keys.append(real_bucket_key(layout, mults))
        return keys[-1]

    def recording_key_layout(pair, support):
        layouts.append((pair.witness, pair.chi0, pair.b, support))
        return real_key_layout(pair, support)

    monkeypatch.setattr(classifier, "_bucket_key", recording_bucket_key)
    monkeypatch.setattr(classifier, "_key_layout", recording_key_layout)
    checked = 0
    for a in range(genus_f + 1):
        for b in (0, 1):
            solutions = classify_cell(factors, genus_f, a, b, pg)
            keys.clear()
            layouts.clear()
            fit_families(solutions)
            assert keys == [_per_solution_bucket_key(group, sol) for sol in solutions]
            supports = {
                (sol.cover_f, group.index[sol.chi0], b, tuple(i for i, _ in sol.cover_d.branch_ix))
                for sol in solutions
            }
            assert sorted(layouts, key=repr) == sorted(supports, key=repr)
            checked += len(solutions)
    assert checked >= least


def test_the_klein_genus_two_cell_has_one_hand_worked_pencil_pair():
    # F has the one-dimensional characters (0,1) and (1,0), at indices 1 and
    # 2, swapped by its stabilizer; the pair sits at the smaller. Over an
    # elliptic base D needs degree 0 at -(1,0) = (1,0), which bounds the
    # elements (1,0) and (1,1); (0,1) pairs only with the target -(0,1), with
    # numerator 1 over the exponent 2, so its multiplicity moves in steps of 2.
    group = make_group((2, 2))
    (pair,) = pencil_pairs(group, 2, 0, 1)
    witness = make_cover(group, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3})
    assert pair == PencilPair(witness, 1, 1, ((2, 0),), 1, ((0, 1, 2, 3),), (2, 3), ((1, 2),))


def test_pencil_pairs_are_counted_per_fiber_genus(monkeypatch):
    # Over the search cells classify_cell does not return early on: those
    # with b = 0, or with a = 0 and b = 1.
    counts = {
        genus_f: sum(
            len(list(pencil_pairs(make_group(factors), genus_f, a, b)))
            for factors, a, b, _ in search_cells(genus_f)
            if b == 0 or a == 0
        )
        for genus_f in range(2, 6)
    }
    assert counts == {2: 25, 3: 88, 4: 135, 5: 197}
    # classify_cell runs the solver once per pair.
    calls = Counter()
    real = classifier._branch_solutions

    def counting(*args):
        calls["solve"] += 1
        return real(*args)

    monkeypatch.setattr(classifier, "_branch_solutions", counting)
    for genus_f in (2, 3):
        for factors, a, b, _ in search_cells(genus_f):
            classify_cell(factors, genus_f, a, b, (3, 3))
    assert calls["solve"] == counts[2] + counts[3]


def test_fit_families_never_merges_two_pencil_pairs():
    # Fitting every g_F = 2 solution at once gives the rows of fitting each
    # cell alone, and every row holds the solutions of one pencil pair.
    pg = (3, 12)
    cells = search_cells(2)
    pooled = [sol for factors, a, b, genus_f in cells for sol in classify_cell(factors, genus_f, a, b, pg)]
    rows = fit_families(pooled)
    assert rows == classify_cells(cells, pg)
    for row in rows:
        assert len({(s.cover_f, s.chi0, s.cover_d.base_genus) for s in row.members}) == 1
