"""Oracle tests for diagonal quotient surfaces and their invariants."""

from __future__ import annotations

import warnings
from math import gcd

import pytest

import oracle
from isopencil import sandwich
from isopencil.atlas import abelian_groups_up_to
from isopencil.classifier import classify_cell
from isopencil.covers import eigen_profile, genus, make_cover
from isopencil.errors import InternalConsistencyError, InvalidInputError
from isopencil.groups import make_group
from isopencil.sandwich import (
    InvariantReport,
    SingularClass,
    invariants,
    make_sandwich,
    singular_locus,
)
from isopencil.singularities import canonical_type


def _klein_pair():
    # F: genus-2 bidouble cover of the line, D grows with the (0,1) branch degree.
    g = make_group([2, 2])
    f = make_cover(g, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    d = make_cover(g, 0, {(1, 0): 2, (0, 1): 8})
    return make_sandwich(f, d)


def _eight_group_pair():
    # Both branch supports span but share no involution, so the action on Z is free.
    g = make_group([2, 2, 2])
    f = make_cover(g, 0, {(1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1, (0, 0, 1): 2})
    d = make_cover(g, 0, {(1, 0, 1): 2, (0, 1, 1): 2, (1, 1, 1): 8})
    return make_sandwich(f, d)


def _elliptic_base_pair():
    g = make_group([2, 8])
    f = make_cover(g, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    d = make_cover(g, 1, {(1, 0): 8}, twist=((0, 0), (0, 1)))
    return make_sandwich(f, d)


def test_make_sandwich_rejects_mismatched_groups():
    f = make_cover(make_group([2]), 0, {(1,): 6})
    d3 = make_cover(make_group([3]), 0, {(1,): 3, (2,): 3})
    d22 = make_cover(make_group([2, 2]), 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    with pytest.raises(InvalidInputError):
        make_sandwich(f, d3)
    with pytest.raises(InvalidInputError):
        make_sandwich(f, d22)


def test_make_sandwich_rejects_low_genus_factors():
    g = make_group([2])
    hyper = make_cover(g, 0, {(1,): 6})
    elliptic = make_cover(g, 1, {}, twist=((1,), (0,)))
    rational = make_cover(g, 0, {(1,): 2})
    assert genus(elliptic) == 1
    assert genus(rational) == 0
    for bad in (elliptic, rational):
        with pytest.raises(InvalidInputError):
            make_sandwich(hyper, bad)
        with pytest.raises(InvalidInputError):
            make_sandwich(bad, hyper)


def test_nodes_only_invariants():
    sw = _klein_pair()
    assert genus(sw.cover_f) == 2
    assert genus(sw.cover_d) == 7
    rep = invariants(sw)
    assert isinstance(rep, InvariantReport)
    assert rep.p_g == 3
    assert rep.q == 0
    assert rep.chi == 4
    assert rep.euler_e == 36
    assert rep.K2 == 12
    assert rep.t_z == 40
    assert rep.sing == (SingularClass(2, 1, 20, 40),)
    assert rep.canonical_character == (0, 1)


def test_singular_locus_splits_by_shared_stabilizer():
    sw = _klein_pair()
    # (1,0) meets (1,0) in 8 Z-points, (0,1) meets (0,1) in 32; (1,1) meets nothing.
    locus = singular_locus(sw)
    assert locus == (SingularClass(2, 1, 20, 40),)


def test_free_eight_group_member():
    sw = _eight_group_pair()
    assert genus(sw.cover_f) == 3
    assert genus(sw.cover_d) == 17
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (3, 0, 4)
    assert (rep.euler_e, rep.K2, rep.t_z) == (16, 32, 0)
    assert rep.sing == ()
    assert rep.canonical_character == (1, 1, 1)


def test_elliptic_base_free_member():
    sw = _elliptic_base_pair()
    assert genus(sw.cover_f) == 3
    assert genus(sw.cover_d) == 33
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (4, 1, 4)
    assert (rep.euler_e, rep.K2, rep.t_z) == (16, 32, 0)
    assert rep.canonical_character == (1, 2)


def test_mixed_singularity_types():
    g = make_group([4])
    f = make_cover(g, 0, {(1,): 1, (3,): 1, (2,): 2})
    d = make_cover(g, 0, {(1,): 2, (3,): 2})
    sw = make_sandwich(f, d)
    assert genus(f) == 2 and genus(d) == 3
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (2, 0, 3)
    assert rep.t_z == 24
    assert rep.sing == (
        SingularClass(2, 1, 8, 16),
        SingularClass(4, 1, 4, 4),
        SingularClass(4, 3, 4, 4),
    )
    assert rep.euler_e == 36
    assert rep.K2 == 0
    assert rep.canonical_character is None


def test_two_hyperelliptic_halves():
    g = make_group([2])
    f = make_cover(g, 0, {(1,): 6})
    sw = make_sandwich(f, f)
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (4, 0, 5)
    assert (rep.euler_e, rep.K2, rep.t_z) == (56, 4, 36)
    assert rep.sing == (SingularClass(2, 1, 36, 36),)
    # A single character carries all sections but with a 2-dimensional half.
    assert rep.canonical_character is None
    assert oracle.pencil(sw) == (4, None)


def test_irregular_pair_over_elliptic_bases():
    g = make_group([2])
    f = make_cover(g, 1, {(1,): 2}, twist=((0,), (0,)))
    sw = make_sandwich(f, f)
    assert genus(f) == 2
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (2, 2, 1)
    assert (rep.euler_e, rep.K2, rep.t_z) == (8, 4, 4)
    assert rep.sing == (SingularClass(2, 1, 4, 4),)
    assert rep.canonical_character is None


def test_canonical_character_needs_two_sections():
    g = make_group([2, 2])
    f = make_cover(g, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    d = make_cover(g, 0, {(0, 1): 1, (1, 1): 1, (1, 0): 3})
    sw = make_sandwich(f, d)
    rep = invariants(sw)
    # One character carries the one section, with a 1-dimensional half on F.
    assert oracle.eigen_profile(f)[(1, 0)] == oracle.eigen_profile(d)[(1, 0)] == 1
    assert (rep.p_g, rep.canonical_character) == oracle.pencil(sw) == (1, None)


def test_swap_keeps_numbers_but_not_orientation():
    sw = _klein_pair()
    swapped = make_sandwich(sw.cover_d, sw.cover_f)
    a, b = invariants(sw), invariants(swapped)
    assert (a.p_g, a.q, a.chi, a.euler_e, a.K2, a.t_z) == (
        b.p_g,
        b.q,
        b.chi,
        b.euler_e,
        b.K2,
        b.t_z,
    )
    assert a.sing == b.sing
    # The fiber side of the swapped pencil has a 3-dimensional eigenspace.
    assert b.canonical_character is None


def test_profiles_feed_geometric_genus():
    sw = _klein_pair()
    pf = eigen_profile(sw.cover_f)
    pd = eigen_profile(sw.cover_d)
    g = sw.cover_f.group
    expected = sum(
        pf.get(chi, 0) * pd.get(oracle.neg(g, chi), 0) for chi in g.elements()
    )
    assert invariants(sw).p_g == oracle.pencil(sw)[0] == expected == 3


def test_random_pairs_stay_within_the_bmy_bound(random_covers):
    by_group = {}
    for cover in random_covers:
        if genus(cover) >= 2:
            by_group.setdefault(cover.group.factors, []).append(cover)
    pairs = [(f, d) for covers in by_group.values() for f, d in zip(covers, covers[1:])]
    assert len(pairs) >= 800
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, d in pairs:
            report = invariants(make_sandwich(f, d))
            assert report.K2 <= 9 * report.chi


def test_invariants_builds_the_pairing_list_once(monkeypatch):
    calls = []
    real = sandwich._pairing_dims

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sandwich, "_pairing_dims", counting)
    for sw in (_klein_pair(), _eight_group_pair(), _elliptic_base_pair()):
        calls.clear()
        report = invariants(sw)
        assert len(calls) == 1
        assert (report.p_g, report.canonical_character) == oracle.pencil(sw)


def _oracle_point(g, h1, h2):
    """The per-pair body singular_locus ran before the point-type table, on coordinates.

    Returns (n, canonical (n, q), |G|/o1 * |G|/o2), or None when n == 1.
    """
    mult1 = oracle.multiples(g, h1)
    mult2 = oracle.multiples(g, h2)
    o1, o2 = len(mult1), len(mult2)
    n = len(set(mult1) & set(mult2))
    if n == 1:
        return None
    c = mult1[o1 // n]
    k2 = next(k for k in range(1, o2) if mult2[k] == c)
    assert k2 * n % o2 == 0
    q = k2 * n // o2
    assert 1 <= q < n and gcd(q, n) == 1
    return n, canonical_type(n, q), (g.order // o1) * (g.order // o2)


def _oracle_locus(sw):
    """singular_locus with every point type recomputed for every pair."""
    g = sw.group
    classes = {}
    for h1, d1 in sw.cover_f.branch:
        for h2, d2 in sw.cover_d.branch:
            point = _oracle_point(g, h1, h2)
            if point is None:
                continue
            n, key, unit = point
            z = d1 * d2 * unit
            assert z * n % g.order == 0
            bucket = classes.setdefault(key, [0, 0])
            bucket[0] += z * n // g.order
            bucket[1] += z
    return tuple(SingularClass(n, q, c, z) for (n, q), (c, z) in sorted(classes.items()))


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)],
    ids=lambda factors: ",".join(map(str, factors)) or "trivial",
)
def test_point_type_table_matches_the_per_pair_oracle(factors):
    sandwich._point_type.cache_clear()
    g = make_group(factors)
    els, index = g.elements(), g.index
    nonzero = els[1:]
    # Every ordered pair at once: singular_locus fills the cache from both branches.
    every = make_cover(g, 0, {e: 2 for e in nonzero})
    sw = sandwich.Sandwich(every, every)
    assert singular_locus(sw) == _oracle_locus(sw)
    assert sandwich._point_type.cache_info().misses == len(nonzero) ** 2
    for h1 in nonzero:
        for h2 in nonzero:
            assert sandwich._point_type(g, index[h1], index[h2]) == _oracle_point(g, h1, h2), (h1, h2)
    assert sandwich._point_type.cache_info().misses == len(nonzero) ** 2


def test_singular_locus_matches_the_per_pair_oracle(random_covers):
    by_group = {}
    for cover in random_covers:
        by_group.setdefault(cover.group.factors, []).append(cover)
    pairs = [(f, d) for covers in by_group.values() for f, d in zip(covers, covers[1:])]
    assert len(pairs) >= 900
    for f, d in pairs:
        sw = sandwich.Sandwich(f, d)
        assert singular_locus(sw) == _oracle_locus(sw)


def test_each_point_type_is_computed_once_per_group_and_pair(random_covers):
    sandwich._point_type.cache_clear()
    by_group = {}
    for cover in random_covers:
        by_group.setdefault(cover.group.factors, []).append(cover)
    pairs = []
    for factors, covers in by_group.items():
        for f, d in zip(covers, covers[1:]):
            # a fresh group object per pair, as parse_sandwich makes one per spec
            g = make_group(factors)
            pairs.append(
                (
                    make_cover(g, f.base_genus, f.branch, f.twist),
                    make_cover(g, d.base_genus, d.branch, d.twist),
                )
            )
    assert len(pairs) >= 900
    for _ in range(2):
        for f, d in pairs:
            singular_locus(sandwich.Sandwich(f, d))
    distinct = {
        (f.group.factors, h1, h2) for f, d in pairs for h1, _ in f.branch_ix for h2, _ in d.branch_ix
    }
    calls = 2 * sum(len(f.branch_ix) * len(d.branch_ix) for f, d in pairs)
    info = sandwich._point_type.cache_info()
    assert (info.misses, info.hits) == (len(distinct), calls - len(distinct))


def _singular_pairs():
    """Hand-worked sandwiches with singular points: nodes, then three types over Z/4."""
    g = make_group([4])
    mixed = make_sandwich(
        make_cover(g, 0, {(1,): 1, (3,): 1, (2,): 2}), make_cover(g, 0, {(1,): 2, (3,): 2})
    )
    return _klein_pair(), mixed


@pytest.mark.parametrize("plant", ["point", "orbit", "chain"])
def test_a_planted_plan_defect_fails_a_surface_check(monkeypatch, plant):
    # The support plan feeds the singular side of both routes to K^2, while
    # p_g, q and the genera come from the eigenspaces. One wrong point
    # coefficient or chain length in the plan must make the Euler
    # divisibility or K^2 by Noether against K^2 by resolution fail.
    real = sandwich._support_plan

    def planted(grp, branch_f, support):
        classes, chains, weights, lcd, nodal = real(grp, branch_f, support)
        n, q, points = classes[-1]
        if plant != "chain":  # one point more, or one whole orbit of points more
            points = [points[0] + (1 if plant == "point" else grp.order), *points[1:]]
        else:
            chains = (*chains[:-1], chains[-1] + 1)
        return (*classes[:-1], (n, q, points)), chains, weights, lcd, nodal

    for sw in _singular_pairs():
        invariants(sw)
    monkeypatch.setattr(sandwich, "_support_plan", planted)
    for sw in _singular_pairs():
        with pytest.raises(InternalConsistencyError, match="Euler number|canonical degree"):
            invariants(sw)
    # The classifier's surface stage reads the same plans.
    with pytest.raises(InternalConsistencyError, match="Euler number|canonical degree"):
        classify_cell((2, 2), 2, 0, 0, (3, 5))


def test_a_planted_point_count_fails_the_orbit_split_check():
    # Over two branch points with monodromies h1, h2 of orders o1, o2 and a
    # shared stabilizer of order n, (|G|/o1)(|G|/o2) points of F x D are
    # fixed, in orbits of size |G|/n. A group that miscounts its order by one
    # gives Z/3 a point count that does not split, and _point_type must say so.
    g = make_group([3])

    class Miscounted:
        order = g.order + 1
        _multiples = staticmethod(g._multiples)

    assert sandwich._point_type(g, 1, 1) == (3, (3, 1), 1)
    with pytest.raises(InternalConsistencyError, match="do not split into orbits"):
        sandwich._point_type(Miscounted(), 1, 1)
