"""Oracle tests for diagonal quotient surfaces and their invariants."""

from __future__ import annotations

import warnings

import pytest

from isopencil.covers import eigen_profile, genus, make_cover
from isopencil.errors import InvalidInputError, NotApplicableError
from isopencil.groups import make_group
from isopencil.sandwich import (
    InvariantReport,
    SingularClass,
    canonical_character,
    geometric_genus,
    invariants,
    irregularity,
    make_sandwich,
    singular_locus,
)


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
    assert geometric_genus(sw) == 4
    rep = invariants(sw)
    assert (rep.p_g, rep.q, rep.chi) == (4, 0, 5)
    assert (rep.euler_e, rep.K2, rep.t_z) == (56, 4, 36)
    assert rep.sing == (SingularClass(2, 1, 36, 36),)
    # A single character carries all sections but with a 2-dimensional half.
    assert canonical_character(sw) is None


def test_irregular_pair_over_elliptic_bases():
    g = make_group([2])
    f = make_cover(g, 1, {(1,): 2}, twist=((0,), (0,)))
    sw = make_sandwich(f, f)
    assert genus(f) == 2
    assert irregularity(sw) == 2
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
    assert geometric_genus(sw) == 1
    with pytest.raises(NotApplicableError):
        canonical_character(sw)
    assert invariants(sw).canonical_character is None


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
        pf.get(chi, 0) * pd.get(g.neg(chi), 0) for chi in g.elements()
    )
    assert geometric_genus(sw) == expected == 3


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
