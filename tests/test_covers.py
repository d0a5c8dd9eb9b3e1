"""Cover building data: validation, bundle degrees, eigenspace dims, genus."""

import inspect
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import oracle
from conftest import degrees_from_dims
from isopencil import classifier as classifier_module
from isopencil import covers as covers_module
from isopencil.atlas import abelian_groups_up_to
from isopencil.covers import (
    CoverData,
    canonical_cover_form,
    eigen_profile,
    enumerate_covers,
    genus,
    genus_rh,
    make_cover,
)
from isopencil.errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
)
from isopencil.groups import make_group

Z2 = make_group([2])
Z22 = make_group([2, 2])
Z28 = make_group([2, 8])
Z222 = make_group([2, 2, 2])


def test_make_cover_hyperelliptic():
    c = make_cover(Z2, 0, {(1,): 6})
    assert c.branch == (((1,), 6),)
    assert c.twist == ()


def test_make_cover_five_points():
    c = make_cover(Z22, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    assert sum(m for _, m in c.branch) == 5


def test_make_cover_sum_zero_violation():
    with pytest.raises(InvalidMonodromyError):
        make_cover(Z22, 0, {(1, 0): 1, (0, 1): 1})


def test_make_cover_rejects_identity_branch():
    with pytest.raises(InvalidInputError):
        make_cover(Z22, 0, {(0, 0): 2, (1, 1): 2})


def test_make_cover_drops_zero_mult_and_rejects_negative():
    c = make_cover(Z22, 0, {(1, 0): 2, (0, 1): 2, (1, 1): 0})
    assert all(m > 0 for _, m in c.branch)
    assert len(c.branch) == 2
    with pytest.raises(InvalidInputError):
        make_cover(Z22, 0, {(1, 0): -2})


def test_make_cover_disconnected():
    with pytest.raises(DisconnectedCoverError):
        make_cover(Z22, 0, {(1, 1): 4})


def test_make_cover_needs_two_branch_points_on_rational_base():
    with pytest.raises(InvalidMonodromyError):
        make_cover(Z2, 0, {})


def test_make_cover_twist_length():
    make_cover(Z22, 1, {(1, 1): 2}, twist=((1, 0), (0, 0)))
    with pytest.raises(InvalidInputError):
        make_cover(Z22, 1, {(1, 1): 2}, twist=((1, 0),))
    with pytest.raises(InvalidInputError):
        make_cover(Z22, 0, {(1, 0): 2, (0, 1): 2}, twist=((1, 0), (0, 1)))


def test_make_cover_free_elliptic():
    c = make_cover(Z2, 1, {}, twist=((1,), (0,)))
    assert genus(c) == 1


def test_bundle_degree_examples():
    c = make_cover(Z22, 0, {(1, 0): 2, (0, 1): 8})
    assert degrees_from_dims(c)[(0, 1)] == oracle.bundle_degree(c, (0, 1)) == 4
    assert degrees_from_dims(c)[(0, 0)] == oracle.bundle_degree(c, (0, 0)) == 0

    f = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    assert degrees_from_dims(f)[(0, 1)] == oracle.bundle_degree(f, (0, 1)) == 2


def test_eigen_dims_z2z8_action():
    f = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    dims = eigen_profile(f)
    assert dims == oracle.eigen_profile(f)
    support = {chi for chi in Z28.elements() if dims[chi] > 0}
    assert support == {(0, 1), (0, 3), (1, 2)}
    assert all(dims[chi] == 1 for chi in support)
    assert genus(f) == 3


def test_eigen_dims_elliptic_base():
    c = make_cover(Z22, 1, {(1, 1): 2}, twist=((1, 0), (0, 0)))
    dims = eigen_profile(c)
    assert dims[(0, 0)] == 1
    assert dims[(1, 0)] == 1
    assert dims[(0, 1)] == 1
    assert dims[(1, 1)] == 0
    assert genus(c) == 3


def test_eigen_dim_trivial_character_is_base_genus():
    c = make_cover(Z22, 1, {(1, 1): 2}, twist=((1, 0), (0, 0)))
    assert eigen_profile(c)[(0, 0)] == oracle.eigen_dim(c, (0, 0)) == 1
    h = make_cover(Z2, 0, {(1,): 6})
    assert eigen_profile(h)[(0,)] == oracle.eigen_dim(h, (0,)) == 0


def test_a_profile_of_unchecked_data_that_breaks_chevalley_weil_raises():
    # Neither can come out of make_cover: a branch that does not close, and
    # a rational-base branch that does not generate, so that a nontrivial
    # character has a degree-0 bundle.
    open_branch = ((Z22.index[(1, 0)], 1), (Z22.index[(0, 1)], 1))
    with pytest.raises(InternalConsistencyError, match="not integral"):
        covers_module._profile(Z22, 0, covers_module._numerators(Z22, open_branch))
    disconnected = ((Z22.index[(1, 0)], 2),)
    with pytest.raises(InternalConsistencyError, match="degree-0 bundle"):
        covers_module._profile(Z22, 0, covers_module._numerators(Z22, disconnected))


def test_genus_examples():
    assert genus(make_cover(Z22, 0, {(1, 1): 4, (1, 0): 2})) == 3
    assert genus(make_cover(Z222, 0, {(1, 0, 0): 8, (0, 1, 0): 2, (0, 0, 1): 2})) == 17
    assert genus(make_cover(Z2, 0, {(1,): 6})) == 2


def test_profile_sums_to_genus():
    c = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    assert sum(eigen_profile(c).values()) == genus(c)


def test_cached_profile_matches_the_per_character_route(random_covers):
    for c in random_covers:
        assert eigen_profile(c) == {chi: oracle.eigen_dim(c, chi) for chi in c.group.elements()}
        assert genus(c) == genus_rh(c)
    c = random_covers[0]
    first = eigen_profile(c)
    expected = dict(first)
    first[oracle.zero(c.group)] += 1
    first.clear()
    assert eigen_profile(c) == expected


def _fraction_genus_rh(cover):
    """Riemann-Hurwitz in Fractions, with element orders from the coordinates."""
    g = cover.group
    n = g.order
    total = Fraction(1 + n * (cover.base_genus - 1))
    for e, m in cover.branch:
        o = oracle.order(g, e)
        total += Fraction(n, 2) * m * Fraction(o - 1, o)
    return total


def test_integer_genus_rh_matches_the_fraction_formula(random_covers):
    for c in random_covers:
        assert genus_rh(c) == _fraction_genus_rh(c)
    # Unchecked data with an odd ramification count: non-integral either way.
    # genus_rh reads only the group, base genus and branch, so dims and genus
    # are left empty.
    odd = CoverData(Z2, 0, ((Z2.index[(1,)], 1),), (), dims=(), genus=None)
    assert _fraction_genus_rh(odd).denominator == 2
    with pytest.raises(InternalConsistencyError):
        genus_rh(odd)


def test_genus_check_fires_and_keeps_nothing_on_a_mismatch(monkeypatch):
    # Riemann-Hurwitz gives genus 2 for six points over Z/2; the planted profile sums to 3.
    monkeypatch.setattr(covers_module, "_profile", lambda grp, b, nums: (0, 3))
    with pytest.raises(InternalConsistencyError, match="eigenspace total 3 vs ramification count 2"):
        make_cover(Z2, 0, {(1,): 6})
    monkeypatch.undo()
    c = make_cover(Z2, 0, {(1,): 6})
    assert (c.dims, c.genus, genus(c)) == ((0, 2), 2, 2)


def _raised(build, *args):
    """The (class, message) of the error build(*args) raises."""
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "group, base_genus, branch, twist, error",
    [
        (Z22, 0, {(1, 0): 1, (1, 1): 1}, (), InvalidMonodromyError),  # sums to (0, 1)
        (Z2, 0, {(1,): 1}, (), InvalidMonodromyError),  # one point, which cannot close
        (Z2, 0, {}, (), InvalidMonodromyError),  # no point over P^1
        (Z22, 0, {(1, 0): 2}, (), DisconnectedCoverError),
        (Z22, 1, {}, ((1, 0), (1, 0)), DisconnectedCoverError),
    ],
)
def test_checked_cover_raises_what_make_cover_raises(group, base_genus, branch, twist, error):
    # make_cover resolves outside input to the normal form and hands it to
    # _checked_cover; the classifier calls _checked_cover on solver output.
    branch_ix = tuple(sorted((group.index[e], m) for e, m in branch.items()))
    twist_ix = tuple(group.index[t] for t in twist)
    raised = _raised(make_cover, group, base_genus, branch, twist)
    assert raised[0] is error
    assert _raised(covers_module._checked_cover, group, base_genus, branch_ix, twist_ix) == raised


def test_checked_cover_raises_what_make_cover_raises_on_a_genus_mismatch(monkeypatch):
    monkeypatch.setattr(covers_module, "_profile", lambda grp, b, nums: (0, 3))
    raised = _raised(make_cover, Z2, 0, {(1,): 6})
    assert raised == (InternalConsistencyError, "genus mismatch: eigenspace total 3 vs ramification count 2")
    assert _raised(covers_module._checked_cover, Z2, 0, ((1, 6),), ()) == raised


def test_pardini_carry_on_one_cover():
    c = make_cover(Z22, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    g = c.group
    degrees = degrees_from_dims(c)
    for chi in g.elements():
        for psi in g.elements():
            carry = 0
            for h, mult in c.branch:
                o = oracle.order(g, h)
                # <x, h> = a/o with a in [0, o)
                if sum(oracle.pairing(g, x, h) * o for x in (chi, psi)) >= o:
                    carry += mult
            lhs = degrees[chi] + degrees[psi] - degrees[oracle.add(g, chi, psi)]
            assert lhs == carry
            assert lhs == oracle.bundle_degree(c, chi) + oracle.bundle_degree(c, psi) - oracle.bundle_degree(
                c, oracle.add(g, chi, psi)
            )


def test_enumerate_covers_z3_genus2():
    covers = list(enumerate_covers(make_group([3]), 0, genus=2, up_to_aut=True))
    assert len(covers) == 1
    assert covers[0].branch == (((1,), 2), ((2,), 2))


def test_enumerate_covers_z22_genus2():
    covers = list(enumerate_covers(Z22, 0, genus=2, up_to_aut=True))
    assert len(covers) == 1
    mults = sorted(m for _, m in covers[0].branch)
    assert mults == [1, 1, 3]


def test_make_cover_validates_every_element_but_the_groups_own_tuples():
    els = Z28.elements()
    own_branch = [(els[Z28.index[(0, 7)]], 1), (els[Z28.index[(1, 4)]], 1), (els[Z28.index[(1, 5)]], 1)]
    copy_branch = [(tuple(list(e)), m) for e, m in own_branch]
    assert all(c is not o for (c, _), (o, _) in zip(copy_branch, own_branch))
    assert make_cover(Z28, 0, own_branch) == make_cover(Z28, 0, copy_branch)
    assert make_cover(Z28, 0, [([0, 7], 1), ([1, 4], 1), ([1, 5], 1)]) == make_cover(Z28, 0, own_branch)
    twist = (Z2.elements()[1], Z2.elements()[0])
    assert make_cover(Z2, 1, {}, twist) == make_cover(Z2, 1, {}, ((1,), tuple([0])))
    bad_branches = [
        [((True, 1), 1), ((1, 7), 1)],  # equal to (1, 1), but a bool coordinate
        [([1, 9], 1), ([1, 7], 1)],  # list with an out-of-range coordinate
        [((2, 0), 1), ((0, 0), 1)],  # out-of-range tuple
        [((1, 4, 0), 2)],  # wrong length
        [(([1], 0), 1)],  # unhashable coordinates
        # indices: each would be a valid cover if read as a list position
        [(-1, 1), (8, 1), (1, 1)],  # below 0; els[-1] is (1, 7)
        [(16, 1), (8, 1), (1, 1)],  # the order
        [(True, 1), (12, 1), (11, 1)],  # a bool, equal to index 1
        [(0, 1), (7, 1), (12, 1), (13, 1)],  # index 0, the identity
    ]
    for branch in bad_branches:
        with pytest.raises(InvalidInputError):
            make_cover(Z28, 0, branch)
    by_index = make_cover(Z28, 0, [(Z28.index[e], m) for e, m in own_branch])
    assert by_index == make_cover(Z28, 0, own_branch) and by_index.branch == tuple(own_branch)
    assert hash(by_index) == hash(make_cover(Z28, 0, copy_branch))
    assert make_cover(Z2, 1, {}, (1, 0)) == make_cover(Z2, 1, {}, twist)
    for twist in [((True,), (0,)), ([2], (0,)), ((1,), (-1,)), (-1, 0), (2, 0), (True, 0)]:
        with pytest.raises(InvalidInputError):
            make_cover(Z2, 1, {}, twist)


def _reference_make_cover(group, base_genus, branch, twist):
    """make_cover written the old way: validate every element, add the branch
    sum by coordinates, test generation by the spanned subgroup."""
    if not isinstance(base_genus, int) or isinstance(base_genus, bool) or base_genus < 0:
        raise InvalidInputError("base genus")
    merged = {}
    points = 0
    for elem, mult in branch.items() if isinstance(branch, dict) else branch:
        e = group.validate(elem)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise InvalidInputError("multiplicity")
        if mult == 0:
            continue
        if e == oracle.zero(group):
            raise InvalidInputError("identity")
        merged[e] = merged.get(e, 0) + mult
        points += mult
    twist_t = tuple(group.validate(t) for t in twist)
    if len(twist_t) != 2 * base_genus:
        raise InvalidInputError("twist length")
    total = oracle.zero(group)
    for e, m in merged.items():
        total = oracle.add(group, total, oracle.scale(group, m, e))
    if total != oracle.zero(group):
        raise InvalidMonodromyError("sum")
    if base_genus == 0 and group.order > 1 and points < 2:
        raise InvalidMonodromyError("two points")
    if oracle.span(group, list(merged) + list(twist_t)) != frozenset(group.elements()):
        raise DisconnectedCoverError("generation")
    return tuple(sorted(merged.items())), twist_t


def _branch_variants(points):
    """The multiset as (element, count) pairs, unmerged, as a dict, and with a
    zero, a negative or a malformed entry: a bool coordinate equal to a valid
    one, a list, a wrong length, an out-of-range coordinate."""
    counted = {}
    for e in points:
        counted[e] = counted.get(e, 0) + 1
    branch = list(counted.items())
    yield branch
    yield [(e, 1) for e in points]
    yield counted
    if not branch:
        return
    (first, m0), (last, m1) = branch[0], branch[-1]
    yield [(first, 0)] + branch[1:]
    yield branch[:-1] + [(last, -m1)]
    yield [(list(first), m0)] + branch[1:]
    yield branch[:-1] + [(last + (0,), m1)]
    if last:
        yield branch[:-1] + [((True,) + last[1:], m1)]
        yield branch[:-1] + [((99,) + last[1:], m1)]


def _outcome(build, *args):
    try:
        return build(*args)
    except InvalidInputError as err:
        return type(err)


def test_make_cover_matches_the_element_reference_on_a_bounded_box():
    """Every branch multiset of <= 4 points over every group of order <= 8,
    rational base; elliptic base with every twist on order <= 4."""
    checked = built = 0
    for group in [make_group([])] + abelian_groups_up_to(8):
        els = group.elements()
        twists = [((), 0)]
        if group.order <= 4:
            twists += [(pair, 1) for pair in product(els, repeat=2)]
            twists += [((els[-1],), 1), (((True,) * len(els[-1]), els[0]), 1)]
        for size in range(5):
            for points in combinations_with_replacement(els, size):
                for branch in _branch_variants(points):
                    for twist, base_genus in twists:
                        args = (group, base_genus, branch, twist)
                        expected = _outcome(_reference_make_cover, *args)
                        got = _outcome(make_cover, *args)
                        checked += 1
                        if isinstance(expected, type):
                            assert got is expected, (args, got, expected)
                            continue
                        assert (got.branch, got.twist) == expected, args
                        built += 1
                        assert got.dims == tuple(oracle.eigen_dim(got, chi) for chi in els)
                        assert genus(got) == got.genus == sum(got.dims) == genus_rh(got)
    for base_genus in (-1, True, 1.0, "0"):
        assert _outcome(make_cover, Z2, base_genus, {(1,): 2}) is InvalidInputError
        assert _outcome(_reference_make_cover, Z2, base_genus, {(1,): 2}, ()) is InvalidInputError
    assert checked > 20_000 and built > 1_000


def test_enumerate_covers_requires_a_bound():
    with pytest.raises(TypeError, match="genus"):
        enumerate_covers(Z22, 0)


def test_orbit_enumeration_refuses_a_group_above_the_order_bound_before_searching():
    # Z/100 has 40 automorphisms, so only the order bound refuses it, and it
    # does so at the call, whether or not the search would find a cover.
    z100 = make_group((100,))
    for genus_bound in (2, 25):
        with pytest.raises(CapabilityError, match="limited to order 64, got 100"):
            enumerate_covers(z100, 0, genus=genus_bound, up_to_aut=True)
    assert list(enumerate_covers(z100, 0, genus=2)) == []


def test_enumerate_covers_of_z2_by_genus():
    # A Z/2 cover of the line of genus g is branched over 2g + 2 points.
    for g in range(4):
        (cover,) = enumerate_covers(Z2, 0, genus=g)
        assert cover.branch == (((1,), 2 * g + 2),)


def test_enumerate_covers_all_valid_and_unique():
    seen = set()
    for c in enumerate_covers(Z22, 0, genus=3):
        key = (c.branch, c.twist)
        assert key not in seen
        seen.add(key)
        make_cover(c.group, c.base_genus, dict(c.branch), c.twist)
        assert genus(c) == 3
    assert seen


def test_enumerate_covers_elliptic_base_with_twists():
    covers = list(enumerate_covers(Z22, 1, genus=3))
    assert covers
    for c in covers:
        assert len(c.twist) == 2
        assert genus(c) == 3


def _reference_form(cover):
    """Smallest (branch, twist) over Aut(G), by coordinate arithmetic on alpha.images."""
    return min(
        (
            tuple(sorted((oracle.apply(alpha, e), m) for e, m in cover.branch)),
            tuple(oracle.apply(alpha, t) for t in cover.twist),
        )
        for alpha in cover.group.automorphisms()
    )


@pytest.mark.parametrize("factors, base_genus, genera", [
    ((2, 2, 2), 0, range(2, 8)),
    ((2, 4), 0, range(2, 10)),
    ((4, 4), 0, range(2, 10)),
    ((3, 3), 0, range(2, 12)),
    ((2, 2), 1, range(1, 6)),
])
def test_enumerate_covers_up_to_aut_matches_brute_force(factors, base_genus, genera):
    group = make_group(factors)
    yielded = 0
    for g in genera:
        every = list(enumerate_covers(group, base_genus, genus=g))
        expected = [c for c in every if (c.branch, c.twist) == _reference_form(c)]
        assert list(enumerate_covers(group, base_genus, genus=g, up_to_aut=True)) == expected
        assert [canonical_cover_form(c) for c in expected] == [(c.branch, c.twist) for c in expected]
        yielded += len(expected)
    assert yielded >= 3


_DICT_TABLES = {}


def _dict_route_orbit(cover):
    """Every (branch, twist) image of the cover, through one element-to-image dict per automorphism.

    Each dict is filled by coordinate arithmetic on alpha.images; this is the
    route the orbit took before automorphisms carried index permutations.
    """
    grp = cover.group
    tables = _DICT_TABLES.get(grp.factors)
    if tables is None:
        tables = _DICT_TABLES[grp.factors] = []
        for alpha in grp.automorphisms():
            tables.append({g: oracle.apply(alpha, g) for g in grp.elements()})
    return {
        (tuple(sorted((table[e], m) for e, m in cover.branch)), tuple(table[t] for t in cover.twist))
        for table in tables
    }


def _element_orbit(cover):
    """_index_orbit of the cover's (branch, twist), converted back to element tuples."""
    grp = cover.group
    els, index = grp.elements(), grp.index
    orbit = covers_module._index_orbit(
        grp,
        tuple((index[e], m) for e, m in cover.branch),
        tuple(index[t] for t in cover.twist),
    )
    return {
        (tuple((els[i], m) for i, m in branch), tuple(els[t] for t in twist))
        for branch, twist in orbit
    }


def test_index_orbit_matches_the_dict_route(random_covers):
    # (2,2,2,2), whose 20,160 permutations test_groups checks on a sample, is left out.
    checked = 0
    for cover in random_covers:
        if len(cover.group.automorphisms()) > 2000:
            continue
        orbit = _element_orbit(cover)
        assert orbit == _dict_route_orbit(cover)
        assert canonical_cover_form(cover) == min(orbit)
        checked += 1
    assert checked >= 900


def test_cover_data_is_hashable_and_frozen():
    c = make_cover(Z2, 0, {(1,): 6})
    assert isinstance(hash(c), int)
    with pytest.raises(Exception):
        c.base_genus = 1  # type: ignore[misc]


def _brute_force_covers(group, base_genus, genus):
    """Every multiplicity vector of the genus's weight times every twist, through make_cover."""
    nonzero = group.elements()[1:]
    m_exp = group.exponent
    weights = [m_exp - m_exp // oracle.order(group, e) for e in nonzero]
    weight = Fraction(2 * (genus - 1 - group.order * (base_genus - 1)), group.order) * m_exp
    if weight < 0 or weight.denominator != 1:
        return []
    target = int(weight)
    covers = []
    for mults in product(*(range(target // w + 1) for w in weights)):
        if sum(m * w for m, w in zip(mults, weights)) != target:
            continue
        branch = [(e, m) for e, m in zip(nonzero, mults) if m]
        for twist in product(group.elements(), repeat=2 * base_genus):
            try:
                covers.append(make_cover(group, base_genus, branch, twist))
            except InvalidInputError:
                continue
    return covers


@pytest.mark.parametrize("factors, base_genus, bounds", [
    ((3,), 0, [{"genus": g} for g in range(0, 7)]),
    ((2, 2), 0, [{"genus": g} for g in range(0, 7)]),
    ((4,), 0, [{"genus": g} for g in range(0, 9)]),
    ((2, 4), 0, [{"genus": g} for g in range(2, 5)]),
    ((2, 2, 2), 0, [{"genus": g} for g in range(0, 4)]),
    ((6,), 0, [{"genus": g} for g in range(2, 5)]),
    ((2,), 1, [{"genus": g} for g in range(0, 8)]),
    ((3,), 1, [{"genus": g} for g in range(1, 6)]),
    ((2, 2), 1, [{"genus": g} for g in range(1, 5)]),
    ((), 0, [{"genus": g} for g in range(0, 3)]),
    ((), 1, [{"genus": 1}]),
])
def test_enumerate_covers_matches_the_brute_force_list(factors, base_genus, bounds):
    group = make_group(factors)
    yielded = 0
    for bound in bounds:
        expected = _brute_force_covers(group, base_genus, **bound)
        assert list(enumerate_covers(group, base_genus, **bound)) == expected
        yielded += len(expected)
    assert yielded >= 1


def test_a_genus_with_no_covers_ends_the_search_at_once(monkeypatch):
    # Over a genus-b base no cover has genus below 1 + |G|(b - 1): 1 over an
    # elliptic base, 3 for Z/2 over genus 2. Riemann-Hurwitz also needs |G| to
    # divide the scaled weight: over (2,2,2) at genus 2 that is 2 * 9 * 2 = 36.
    def unreachable(*args):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(covers_module, "_multiplicity_vectors", unreachable)
    for up_to_aut in (False, True):
        assert list(enumerate_covers(make_group((2, 4)), 1, genus=0, up_to_aut=up_to_aut)) == []
        assert list(enumerate_covers(Z2, 2, genus=2, up_to_aut=up_to_aut)) == []
        assert list(enumerate_covers(Z222, 0, genus=2, up_to_aut=up_to_aut)) == []


def test_enumerator_only_builds_closed_branch_vectors(monkeypatch):
    built = []

    def closed_make_cover(group, base_genus, branch, twist=()):
        total = oracle.zero(group)
        for e, m in branch:
            total = oracle.add(group, total, oracle.scale(group, m, group.elements()[e]))
        assert total == oracle.zero(group), f"branch {branch} sums to {total}"
        built.append(branch)
        return make_cover(group, base_genus, branch, twist)

    monkeypatch.setattr(covers_module, "make_cover", closed_make_cover)
    for factors, base_genus, g in [
        ((2, 2, 2), 0, 5),
        ((2, 4), 0, 7),
        ((4, 4), 0, 9),
        ((3, 3), 0, 4),
        ((2, 2), 1, 5),
        ((3,), 1, 4),
    ]:
        # Up to Aut(G) the enumerator builds a few covers per orbit only, so
        # the full listing is checked too.
        for up_to_aut in (False, True):
            list(enumerate_covers(make_group(factors), base_genus, genus=g, up_to_aut=up_to_aut))
    assert len(built) >= 100


def test_a_leaf_that_make_cover_rejects_is_an_internal_error(monkeypatch):
    def reject(group, base_genus, branch, twist=()):
        raise DisconnectedCoverError("branch and twist data do not generate the group")

    monkeypatch.setattr(covers_module, "make_cover", reject)
    for up_to_aut in (False, True):
        with pytest.raises(InternalConsistencyError, match="solved branch data are not a cover: branch"):
            next(enumerate_covers(Z22, 0, genus=3, up_to_aut=up_to_aut))


def test_up_to_aut_builds_only_yielded_covers_and_first_orbit_members(monkeypatch):
    built = []

    def recording_make_cover(*args, **kwargs):
        cover = make_cover(*args, **kwargs)
        built.append(cover)
        return cover

    monkeypatch.setattr(covers_module, "make_cover", recording_make_cover)
    skipped = 0
    for factors, base_genus, g in [
        ((2, 2, 2), 0, 7),
        ((2, 4), 0, 9),
        ((4, 4), 0, 9),
        ((3, 3), 0, 4),
        ((2, 2), 1, 5),
        ((3,), 1, 4),
    ]:
        every = list(enumerate_covers(make_group(factors), base_genus, genus=g))
        built.clear()
        yielded = list(enumerate_covers(make_group(factors), base_genus, genus=g, up_to_aut=True))
        assert set(yielded) <= set(built)
        met = set()  # (branch, twist) of every orbit member of a cover built so far
        for cover in built:
            key = (cover.branch, cover.twist)
            assert cover in yielded or key not in met, f"{key} was built after its orbit was known"
            met |= _element_orbit(cover)
        assert len(built) == len(set(built))
        skipped += len(every) - len(built)
    assert skipped >= 100


@pytest.mark.parametrize("base_genus, bounds", [
    (True, {"genus": 3}),
    (0, {"genus": None}),
    (0, {"genus": None, "up_to_aut": True}),
    (0, {"genus": False}),
    (0, {"genus": 3.0}),
    (0, {"genus": Fraction(3)}),
    (0, {"genus": True}),
    (0, {"genus": 2.5}),
    (0, {"genus": "3"}),
    (0, {"genus": -1}),
    (-1, {"genus": 3}),
])
def test_enumerate_covers_rejects_bad_bounds(base_genus, bounds):
    with pytest.raises(InvalidInputError):
        enumerate_covers(make_group([4]), base_genus, **bounds)


def _completions(group, base_genus):
    """Oracle for enumerator states, by plain recursion over element tuples.

    The returned count(i, s, remaining, path) counts the multiplicity
    vectors of the nonzero elements from the i-th on that close the running
    sum (the element at index s) and add scaled weight exactly `remaining`.
    It returns (closing, connected): how many there are, and how
    many of them, with the elements of path, can still give a connected
    cover. A twist may hold any element, so with base genus >= 1 every
    closing completion counts as connected; with base genus 0 the branch
    elements must span the group (subgroup closure).
    """
    els = group.elements()
    nonzero = els[1:]
    m_exp = group.exponent
    weights = [m_exp - m_exp // oracle.order(group, e) for e in nonzero]
    zero = oracle.zero(group)
    memo = {}

    def search(k, total, rest, span):
        key = (k, total, rest, span)
        if key not in memo:
            if k == len(nonzero):
                closes = int(total == zero and rest == 0)
                memo[key] = (closes, closes if base_genus > 0 or len(span) == group.order else 0)
            else:
                closing = connected = 0
                m = 0
                while m * weights[k] <= rest:
                    below = search(
                        k + 1,
                        oracle.add(group, total, oracle.scale(group, m, nonzero[k])),
                        rest - m * weights[k],
                        span if m == 0 or nonzero[k] in span else oracle.span(group, [*span, nonzero[k]]),
                    )
                    closing += below[0]
                    connected += below[1]
                    m += 1
                memo[key] = (closing, connected)
        return memo[key]

    def count(i, s, remaining, path):
        return search(i, els[s], remaining, oracle.span(group, path))

    return count


def _degree_completions(group, fixed, target, goal):
    """Oracle for the classifier's solver states, by plain recursion over element tuples.

    The returned count(i, remaining, used) counts the multiplicity vectors of
    the nonzero elements from the i-th on that meet the fixed characters'
    degree numerators `remaining` exactly and bring the target's numerator
    from `used` into goal.
    """
    nonzero = group.elements()[1:]
    chars = [chi for chi, _ in fixed]
    memo = {}

    def count(k, remaining, used):
        key = (k, remaining, used)
        if key not in memo:
            if k == len(nonzero):
                memo[key] = int(not any(remaining) and used in goal)
            else:
                e = nonzero[k]
                total = m = 0
                while True:
                    left = tuple(r - m * oracle.pair_num(group, chi, e) for r, chi in zip(remaining, chars))
                    u = used + m * oracle.pair_num(group, target, e)
                    if min(left, default=0) < 0 or u > goal[-1]:
                        break
                    total += count(k + 1, left, u)
                    m += 1
                memo[key] = total
        return memo[key]

    return count


def test_every_enumerator_frame_ends_in_a_leaf():
    """Every frame the shared solver enters has a leaf below it, for covers and for the classifier.

    _multiplicity_vectors keeps one stack entry per open element index i,
    stack[i] = [m, top, chain, used, ...]: m is the next multiplicity to try,
    chain the states that copies of element i reach from the entry's state
    chain[0], used the weight so far. stack[0] is a root for the identity,
    entered unconditionally, and the last element has no entry: its leaves
    are yielded from its parent's. An entry is pushed only after its mask
    bit accepts (i, chain[0], used); path holds the nonzero (index,
    multiplicity) pairs above it. The solver frame is traced line by line, so every entry
    is seen from its push to its pop together with the vectors yielded in
    between, and each entry is checked against a plain recursive count of
    its completions: it has one that reaches a leaf, and it yields exactly
    its leaves. For covers that is at least every closing completion that
    can still generate the group, and the kernel mask that _iter_covers
    weighs against the twists must be the common kernel of the vector's
    elements; for the classifier the cases are the degree requirements of
    ORACLE_CASES at b = 0 and b = 1, each over its window of degrees.
    """
    from test_classifier import ORACLE_CASES, _indexed, _requirements

    entries = []  # [case, i, state, used, path, yields] per stack entry
    open_entries = []  # (stack entry, its record), in stack order
    kernel_wrong = []
    twist_line = next(
        number
        for number, line in enumerate(inspect.getsourcelines(covers_module._iter_covers)[0],
                                      covers_module._iter_covers.__code__.co_firstlineno)
        if "for twist, twist_mask in twists" in line
    )

    def sync(stack):
        k = 0
        while k < len(open_entries) and k < len(stack) and open_entries[k][0] is stack[k]:
            k += 1
        del open_entries[k:]
        for k in range(k, len(stack)):
            m, _, chain, used, _, _ = stack[k]
            assert m == 0  # seen before its first multiplicity is tried
            record = [case, k, chain[0], used, list(path_now), 0] if k else None  # not the root
            if record:
                entries.append(record)
            open_entries.append((stack[k], record))

    def local(frame, event, arg):
        loc = frame.f_locals
        stack = loc.get("stack")
        if stack is not None:
            path_now[:] = loc["path"]
            sync(stack)
            if event == "return" and arg is not None:  # a yielded vector
                for _, record in open_entries:
                    if record:
                        record[-1] += 1
        elif event == "return":
            sync([])
        return local

    def leaf(frame, event, arg):
        if event == "line" and frame.f_lineno == twist_line:
            loc = frame.f_locals
            group = case[1]
            elems = [j for j, _ in loc["branch"]]
            if loc["branch_mask"] != group.common_kernel(elems):
                kernel_wrong.append((group, loc["branch"], loc["branch_mask"]))
        return leaf

    def watch(frame, event, arg):
        code = frame.f_code
        if code.co_filename == covers_module.__file__:
            return {"_multiplicity_vectors": local, "_iter_covers": leaf}.get(code.co_name)
        return None

    runs = []  # (case, function, arguments)
    for factors, base_genus, g in [
        ((2, 2, 2), 0, 9),
        ((2, 4), 0, 7),
        ((4, 4), 0, 9),
        ((3, 3), 0, 4),
        ((2, 2), 1, 5),
        ((6,), 0, 7),
    ]:
        group = make_group(factors)
        runs.append((("covers", group, base_genus, g), enumerate_covers, (group, base_genus), {"genus": g}))
    for factors, branch, chars, degrees in ORACLE_CASES:
        group = make_group(factors)
        witness = make_cover(group, 0, branch)
        if chars is None:
            chars = [chi for chi, dim in zip(group.elements()[1:], witness.dims[1:]) if dim == 1]
        for chi0 in chars:
            for b in (0, 1):
                window = range(min(degrees[b]), max(degrees[b]) + 1)
                requirements = _requirements(witness, chi0, b, 0)
                *fixed, (target, _) = requirements
                goal = range(window.start * group.exponent, window[-1] * group.exponent + 1, group.exponent)
                degrees_case = ("degrees", group, tuple(fixed), target, goal)
                *fixed_indexed, (target_index, _) = _indexed(group, requirements)
                runs.append((degrees_case, classifier_module._branch_solutions,
                             (group, tuple(fixed_indexed), target_index, window), {}))
    path_now = []
    previous = sys.gettrace()
    try:
        for case, function, args, kwargs in runs:
            sys.settrace(watch)
            try:
                list(function(*args, **kwargs))
            finally:
                sys.settrace(previous)
            assert open_entries == []
    finally:
        sys.settrace(previous)
    assert sum(entry[0][0] == "covers" for entry in entries) >= 100
    assert sum(entry[0][0] == "degrees" for entry in entries) >= 100
    oracles = {}
    closes_nowhere, miscounted, empty = [], [], []
    for case, i, state, used, path, yields in entries:
        group = case[1]
        if case[0] == "covers":
            _, _, base_genus, target_genus = case
            count = oracles.setdefault(case[:3], _completions(group, base_genus))
            elems = [group.elements()[j] for j, _ in path]
            n = group.order
            target = 2 * (target_genus - 1 - n * (base_genus - 1)) * group.exponent // n
            closing, connected = count(i - 1, state, target - used, elems)
        else:
            count = oracles.setdefault(case, _degree_completions(*case[1:]))
            closing = connected = count(i - 1, state, used)
        if not closing:
            closes_nowhere.append((case, i, state, used, path))
        if not connected <= yields == closing:
            miscounted.append((case, i, state, used, path, connected, yields, closing))
        if not yields:
            empty.append((case, i, state, used, path))
    assert closes_nowhere == []
    assert kernel_wrong == []
    assert miscounted == []
    assert empty == []


def test_one_nonzero_element_needs_no_reachability_table():
    # The table has one bit per unit of weight; Z/2 closes by its one element alone.
    (cover,) = enumerate_covers(Z2, 0, genus=10**9)
    assert cover.branch == (((1,), 2 * 10**9 + 2),)
