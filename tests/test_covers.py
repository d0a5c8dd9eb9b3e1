"""Cover building data: validation, bundle degrees, eigenspace dims, genus."""

import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from isopencil import covers as covers_module
from isopencil.covers import (
    CoverData,
    bundle_degree,
    canonical_cover_form,
    eigen_dim,
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
    assert bundle_degree(c, (0, 1)) == 4
    assert bundle_degree(c, (0, 0)) == 0

    f = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    assert bundle_degree(f, (0, 1)) == 2


def test_eigen_dims_z2z8_action():
    f = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    support = {chi for chi in Z28.elements() if eigen_dim(f, chi) > 0}
    assert support == {(0, 1), (0, 3), (1, 2)}
    assert all(eigen_dim(f, chi) == 1 for chi in support)
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
    assert eigen_dim(c, (0, 0)) == 1
    h = make_cover(Z2, 0, {(1,): 6})
    assert eigen_dim(h, (0,)) == 0


def test_genus_examples():
    assert genus(make_cover(Z22, 0, {(1, 1): 4, (1, 0): 2})) == 3
    assert genus(make_cover(Z222, 0, {(1, 0, 0): 8, (0, 1, 0): 2, (0, 0, 1): 2})) == 17
    assert genus(make_cover(Z2, 0, {(1,): 6})) == 2


def test_profile_sums_to_genus():
    c = make_cover(Z28, 0, {(0, 7): 1, (1, 4): 1, (1, 5): 1})
    assert sum(eigen_profile(c).values()) == genus(c)


def test_cached_profile_matches_the_per_character_route(random_covers):
    for c in random_covers:
        assert eigen_profile(c) == {chi: eigen_dim(c, chi) for chi in c.group.elements()}
        assert genus(c) == genus_rh(c)
    c = random_covers[0]
    first = eigen_profile(c)
    expected = dict(first)
    first[c.group.identity] += 1
    first.clear()
    assert eigen_profile(c) == expected


def _fraction_genus_rh(cover):
    """Riemann-Hurwitz in Fractions, with element orders from the coordinates."""
    g = cover.group
    n = g.order
    total = Fraction(1 + n * (cover.base_genus - 1))
    for e, m in cover.branch:
        o = lcm(*(k // gcd(a, k) for a, k in zip(e, g.factors)))
        total += Fraction(n, 2) * m * Fraction(o - 1, o)
    return total


def test_integer_genus_rh_matches_the_fraction_formula(random_covers):
    for c in random_covers:
        assert genus_rh(c) == _fraction_genus_rh(c)
    # Unchecked data with an odd ramification count: non-integral either way.
    odd = CoverData(Z2, 0, (((1,), 1),), ())
    assert _fraction_genus_rh(odd).denominator == 2
    with pytest.raises(InternalConsistencyError):
        genus_rh(odd)


def test_pardini_carry_on_one_cover():
    c = make_cover(Z22, 0, {(1, 0): 1, (0, 1): 1, (1, 1): 3})
    g = c.group
    for chi in g.elements():
        for psi in g.elements():
            carry = 0
            for h, mult in c.branch:
                o = g.element_order(h)
                if g.restriction_exponent(chi, h) + g.restriction_exponent(psi, h) >= o:
                    carry += mult
            lhs = bundle_degree(c, chi) + bundle_degree(c, psi) - bundle_degree(c, g.add(chi, psi))
            assert lhs == carry


def test_enumerate_covers_z3_genus2():
    covers = list(enumerate_covers(make_group([3]), 0, genus=2, up_to_aut=True))
    assert len(covers) == 1
    assert covers[0].branch == (((1,), 2), ((2,), 2))


def test_enumerate_covers_z22_genus2():
    covers = list(enumerate_covers(Z22, 0, genus=2, up_to_aut=True))
    assert len(covers) == 1
    mults = sorted(m for _, m in covers[0].branch)
    assert mults == [1, 1, 3]


def test_enumerate_covers_respects_dims_constraint():
    covers = list(enumerate_covers(Z2, 0, genus=2, dims={(1,): 2}))
    assert [c.branch for c in covers] == [(((1,), 6),)]


def test_enumerate_covers_requires_a_bound():
    with pytest.raises(CapabilityError):
        list(enumerate_covers(Z22, 0))
    with pytest.raises(CapabilityError):
        list(enumerate_covers(Z22, 0, dims={(1, 0): 1}))


def test_enumerate_covers_by_branch_point_bound():
    covers = list(enumerate_covers(Z2, 0, max_branch_points=4))
    branches = {c.branch for c in covers}
    assert branches == {(((1,), 2),), (((1,), 4),)}


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
    grp = cover.group

    def image(alpha, g):
        out = grp.identity
        for coeff, img in zip(g, alpha.images):
            out = grp.add(out, grp.scale(coeff, img))
        return out

    return min(
        (
            tuple(sorted((image(alpha, e), m) for e, m in cover.branch)),
            tuple(image(alpha, t) for t in cover.twist),
        )
        for alpha in grp.automorphisms()
    )


@pytest.mark.parametrize("factors, base_genus, genera, dims", [
    ((2, 2, 2), 0, range(2, 8), None),
    ((2, 4), 0, range(2, 10), None),
    ((4, 4), 0, range(2, 10), None),
    ((3, 3), 0, range(2, 12), None),
    ((2, 2), 1, range(1, 6), None),
    ((2, 4), 0, range(2, 10), {(0, 1): 1}),
])
def test_enumerate_covers_up_to_aut_matches_brute_force(factors, base_genus, genera, dims):
    group = make_group(factors)
    yielded = 0
    for g in genera:
        every = list(enumerate_covers(group, base_genus, genus=g, dims=dims))
        expected = [c for c in every if (c.branch, c.twist) == _reference_form(c)]
        assert list(enumerate_covers(group, base_genus, genus=g, dims=dims, up_to_aut=True)) == expected
        assert [canonical_cover_form(c) for c in expected] == [(c.branch, c.twist) for c in expected]
        yielded += len(expected)
    assert yielded >= 3


def test_cover_data_is_hashable_and_frozen():
    c = make_cover(Z2, 0, {(1,): 6})
    assert isinstance(hash(c), int)
    with pytest.raises(Exception):
        c.base_genus = 1  # type: ignore[misc]


def _brute_force_covers(group, base_genus, genus=None, max_branch_points=None, dims=None):
    """Every weight-feasible multiplicity vector times every twist, through make_cover."""
    nonzero = [e for e in group.elements() if e != group.identity]
    m_exp = group.exponent
    weights = [m_exp - m_exp // group.element_order(e) for e in nonzero]
    target = None
    if genus is not None:
        weight = Fraction(2 * (genus - 1 - group.order * (base_genus - 1)), group.order) * m_exp
        if weight < 0 or weight.denominator != 1:
            return []
        target = int(weight)
    tops = [
        min(t for t in (max_branch_points, None if target is None else target // w) if t is not None)
        for w in weights
    ]
    covers = []
    for mults in product(*(range(top + 1) for top in tops)):
        if target is not None and sum(m * w for m, w in zip(mults, weights)) != target:
            continue
        if max_branch_points is not None and sum(mults) > max_branch_points:
            continue
        branch = [(e, m) for e, m in zip(nonzero, mults) if m]
        for twist in product(group.elements(), repeat=2 * base_genus):
            try:
                cover = make_cover(group, base_genus, branch, twist)
            except InvalidInputError:
                continue
            profile = eigen_profile(cover)
            if dims is None or all(profile[k] == v for k, v in dims.items()):
                covers.append(cover)
    return covers


@pytest.mark.parametrize("factors, base_genus, bounds", [
    ((3,), 0, [{"genus": g} for g in range(0, 7)]),
    ((2, 2), 0, [{"genus": g} for g in range(0, 7)]),
    ((4,), 0, [{"genus": g} for g in range(0, 7)] + [{"max_branch_points": 5}]),
    ((2, 4), 0, [{"genus": g} for g in range(2, 5)]),
    ((2, 2, 2), 0, [{"genus": 1}, {"genus": 3}, {"max_branch_points": 3}]),
    ((6,), 0, [{"genus": g} for g in range(2, 5)] + [{"genus": 4, "dims": {(1,): 1}}]),
    ((2,), 1, [{"genus": g} for g in range(1, 6)] + [{"max_branch_points": 3}]),
    ((3,), 1, [{"genus": g} for g in range(1, 6)]),
    ((2, 2), 1, [{"genus": g} for g in range(1, 5)] + [{"genus": 3, "max_branch_points": 2}]),
    ((), 0, [{"genus": 0}, {"max_branch_points": 2}]),
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


def test_enumerator_only_builds_closed_branch_vectors(monkeypatch):
    built = []

    def closed_make_cover(group, base_genus, branch, twist=()):
        total = group.identity
        for e, m in branch:
            total = group.add(total, group.scale(m, e))
        assert total == group.identity, f"branch {branch} sums to {total}"
        built.append(branch)
        return make_cover(group, base_genus, branch, twist)

    monkeypatch.setattr(covers_module, "make_cover", closed_make_cover)
    for factors, base_genus, bound in [
        ((2, 2, 2), 0, {"genus": 5}),
        ((2, 4), 0, {"genus": 7}),
        ((4, 4), 0, {"genus": 9}),
        ((3, 3), 0, {"max_branch_points": 4}),
        ((2, 2), 1, {"genus": 5}),
        ((3,), 1, {"max_branch_points": 3}),
    ]:
        list(enumerate_covers(make_group(factors), base_genus, up_to_aut=True, **bound))
    assert len(built) >= 100


@pytest.mark.parametrize("base_genus, bounds", [
    (True, {"genus": 3}),
    (0, {"max_branch_points": -1}),
    (0, {"genus": 3, "max_branch_points": -1}),
    (0, {"max_branch_points": 2.5}),
    (0, {"max_branch_points": True}),
    (0, {"max_branch_points": "3"}),
])
def test_enumerate_covers_rejects_bad_bounds(base_genus, bounds):
    with pytest.raises(InvalidInputError):
        enumerate_covers(make_group([4]), base_genus, **bounds)


def test_every_enumerator_frame_ends_in_a_leaf():
    """The reachability table lets the enumerator enter only frames with a leaf below.

    Frames are watched through the profiler hook: a generator frame that yields
    fires a return event carrying the yielded branch, one that yields nothing
    only fires return events carrying None.
    """
    frames = {}

    def watch(frame, event, arg):
        code = frame.f_code
        if code.co_name == "leaves" and code.co_filename == covers_module.__file__:
            seen = frames.setdefault(id(frame), [frame, False])
            if event == "return" and arg is not None:
                seen[1] = True

    cases = [
        ((2, 2, 2), 0, {"genus": 9}),
        ((2, 4), 0, {"genus": 7}),
        ((4, 4), 0, {"genus": 9}),
        ((3, 3), 0, {"max_branch_points": 4}),
        ((2, 2), 1, {"genus": 5}),
        ((6,), 0, {"max_branch_points": 5}),
    ]
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        for factors, base_genus, bound in cases:
            list(enumerate_covers(make_group(factors), base_genus, **bound))
    finally:
        sys.setprofile(previous)
    assert len(frames) >= 100
    assert [f.f_locals for f, leaf in frames.values() if not leaf] == []


def test_one_nonzero_element_needs_no_reachability_table():
    # The table has one bit per unit of weight; Z/2 closes by its one element alone.
    (cover,) = enumerate_covers(Z2, 0, genus=10**9)
    assert cover.branch == (((1,), 2 * 10**9 + 2),)
