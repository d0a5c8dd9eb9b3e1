"""Exact-arithmetic group layer: orders, pairings, generation, automorphisms."""

import random
from fractions import Fraction

import pytest

from isopencil.atlas import abelian_groups_up_to
from isopencil.errors import CapabilityError, InvalidInputError
from isopencil.groups import (
    automorphisms,
    element_order,
    format_element,
    format_group,
    generates,
    make_group,
    parse_element,
    parse_group,
    restriction_exponent,
)


def test_make_group_orders():
    assert make_group([2]).order == 2
    assert make_group([2, 8]).order == 16
    assert make_group([2, 2, 2]).order == 8
    assert make_group([]).order == 1


def test_make_group_rejects_bad_factors():
    with pytest.raises(InvalidInputError):
        make_group([1])
    with pytest.raises(InvalidInputError):
        make_group([2, 0])
    with pytest.raises(InvalidInputError):
        make_group([-3])


def test_element_validation():
    g = make_group([2, 8])
    assert g.validate((1, 7)) == (1, 7)
    with pytest.raises(InvalidInputError):
        g.validate((2, 0))
    with pytest.raises(InvalidInputError):
        g.validate((0,))


def test_element_order():
    g = make_group([2, 8])
    assert element_order(g, (1, 4)) == 2
    assert element_order(g, (1, 5)) == 8
    assert element_order(make_group([2, 2]), (0, 0)) == 1


def test_generates():
    assert generates(make_group([2, 2]), [(1, 0), (0, 1)])
    assert generates(make_group([2, 8]), [(0, 7), (1, 4), (1, 5)])
    assert not generates(make_group([2, 2]), [(1, 1)])
    assert generates(make_group([]), [])
    assert not generates(make_group([3]), [])


def test_restriction_exponent():
    assert restriction_exponent(make_group([4]), (2,), (1,)) == 2
    assert restriction_exponent(make_group([2, 8]), (0, 1), (0, 7)) == 7
    assert restriction_exponent(make_group([2, 8]), (0, 0), (1, 5)) == 0


def test_restriction_exponent_rejects_identity():
    with pytest.raises(InvalidInputError):
        restriction_exponent(make_group([2, 2]), (1, 0), (0, 0))


def test_pairing_values():
    g = make_group([2, 8])
    assert g.pairing((0, 1), (0, 7)) == Fraction(7, 8)
    assert g.pairing((1, 0), (1, 4)) == Fraction(1, 2)
    assert g.pairing((0, 0), (1, 1)) == 0


def test_pairing_bilinear_small():
    for factors in ([2, 2], [4], [2, 4], [3, 3]):
        g = make_group(factors)
        els = g.elements()
        for chi in els:
            for x in els:
                for y in els:
                    lhs = g.pairing(chi, g.add(x, y))
                    rhs = (g.pairing(chi, x) + g.pairing(chi, y)) % 1
                    assert lhs == rhs


def test_pairing_nondegenerate():
    g = make_group([2, 8])
    trivial = [
        chi for chi in g.elements() if all(g.pairing(chi, x) == 0 for x in g.elements())
    ]
    assert trivial == [(0, 0)]


def test_restriction_exponent_additive():
    g = make_group([2, 8])
    h = (1, 5)
    o = element_order(g, h)
    for chi in g.elements():
        for psi in g.elements():
            lhs = restriction_exponent(g, g.add(chi, psi), h)
            rhs = (restriction_exponent(g, chi, h) + restriction_exponent(g, psi, h)) % o
            assert lhs == rhs


def test_automorphism_counts():
    assert len(automorphisms(make_group([2]))) == 1
    assert len(automorphisms(make_group([3]))) == 2
    assert len(automorphisms(make_group([2, 2]))) == 6


def test_automorphisms_are_bijective_homomorphisms():
    g = make_group([2, 4])
    auts = automorphisms(g)
    assert len(auts) == 8
    for alpha in auts:
        seen = {alpha.apply(x) for x in g.elements()}
        assert len(seen) == g.order
        for x in g.elements():
            for y in g.elements():
                assert alpha.apply(g.add(x, y)) == g.add(alpha.apply(x), alpha.apply(y))


def test_automorphism_character_action_compatible():
    g = make_group([2, 8])
    for alpha in automorphisms(g):
        for chi in g.elements():
            pulled = alpha.apply_char(chi)
            for x in g.elements():
                assert g.pairing(chi, alpha.apply(x)) == g.pairing(pulled, x)


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16) if g.factors != (2, 2, 2, 2)],
    ids=lambda factors: ",".join(map(str, factors)),
)
def test_automorphism_tables_match_coordinate_formulas(factors):
    g = make_group(factors)
    for alpha in automorphisms(g):
        assert list(alpha.table) == g.elements()
        for x in g.elements():
            image = g.identity
            for coeff, img in zip(x, alpha.images):
                image = g.add(image, g.scale(coeff, img))
            pulled = tuple(g.pair_num(x, img) * n // g.exponent for img, n in zip(alpha.images, g.factors))
            assert alpha.apply(x) == alpha.table[x] == image
            assert alpha.apply_char(x) == alpha.char_table[x] == pulled
            assert alpha.preimage[alpha.apply(x)] == x


def test_automorphism_bound():
    with pytest.raises(CapabilityError):
        automorphisms(make_group([72]))


def test_group_serialization_round_trip():
    g = make_group([2, 8])
    assert format_group(g) == "2,8"
    assert parse_group("2,8") == g
    assert parse_group(" 2, 8 ") == g
    with pytest.raises(InvalidInputError):
        parse_group("")
    with pytest.raises(InvalidInputError):
        parse_group("2,x")
    with pytest.raises(InvalidInputError):
        parse_group("2,1")


def test_element_serialization_round_trip():
    g = make_group([2, 8])
    assert format_element((1, 4)) == "[1,4]"
    assert parse_element(g, "[1,4]") == (1, 4)
    assert parse_element(g, " [ 1 , 4 ] ") == (1, 4)
    with pytest.raises(InvalidInputError):
        parse_element(g, "[1]")
    with pytest.raises(InvalidInputError):
        parse_element(g, "[1,9]")
    with pytest.raises(InvalidInputError):
        parse_element(g, "nope")


def _coordinate_closure(g, elems):
    """The subgroup generated by elems, closed by coordinate addition of multiples."""
    span = {g.identity}
    for x in elems:
        if x in span:
            continue
        multiples = []
        m = x
        while m != g.identity:
            multiples.append(m)
            m = g.add(m, x)
        span |= {g.add(s, m) for s in span for m in multiples}
    return frozenset(span)


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)],
    ids=lambda factors: ",".join(map(str, factors)) or "trivial",
)
def test_index_subgroup_matches_the_coordinate_closure(factors):
    g = make_group(factors)
    rng = random.Random(repr(factors))
    els = g.elements()
    assert [g.index[x] for x in els] == list(range(g.order))
    for x in els:
        assert [els[j] for j in g.add_row(x)] == [g.add(y, x) for y in els]
    for _ in range(40):
        gens = [rng.choice(els) for _ in range(rng.randrange(4))]
        span = _coordinate_closure(g, gens)
        assert g.subgroup(gens) == span
        assert g.generates(gens) == (len(span) == g.order)
    for x in els:
        assert g.cyclic(x) == _coordinate_closure(g, [x])


def test_index_tables_are_shared_by_groups_with_the_same_factors():
    first, second = make_group([2, 4]), make_group([2, 4])
    assert first is not second
    assert first.index is second.index
    assert first.add_row((1, 3)) is second.add_row((1, 3))
    assert first.elements() is second.elements()
    assert first.orders is second.orders
    assert first.neg_index is second.neg_index
    assert first.pairing_row((1, 3)) is second.pairing_row((1, 3))
    assert first.cyclic((1, 3)) is second.cyclic((1, 3))
    assert make_group([4, 2]).orders is not first.orders


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)],
    ids=lambda factors: ",".join(map(str, factors)) or "trivial",
)
def test_lookup_tables_match_the_coordinate_formulas(factors):
    g = make_group(factors)
    els = g.elements()
    for i, x in enumerate(els):
        multiples = _coordinate_closure(g, [x])
        assert g.orders[i] == g.element_order(x) == len(multiples)
        neg = tuple((-a) % n for a, n in zip(x, factors))
        assert els[g.neg_index[i]] == g.neg(x) == neg
        assert g.pairing_row(x) == tuple(g.pair_num(chi, x) for chi in els)
