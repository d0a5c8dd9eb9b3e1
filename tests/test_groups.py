"""Exact-arithmetic group layer: orders, pairings, generation, automorphisms."""

import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from isopencil.atlas import abelian_groups_up_to
from isopencil.errors import CapabilityError, InvalidInputError
from isopencil.groups import (
    _AUT_CACHE,
    _TABLES,
    AUT_ORDER_BOUND,
    AUT_SIZE_BOUND,
    GROUP_ORDER_BOUND,
    Automorphism,
    factorize,
    format_element,
    image,
    make_group,
    parse_group,
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
    assert g.element_order((1, 4)) == 2
    assert g.element_order((1, 5)) == 8
    assert make_group([2, 2]).element_order((0, 0)) == 1


def test_generates():
    def generates(factors, elems):
        g = make_group(factors)
        return g.generates([g.index[x] for x in elems])

    assert generates([2, 2], [(1, 0), (0, 1)])
    assert generates([2, 8], [(0, 7), (1, 4), (1, 5)])
    assert not generates([2, 2], [(1, 1)])
    assert generates([], [])
    assert not generates([3], [])


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


def test_automorphism_counts():
    assert len(make_group([2]).automorphisms()) == 1
    assert len(make_group([3]).automorphisms()) == 2
    assert len(make_group([2, 2]).automorphisms()) == 6


def test_automorphisms_are_bijective_homomorphisms():
    g = make_group([2, 4])
    auts = g.automorphisms()
    assert len(auts) == 8
    for alpha in auts:
        seen = {alpha.apply(x) for x in g.elements()}
        assert len(seen) == g.order
        for x in g.elements():
            for y in g.elements():
                assert alpha.apply(g.add(x, y)) == g.add(alpha.apply(x), alpha.apply(y))


def test_automorphism_character_action_compatible():
    g = make_group([2, 8])
    for alpha in g.automorphisms():
        for chi in g.elements():
            pulled = alpha.apply_char(chi)
            for x in g.elements():
                assert g.pairing(chi, alpha.apply(x)) == g.pairing(pulled, x)


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)],
    ids=lambda factors: ",".join(map(str, factors)),
)
def test_automorphism_tables_match_coordinate_formulas(factors):
    g = make_group(factors)
    els = g.elements()
    fs = g.factors
    auts = g.automorphisms()
    assert len(auts) == g.automorphism_count()
    if len(auts) > 2000:  # (2,2,2,2): a fixed sample keeps the test fast
        auts = random.Random(repr(factors)).sample(auts, 1500)
    for alpha in auts:
        assert len(alpha.perm) == len(alpha.char_perm) == g.order
        for x, image_index, pulled_index in zip(els, alpha.perm, alpha.char_perm):
            image = tuple(sum(c * img[j] for c, img in zip(x, alpha.images)) % n for j, n in enumerate(fs))
            pulled = tuple(g.pair_num(x, img) * n // g.exponent for img, n in zip(alpha.images, fs))
            assert alpha.apply(x) == els[image_index] == image
            assert alpha.apply_char(x) == els[pulled_index] == pulled
        assert sorted(alpha.perm) == sorted(alpha.char_perm) == list(range(g.order))
        # The public constructor derives both permutations from the images alone.
        rebuilt = Automorphism(g, alpha.images)
        assert rebuilt == alpha and hash(rebuilt) == hash(alpha)
        assert (rebuilt.perm, rebuilt.char_perm) == (alpha.perm, alpha.char_perm)


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (2, 2, 4)], ids=lambda factors: ",".join(map(str, factors)))
def test_every_char_perm_pulls_characters_back_by_the_pairing(factors):
    # Unsampled: every automorphism, against chi o alpha read off the pairing,
    # <chi o alpha, e_j> = <chi, alpha(e_j)>, so coordinate j is pair_num(chi, images[j]) / w_j.
    g = make_group(factors)
    index = g.index
    weights = [g.exponent // n for n in factors]
    for alpha in g.automorphisms():
        rows = [g.pairing_row(index[img]) for img in alpha.images]
        pulled = [
            index[tuple(row[i] // w for row, w in zip(rows, weights))] for i in range(g.order)
        ]
        assert list(alpha.char_perm) == pulled


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)],
    ids=lambda factors: ",".join(map(str, factors)),
)
def test_image_matches_the_coordinate_route(factors):
    # Unsampled: every automorphism, the 20,160 of (2,2,2,2) included. Each
    # element's image is sum(x_i * images[i]), by coordinates; the pairs list
    # every index in reverse order, then every third, so sorting is exercised.
    g = make_group(factors)
    els, index = g.elements(), g.index
    everything = [(i, g.order - i) for i in reversed(range(g.order))]
    for alpha in g.automorphisms():
        moved = [
            index[tuple(sum(c * img[j] for c, img in zip(x, alpha.images)) % n for j, n in enumerate(factors))]
            for x in els
        ]
        for pairs in (everything, everything[::3], []):
            assert image(alpha.perm, pairs) == tuple(sorted((moved[i], v) for i, v in pairs))


def test_factorize_every_order_up_to_the_group_bound():
    def is_prime(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert factorize(1) == []
    for n in range(2, GROUP_ORDER_BOUND + 1):
        found = factorize(n)
        primes = [p for p, _ in found]
        assert math.prod(p**e for p, e in found) == n
        assert all(is_prime(p) for p in primes) and all(e >= 1 for _, e in found)
        assert primes == sorted(set(primes))


def test_automorphism_bound():
    with pytest.raises(CapabilityError):
        make_group([72]).automorphisms()


def _closure_automorphism_images(g):
    """Generator images of every automorphism, by the subgroup-closure search.

    The i-th image runs over the elements killed by n_i, in elements() order;
    a prefix is extended while its span times the remaining factors can still
    reach the group order.
    """
    fs = g.factors
    if not fs:
        return [()]
    candidates = [[x for x in g.elements() if g.scale(n, x) == g.identity] for n in fs]
    tail_bound = [math.prod(fs[i:]) for i in range(len(fs))] + [1]
    found = []

    def extend(chosen, span):
        i = len(chosen)
        if i == len(fs):
            if len(span) == g.order:
                found.append(tuple(chosen))
            return
        for x in candidates[i]:
            new_span = span if x in span else g.subgroup(chosen + [x])
            if len(new_span) * tail_bound[i + 1] >= g.order:
                extend(chosen + [x], new_span)

    extend([], frozenset({g.identity}))
    return found


@pytest.mark.parametrize(
    "factors",
    [g.factors for g in abelian_groups_up_to(16)] + [(3, 3, 3)],
    ids=lambda factors: ",".join(map(str, factors)),
)
def test_kernel_mask_search_lists_the_closure_search_images(factors):
    g = make_group(factors)
    expected = _closure_automorphism_images(g)
    assert [images for images, _ in g._automorphism_search()] == expected
    assert [alpha.images for alpha in g.automorphisms()] == expected


def test_automorphism_count_closed_form():
    for g in abelian_groups_up_to(16) + [make_group((3, 3, 3))]:
        assert g.automorphism_count() == len(g.automorphisms()), g.factors
    # |GL(k, p)| for elementary abelian groups, and a few mixed orders.
    assert make_group((2, 2, 2, 2, 2)).automorphism_count() == 9_999_360
    assert make_group((2, 2, 2, 2, 2, 2)).automorphism_count() == 20_158_709_760
    assert make_group((5, 5)).automorphism_count() == 480
    assert make_group((6,)).automorphism_count() == 2
    assert make_group((2, 3, 4)).automorphism_count() == make_group((4, 6)).automorphism_count() == 16
    assert make_group((2, 4, 8)).automorphism_count() == 2048


def test_automorphism_size_bound():
    make_group((2, 2, 2, 2)).check_aut_size()  # 20,160 automorphisms
    for factors in [(2, 2, 2, 2, 2), (4, 4, 4), (2, 2, 4, 4)]:
        g = make_group(factors)
        assert g.order <= AUT_ORDER_BOUND and g.automorphism_count() > AUT_SIZE_BOUND
        with pytest.raises(CapabilityError, match="automorphisms"):
            g.automorphisms()
        assert factors not in _AUT_CACHE


def test_group_serialization_round_trip():
    g = make_group([2, 8])
    text = ",".join(map(str, g.factors))  # how render spells a group
    assert text == "2,8"
    assert parse_group(text) == g
    assert parse_group(" 2, 8 ") == g
    with pytest.raises(InvalidInputError):
        parse_group("")
    with pytest.raises(InvalidInputError):
        parse_group("2,x")
    with pytest.raises(InvalidInputError):
        parse_group("2,1")


def test_group_order_is_bounded_before_any_table_is_built():
    assert parse_group(str(GROUP_ORDER_BOUND)).order == GROUP_ORDER_BOUND
    for text in (str(GROUP_ORDER_BOUND + 1), "1000,1000", str(10**9)):
        with pytest.raises(InvalidInputError, match="exceeds the bound"):
            parse_group(text)
    with pytest.raises(InvalidInputError, match="exceeds the bound"):
        make_group([2, GROUP_ORDER_BOUND])
    assert not {(GROUP_ORDER_BOUND + 1,), (1000, 1000), (10**9,), (2, GROUP_ORDER_BOUND)} & set(_TABLES)


def test_element_serialization_round_trip():
    g = make_group([2, 8])
    assert format_element((1, 4)) == "[1,4]"
    assert g.validate(json.loads("[1,4]")) == (1, 4)
    assert g.validate(json.loads(" [ 1 , 4 ] ")) == (1, 4)
    with pytest.raises(InvalidInputError):
        g.validate(json.loads("[1]"))
    with pytest.raises(InvalidInputError):
        g.validate(json.loads("[1,9]"))
    with pytest.raises(InvalidInputError):
        g.validate("nope")


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
    for i, x in enumerate(els):
        assert [els[j] for j in g.add_row(i)] == [g.add(y, x) for y in els]
        assert g.kernel_mask(i) == sum(1 << j for j, v in enumerate(g.pairing_row(i)) if v == 0)
    sets = [[], [g.identity], list(els)]
    for _ in range(40):
        gens = [rng.choice(els) for _ in range(rng.randrange(4))]
        if rng.random() < 0.3:
            gens.append(g.identity)
        sets.append(gens)
    for gens in sets:
        span = _coordinate_closure(g, gens)
        assert g.subgroup(gens) == span
        assert g.generates([g.index[x] for x in gens]) == (len(span) == g.order)
        assert g.generates([g.index[tuple(list(x))] for x in gens]) == g.generates([g.index[x] for x in gens])
    for x in els:
        assert g.subgroup([x]) == _coordinate_closure(g, [x])


@pytest.mark.parametrize(
    "factors",
    [(2, 2, 2, 2), (2, 6), (3, 9), (2, 2, 2, 4), (2, 4, 8), (7,)],
    ids=lambda factors: ",".join(map(str, factors)),
)
def test_add_rows_match_the_coordinate_sum(factors):
    g = make_group(factors)
    els = g.elements()
    for i, x in enumerate(els):
        row = g.add_row(i)
        assert row == tuple(g.index[g.add(y, x)] for y in els)
        assert g.add_row(i) is row


def test_pickled_group_reattaches_to_the_shared_tables():
    from isopencil.covers import eigen_profile, make_cover

    g = make_group([2, 6])
    cover = make_cover(g, 0, {(1, 0): 2, (0, 1): 1, (0, 5): 1, (1, 3): 2})
    eigen_profile(cover)  # fills the shared tables that a pool result used to carry
    data = pickle.dumps(cover)
    assert b"_Tables" not in data
    assert len(data) < len(pickle.dumps(g._tables))
    back = pickle.loads(data)
    assert back == cover
    assert back.group._tables is _TABLES[(2, 6)]
    assert pickle.loads(pickle.dumps(make_group([3])))._tables is _TABLES[(3,)]


def test_index_tables_are_shared_by_groups_with_the_same_factors():
    first, second = make_group([2, 4]), make_group([2, 4])
    assert first is not second
    assert first.index is second.index
    assert first.add_row(first.index[(1, 3)]) is second.add_row(second.index[(1, 3)])
    assert first.elements() is second.elements()
    assert first.orders is second.orders
    assert first.neg_index is second.neg_index
    assert first.pairing_row(first.index[(1, 3)]) is second.pairing_row(second.index[(1, 3)])
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
        assert g.pairing_row(i) == tuple(g.pair_num(chi, x) for chi in els)
