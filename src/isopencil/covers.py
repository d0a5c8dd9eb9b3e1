"""Covers of a genus-b curve by branch monodromy and unramified twist data.

A cover is stored as (group, base_genus, branch multiset, twist tuple), with
every element as its index in group.elements(): the branch as (index,
multiplicity) pairs sorted by index, the twist as a tuple of indices. The
branch and twist properties give the same data as element tuples, for
records, rendering and the spec format. Every derived quantity (bundle
degrees, eigenspace dimensions, genus) is computed by exact integer
arithmetic from that data alone. make_cover takes each element as a tuple or
as an index and resolves it once into that normal form; _checked_cover then
records the eigen-profile, and its sum the genus, from the same pass over the
character numerators sum(m * <chi, e>) that checks that the branch sum closes.
_multiplicity_vectors is the one search for branch multiplicities: it closes
the branch sum for enumerate_covers and meets the classifier's degree equations.
_index_orbit is the one Aut(G) orbit scan: it moves index-space branch data by
groups.image, and both enumerate_covers(up_to_aut=True) and
canonical_cover_form take their orbit minimum from it.
"""

from __future__ import annotations

from .errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
    is_int,
)
from .groups import Element, FiniteAbelianGroup, image
from .record import Record

__all__ = [
    "CoverData",
    "make_cover",
    "eigen_profile",
    "genus",
    "genus_rh",
    "enumerate_covers",
    "canonical_cover_form",
]

TWIST_SPACE_BOUND = 100_000

# Curve genera of the atlas and fibre genera of the pencil search: a canonical
# pencil has fibres of genus at most 5 once chi is large enough (Beauville, 1979).
FIBER_GENUS_RANGE = (2, 5)


class CoverData(Record):
    """Cover data in element indices, with the eigen-profile and genus that
    make_cover derives from it.

    branch_ix holds (element index, multiplicity) pairs sorted by index, and
    twist_ix the twist's element indices. dims is the eigenspace dimension of
    every character, in elements() order, and genus their sum, checked
    against the ramification count.
    """

    __slots__ = ("group", "base_genus", "branch_ix", "twist_ix", "dims", "genus")

    @property
    def branch(self) -> tuple[tuple[Element, int], ...]:
        """The branch as (element, multiplicity) pairs, sorted by element."""
        els = self.group.elements()
        return tuple([(els[i], m) for i, m in self.branch_ix])

    @property
    def twist(self) -> tuple[Element, ...]:
        """The twist as element tuples."""
        els = self.group.elements()
        return tuple([els[i] for i in self.twist_ix])


def make_cover(group: FiniteAbelianGroup, base_genus, branch, twist=()) -> CoverData:
    """A checked cover from (element, multiplicity) branch pairs or a mapping
    and 2 * base_genus twist elements, each a tuple or an index (see _index)."""
    if not is_int(base_genus) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")

    index, els = group.index, group.elements()
    merged: dict[int, int] = {}  # element index -> multiplicity
    try:
        for elem, mult in branch.items() if hasattr(branch, "items") else branch:
            i = _index(group, index, els, elem)
            if not is_int(mult) or mult < 0:
                raise InvalidInputError(f"branch multiplicity {mult!r} must be an integer >= 0")
            if mult == 0:
                continue
            if i == 0:
                raise InvalidInputError("the identity cannot be a branch element")
            merged[i] = merged.get(i, 0) + mult
        twist_ix = tuple([_index(group, index, els, t) for t in twist])
    except (TypeError, ValueError):  # not iterable, or a branch entry that is not a pair
        raise InvalidInputError(
            "branch must be (element, multiplicity) pairs and twist a sequence of elements, "
            f"got {branch!r} and {twist!r}"
        ) from None
    # index order is element order, since elements() is lexicographic
    branch_ix = tuple(sorted(merged.items()))
    if len(twist_ix) != 2 * base_genus:
        raise InvalidInputError(
            f"twist must list {2 * base_genus} elements for base genus {base_genus}, got {len(twist_ix)}"
        )
    return _checked_cover(group, base_genus, branch_ix, twist_ix)


def _checked_cover(group: FiniteAbelianGroup, base_genus: int, branch_ix: tuple, twist_ix: tuple) -> CoverData:
    """The cover of data already in make_cover's normal form, after every
    mathematical check: the branch sum closes, a rational base has at least two
    points, the data generate, the bundle degrees are integral and the genus by
    eigenspaces equals the ramification count.

    branch_ix holds (element index, multiplicity) pairs with positive
    multiplicities and nonzero indices, sorted by index, and twist_ix the
    2 * base_genus twist indices; make_cover builds them from outside input,
    and the classifier's solver yields them.
    """
    # Characters separate elements, so the branch sum is 0 exactly when every
    # character's numerator is a multiple of the exponent (Pardini, 1991).
    nums = _numerators(group, branch_ix)
    exponent = group.exponent
    if any([num % exponent for num in nums]):
        total = 0  # index of the running sum of m * e, walked only to name it
        for i, m in branch_ix:
            row = group.add_row(i)
            for _ in range(m % group.orders[i]):
                total = row[total]
        raise InvalidMonodromyError(f"branch monodromies sum to {group.elements()[total]}, not the identity")

    if base_genus == 0 and group.order > 1 and sum([m for _, m in branch_ix]) < 2:
        raise InvalidMonodromyError("a cover of a rational base needs at least two branch points")

    if not group.generates([i for i, _ in branch_ix] + list(twist_ix)):
        raise DisconnectedCoverError("branch and twist data do not generate the group")

    dims = _profile(group, base_genus, nums)
    cover = CoverData(group, base_genus, branch_ix, twist_ix, dims, sum(dims))
    by_rh = genus_rh(cover)
    if cover.genus != by_rh:
        raise InternalConsistencyError(
            f"genus mismatch: eigenspace total {cover.genus} vs ramification count {by_rh}"
        )
    return cover


def _index(group: FiniteAbelianGroup, index: dict, els: list, x) -> int:
    """Position of x in els. An index, an integer but not a bool in
    0..order-1, is its own; a tuple goes through group.validate(x) unless it
    is a known tuple of plain ints, so an equal tuple such as (True, 1) is
    validated, and rejected."""
    if is_int(x):
        if not 0 <= x < group.order:
            raise InvalidInputError(f"element index {x!r} out of range [0, {group.order})")
        return x
    try:
        i = index.get(x)
    except TypeError:  # unhashable, such as a list
        i = None
    if i is None or x is not els[i] and not all([type(c) is int for c in x]):
        return index[group.validate(x)]
    return i


def _numerators(grp: FiniteAbelianGroup, branch_ix) -> list[int]:
    """sum(m * <chi, e>) over the branch pairs for every character chi, in elements() order,
    as numerators over the group exponent."""
    nums = [0] * grp.order
    for i, m in branch_ix:
        nums = [x + m * p for x, p in zip(nums, grp.pairing_row(i))]
    return nums


def _profile(grp: FiniteAbelianGroup, b: int, nums: list[int]) -> tuple[int, ...]:
    """Eigenspace dimension of every character from its branch numerator (see _numerators).

    By Chevalley-Weil a nontrivial character whose line bundle has degree
    l = num / exponent has an eigenspace of dimension l + b - 1. On a
    connected cover l is an integer, and 0 only over a base of positive genus.
    """
    exponent = grp.exponent
    dims = [b]  # elements() starts at the identity, whose eigenspace is the base's
    for chi, num in enumerate(nums[1:], 1):
        if num < exponent or num % exponent:  # a degree below 1, or not integral
            if num % exponent:
                raise InternalConsistencyError(f"bundle degree for character index {chi} is not integral")
            if b == 0:
                raise InternalConsistencyError(
                    f"degree-0 bundle at nontrivial character index {chi} on a connected rational-base cover"
                )
        dims.append(num // exponent + b - 1)
    return tuple(dims)


def eigen_profile(cover: CoverData) -> dict[Element, int]:
    """Character -> eigenspace dimension, read from the cover's profile as a fresh dict."""
    return dict(zip(cover.group.elements(), cover.dims))


def genus_rh(cover: CoverData) -> int:
    """Genus of the covering curve by the ramification count."""
    grp = cover.group
    n = grp.order
    orders = grp.orders
    # 2g - 2 = n(2b - 2) + sum of m * n(1 - 1/o); every order o divides n.
    two_g = 2 + n * (2 * cover.base_genus - 2) + sum(
        m * (n - n // orders[i]) for i, m in cover.branch_ix
    )
    if two_g % 2:
        raise InternalConsistencyError(f"non-integral genus {two_g}/2 from ramification data")
    return two_g // 2


def genus(cover: CoverData) -> int:
    """Genus by the eigenspace total, which make_cover checked against genus_rh."""
    return cover.genus


def _index_orbit(group: FiniteAbelianGroup, branch: tuple, twist: tuple) -> set[tuple]:
    """Every image of an index-space (branch, twist) under Aut(G), in index space.

    branch holds (index, multiplicity) pairs sorted by index, twist indices;
    index order is element order, since elements() is lexicographic.
    """
    orbit = set()
    for alpha in group.automorphisms():
        perm = alpha.perm
        orbit.add((image(perm, branch), tuple([perm[t] for t in twist])))
    return orbit


def canonical_cover_form(cover: CoverData) -> tuple:
    """Lexicographically minimal (branch, twist) over the automorphism orbit,
    as element tuples.

    The minimum is taken in index space, where index order is element order.
    """
    els = cover.group.elements()
    branch, twist = min(_index_orbit(cover.group, cover.branch_ix, cover.twist_ix))
    return tuple([(els[i], m) for i, m in branch]), tuple([els[t] for t in twist])


def enumerate_covers(group: FiniteAbelianGroup, base_genus: int, *, genus: int, up_to_aut: bool = False):
    """Yield one cover of the given genus over a genus-base_genus curve per
    generating (branch, twist) pair: branch multisets in ascending
    lexicographic order of their multiplicity vectors on the elements in index
    order, each with its 2 * base_genus twist elements in itertools.product
    order. (2,2) over an elliptic base at genus 3 gives 36 covers from 3
    multisets. up_to_aut keeps only the least (branch, twist) of each
    Aut(G)-orbit, in its place in that order: 6 covers there.
    """
    if not is_int(base_genus) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")
    if not is_int(genus) or genus < 0:
        raise InvalidInputError(f"genus must be an integer >= 0, got {genus!r}")
    if genus < 1 + group.order * (base_genus - 1):
        return iter(())
    if base_genus >= 1 and group.order ** (2 * base_genus) > TWIST_SPACE_BOUND:
        raise CapabilityError(
            f"twist space of size {group.order ** (2 * base_genus)} exceeds the supported bound"
        )
    if up_to_aut:
        group.check_aut_size()
    return _iter_covers(group, base_genus, genus, up_to_aut)


def _multiplicity_vectors(step, weights, start, final, goal: range):
    """Yield (vector, weight) for every multiplicity vector on the nonzero
    elements that carries the state from start to final with weight in goal.

    Elements are walked by index, 1..len(weights)-1; the identity, at index 0,
    takes no multiplicity. m copies of element i move the state along its
    chain s, step(i, s), ..., which either dies (step returns None) or comes
    back to s and repeats (then weights[i] must be positive), and
    add m * weights[i] to the weight. vector holds the (index, multiplicity)
    pairs with nonzero multiplicity, and vectors come in ascending
    lexicographic order of the multiplicity vector. mask[i][s] has bit u set
    when elements i.. can take state s at weight u to a leaf, and an entry is
    pushed only when its bit is set, so every search frame has a leaf below
    it. The last element gets no frame: its multiplicities that reach final
    are stepped through by the chain's period in its parent's frame, so with
    one nonzero element no mask is built.
    """
    last = len(weights) - 1
    if not goal or last < 1:
        if start == final and 0 in goal:
            yield (), 0
        return
    limit = goal[-1]
    # chains[i][s]: (the states of 0, 1, ... copies of element i from s,
    # whether they repeat); states are found forwards from start. The chain
    # of a later state on a walked chain is its rotation (repeating) or its
    # tail (dying), so each chain is walked once.
    chains = [None]
    states = {start: None}
    for i in range(1, last + 1):
        level = {}
        reached = {}
        for s in states:
            if s in level:
                continue
            chain = [s]
            t = step(i, s)
            while t is not None and t != s:
                chain.append(t)
                t = step(i, t)
            repeats = t is not None
            for k, t in enumerate(chain):
                if t in states and t not in level:
                    level[t] = (chain[k:] + chain[:k] if repeats else chain[k:], repeats)
            reached.update(dict.fromkeys(chain))
        chains.append(level)
        states = reached
    if last > 1:
        # bits goal[0], goal[0] + goal.step, ...: the weights a leaf may carry
        below = dict.fromkeys(states, 0)
        below[final] = ((1 << len(goal) * goal.step) - 1) // ((1 << goal.step) - 1) << goal[0]
        mask = [None] * (last + 1)
        for i in range(last, 0, -1):
            w = weights[i]
            level = {}
            for s, (chain, repeats) in chains[i].items():
                bits = 0
                for k, t in enumerate(chain):
                    bits |= below[t] >> (k * w)
                if repeats:  # OR in the shifts by whole periods
                    period = len(chain) * w
                    while period <= limit:
                        bits |= bits >> period
                        period *= 2
                level[s] = bits
            mask[i] = below = level

    def entry(i, s, used):
        """[next multiplicity, last multiplicity, chain from s, weight so far, weight, period]."""
        chain, repeats = chains[i][s]
        w = weights[i]
        period = len(chain)
        top = (limit - used) // w if w else period - 1
        if not repeats:
            top = min(top, period - 1)
        return [0, top, chain, used, w, period]

    def leaves(s, used):
        """The last element's multiplicities that carry s to final: final's
        place in the chain plus whole periods, from the least that brings the
        weight up to goal[0]. A chain that dies has one such place."""
        _, top, chain, _, w, period = entry(last, s, used)
        low = max(0, -((used - goal[0]) // w)) if w else 0
        m = chain.index(final) if final in chain else top + 1
        if m < low:
            m += -((m - low) // period) * period
        return range(m, top + 1, period)

    path = []  # (index, multiplicity) of every nonzero choice on the stack
    stack = [[0, 0, [start], 0, 0, 1]]  # stack[i] belongs to element i; the identity is the root
    while stack:
        frame = stack[-1]
        m, top, chain, used, w, period = frame
        i = len(stack) - 1
        if m > top:
            stack.pop()
            if path and path[-1][0] == i:
                path.pop()
            continue
        frame[0] = m + 1
        t = chain[m % period]
        u = used + m * w
        if m == 1:
            path.append((i, 1))
        elif m:
            path[-1] = (i, m)
        if i + 1 < last:
            if mask[i + 1][t] >> u & 1:
                stack.append(entry(i + 1, t, u))
            continue
        if i and not mask[last][t] >> u & 1:  # with one nonzero element (i = 0) no mask is built
            continue
        w = weights[last]
        for k in leaves(t, u):
            if u + k * w in goal:
                yield ((*path, (last, k)) if k else tuple(path)), u + k * w


def _twist_table(group: FiniteAbelianGroup, base_genus: int) -> list:
    """(indices, mask) of every twist, in product(range(n), repeat=2 * base_genus) order.

    mask is the common kernel of the twist's elements: a (branch, twist)
    generates G exactly when only the trivial character (bit 0) vanishes on
    all of its elements.
    """
    masks = [group.kernel_mask(i) for i in range(group.order)]
    twists = [((), masks[0])]  # every character vanishes on the identity
    for _ in range(2 * base_genus):
        twists = [(t + (j,), mask & masks[j]) for t, mask in twists for j in range(group.order)]
    return twists


def _iter_covers(group, base_genus, target_genus, up_to_aut):
    n = group.order
    m_exp = group.exponent

    # Branch sums are carried as element indices (0 is the identity); a branch
    # vector is a leaf only when its sum m_1*e_1 + ... + m_k*e_k is 0, since
    # make_cover rejects every other one whatever the base genus or twist.
    weight = 2 * (target_genus - 1 - n * (base_genus - 1)) * m_exp
    if weight % n:
        return
    weights = [m_exp - m_exp // o for o in group.orders]  # scaled RH weight
    goal = range(weight // n, weight // n + 1)
    rows = [group.add_row(i) for i in range(n)]
    masks = [group.kernel_mask(i) for i in range(n)]
    vectors = _multiplicity_vectors(lambda i, s: rows[i][s], weights, 0, 0, goal)

    # Key of every orbit member met -> orbit minimum, all in index space. A
    # leaf's (branch, twist) is already in make_cover's normal form (branch
    # sorted by element, no zero multiplicity), so a known non-minimal orbit
    # member is skipped unbuilt, and so is a disconnected one.
    least: dict[tuple, tuple] = {}
    twists = _twist_table(group, base_genus)
    for branch, _ in vectors:
        branch_mask = masks[0]
        for j, _ in branch:
            branch_mask &= masks[j]
        for twist, twist_mask in twists:
            if branch_mask & twist_mask != 1:
                continue
            key = (branch, twist)
            known = least.get(key) if up_to_aut else None
            if known is not None and known != key:
                continue
            # A leaf's branch sum closes, its masks say it generates and its
            # twist has 2b elements; over a rational base that means at least
            # two points when G is nontrivial (one closing point is the
            # identity). So make_cover accepts every leaf.
            try:
                cover = make_cover(group, base_genus, branch, twist)
            except InvalidInputError as err:
                raise InternalConsistencyError(f"solved branch data are not a cover: {err}") from err
            if up_to_aut and known is None:
                if key != (cover.branch_ix, cover.twist_ix):
                    raise InternalConsistencyError(
                        f"enumerator leaf {key} is not in normal form {(cover.branch_ix, cover.twist_ix)}"
                    )
                orbit = _index_orbit(group, branch, twist)
                least.update(dict.fromkeys(orbit, min(orbit)))
                if least[key] != key:
                    continue
            yield cover
