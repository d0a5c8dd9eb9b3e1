"""Covers of a genus-b curve by branch monodromy and unramified twist data.

A cover is stored as (group, base_genus, branch multiset, twist tuple).
Every derived quantity (bundle degrees, eigenspace dimensions, genus) is
computed by exact integer arithmetic from that data alone. make_cover validates
each element once and records the eigen-profile from the same pass over the
character numerators sum(m * <chi, e>) that checks that the branch sum closes.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
)
from .groups import Element, FiniteAbelianGroup
from .record import Record, _set

__all__ = [
    "CoverData",
    "make_cover",
    "bundle_degree",
    "eigen_dim",
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
    """Cover data; its eigen-profile and genus are computed on first use and kept."""

    __slots__ = ("group", "base_genus", "branch", "twist", "__dict__")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        base_genus: int,
        branch: tuple[tuple[Element, int], ...],
        twist: tuple[Element, ...],
    ):
        _set(self, "group", group)
        _set(self, "base_genus", base_genus)
        _set(self, "branch", branch)
        _set(self, "twist", twist)

    @cached_property
    def _dims(self) -> tuple[int, ...]:
        """Eigenspace dimension of every character, in elements() order."""
        return _profile(self.group, self.base_genus, _numerators(self.group, self.branch))

    @cached_property
    def _genus(self) -> int:
        by_dims = sum(self._dims)
        by_rh = genus_rh(self)
        if by_dims != by_rh:
            raise InternalConsistencyError(
                f"genus mismatch: eigenspace total {by_dims} vs ramification count {by_rh}"
            )
        return by_dims


def make_cover(group: FiniteAbelianGroup, base_genus, branch, twist=()) -> CoverData:
    if not isinstance(base_genus, int) or isinstance(base_genus, bool) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")

    entries = branch.items() if hasattr(branch, "items") else branch
    index, els = group.index, group.elements()
    merged: dict[int, int] = {}  # element index -> multiplicity
    points = 0
    for elem, mult in entries:
        i = _index(group, index, els, elem)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise InvalidInputError(f"branch multiplicity {mult!r} must be an integer >= 0")
        if mult == 0:
            continue
        if i == 0:
            raise InvalidInputError("the identity cannot be a branch element")
        merged[i] = merged.get(i, 0) + mult
        points += mult
    # index order is element order, since elements() is lexicographic
    branch_t = tuple([(els[i], m) for i, m in sorted(merged.items())])

    twist_t = tuple([els[_index(group, index, els, t)] for t in twist])
    if len(twist_t) != 2 * base_genus:
        raise InvalidInputError(
            f"twist must list {2 * base_genus} elements for base genus {base_genus}, got {len(twist_t)}"
        )

    # Characters separate elements, so the branch sum is 0 exactly when every
    # character's numerator is a multiple of the exponent (Pardini, 1991).
    nums = _numerators(group, branch_t)
    exponent = group.exponent
    if any([num % exponent for num in nums]):
        total = 0  # index of the running sum of m * e, walked only to name it
        for e, m in branch_t:
            row = group.add_row(e)
            for _ in range(m % group.element_order(e)):
                total = row[total]
        raise InvalidMonodromyError(f"branch monodromies sum to {els[total]}, not the identity")

    if base_genus == 0 and group.order > 1 and points < 2:
        raise InvalidMonodromyError("a cover of a rational base needs at least two branch points")

    gens = [e for e, _ in branch_t] + list(twist_t)
    if not group.generates(gens):
        raise DisconnectedCoverError("branch and twist data do not generate the group")

    cover = CoverData(group, base_genus, branch_t, twist_t)
    cover.__dict__["_dims"] = _profile(group, base_genus, nums)
    return cover


def _index(group: FiniteAbelianGroup, index: dict, els: list, x) -> int:
    """Position of x in els; group.validate(x) runs unless x is a known tuple of
    plain ints, so an equal tuple such as (True, 1) is validated, and rejected."""
    try:
        i = index.get(x)
    except TypeError:  # unhashable, such as a list
        i = None
    if i is None or x is not els[i] and not all([type(c) is int for c in x]):
        return index[group.validate(x)]
    return i


def _numerators(grp: FiniteAbelianGroup, branch) -> list[int]:
    """sum(m * pair_num(chi, e)) over the branch for every character chi, in elements() order."""
    nums = [0] * grp.order
    for e, m in branch:
        nums = [x + m * p for x, p in zip(nums, grp.pairing_row(e))]
    return nums


def _profile(grp: FiniteAbelianGroup, b: int, nums: list[int]) -> tuple[int, ...]:
    """Eigenspace dimension of every character from its branch numerator (see _numerators)."""
    exponent = grp.exponent
    dims = [b]  # elements() starts at the identity, whose eigenspace is the base's
    for chi, num in zip(grp.elements()[1:], nums[1:]):
        if num < exponent or num % exponent:  # a degree below 1, or not integral
            dims.append(_dim_of_degree(_degree_of_num(grp, chi, num), b, chi))
        else:
            dims.append(num // exponent + b - 1)
    return tuple(dims)


def _degree_of_num(grp: FiniteAbelianGroup, chi: Element, num: int) -> int:
    """Bundle degree from its numerator over the group exponent."""
    if num % grp.exponent:
        raise InternalConsistencyError(f"bundle degree for {chi} is not integral")
    return num // grp.exponent


def _dim_of_degree(l: int, b: int, chi: Element) -> int:
    """Eigenspace dimension at a nontrivial character with bundle degree l over base genus b."""
    if l >= 1:
        return l + b - 1
    if b == 0:
        raise InternalConsistencyError(
            f"degree-0 bundle at nontrivial character {chi} on a connected rational-base cover"
        )
    return b - 1


def bundle_degree(cover: CoverData, chi) -> int:
    """Degree of the building-data line bundle attached to the character."""
    grp = cover.group
    c = grp.validate(chi)
    return _degree_of_num(grp, c, sum(m * grp.pair_num(c, e) for e, m in cover.branch))


def eigen_dim(cover: CoverData, chi) -> int:
    """Dimension of the chi-eigenspace of holomorphic 1-forms upstairs."""
    grp = cover.group
    c = grp.validate(chi)
    b = cover.base_genus
    if c == grp.identity:
        return b
    return _dim_of_degree(bundle_degree(cover, c), b, c)


def eigen_profile(cover: CoverData) -> dict[Element, int]:
    """Character -> eigen_dim, read from the cover's cached profile as a fresh dict."""
    return dict(zip(cover.group.elements(), cover._dims))


def genus_rh(cover: CoverData) -> int:
    """Genus of the covering curve by the ramification count."""
    grp = cover.group
    n = grp.order
    orders = grp.orders
    index = grp.index
    # 2g - 2 = n(2b - 2) + sum of m * n(1 - 1/o); every order o divides n.
    two_g = 2 + n * (2 * cover.base_genus - 2) + sum(
        m * (n - n // orders[index[e]]) for e, m in cover.branch
    )
    if two_g % 2:
        raise InternalConsistencyError(f"non-integral genus {two_g}/2 from ramification data")
    return two_g // 2


def genus(cover: CoverData) -> int:
    """Genus by the eigenspace total, checked against genus_rh once per cover."""
    return cover._genus


def _index_orbit(group: FiniteAbelianGroup, branch: tuple, twist: tuple) -> set[tuple]:
    """Every image of an index-space (branch, twist) under Aut(G), in index space.

    branch holds (index, multiplicity) pairs sorted by index, twist indices;
    index order is element order, since elements() is lexicographic.
    """
    indices = [i for i, _ in branch]
    mults = [m for _, m in branch]
    orbit = set()
    for alpha in group.automorphisms():
        image = alpha.perm.__getitem__
        orbit.add((tuple(sorted(zip(map(image, indices), mults))), tuple(map(image, twist))))
    return orbit


def _aut_orbit(cover: CoverData) -> set[tuple]:
    """Every (branch, twist) that an automorphism of the group carries the cover to."""
    grp = cover.group
    els = grp.elements()
    index = grp.index
    orbit = _index_orbit(
        grp,
        tuple((index[e], m) for e, m in cover.branch),
        tuple(index[t] for t in cover.twist),
    )
    return {
        (tuple((els[i], m) for i, m in branch), tuple(els[t] for t in twist))
        for branch, twist in orbit
    }


def canonical_cover_form(cover: CoverData) -> tuple:
    """Lexicographically minimal (branch, twist) over the automorphism orbit."""
    return min(_aut_orbit(cover))


def enumerate_covers(
    group: FiniteAbelianGroup,
    base_genus: int,
    *,
    genus: int | None = None,
    max_branch_points: int | None = None,
    dims=None,
    up_to_aut: bool = False,
):
    """Yield every valid cover meeting the constraints, once per branch multiset.

    At least one of genus, max_branch_points, or a dims map covering every
    character must be supplied, otherwise the search space is unbounded.
    """
    if not isinstance(base_genus, int) or isinstance(base_genus, bool) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")
    if max_branch_points is not None and (
        not isinstance(max_branch_points, int)
        or isinstance(max_branch_points, bool)
        or max_branch_points < 0
    ):
        raise InvalidInputError(
            f"max_branch_points must be an integer >= 0, got {max_branch_points!r}"
        )
    if dims is not None:
        dims = {group.validate(k): v for k, v in dims.items()}
        for v in dims.values():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidInputError(f"dimension constraint {v!r} must be an integer >= 0")
        if genus is None and len(dims) == group.order:
            genus = sum(dims.values())
    if genus is None and max_branch_points is None:
        raise CapabilityError(
            "unbounded constraint set: give genus, max_branch_points, or a full dims map"
        )
    if genus is not None and genus < 1 + group.order * (base_genus - 1):
        return iter(())
    if base_genus >= 1 and group.order ** (2 * base_genus) > TWIST_SPACE_BOUND:
        raise CapabilityError(
            f"twist space of size {group.order ** (2 * base_genus)} exceeds the supported bound"
        )
    if up_to_aut:
        group.check_aut_size()
    return _iter_covers(group, base_genus, genus, max_branch_points, dims, up_to_aut)


def _iter_covers(group, base_genus, target_genus, max_branch_points, dims, up_to_aut):
    n = group.order
    m_exp = group.exponent
    els = group.elements()
    nonzero = els[1:]  # elements() starts at the identity: nonzero[i] has index i + 1
    orders = group.orders
    scaled_weight = [m_exp - m_exp // o for o in orders[1:]]

    if target_genus is not None:
        weight = 2 * (target_genus - 1 - n * (base_genus - 1)) * m_exp
        if weight < 0 or weight % n:
            return
        target = weight // n
    else:
        target = None
    cap = max_branch_points
    count_budget = cap if cap is not None else target  # every branch point has scaled weight >= 1

    # Branch sums are carried as element indices (0 is the identity); a branch
    # vector is a leaf only when its sum m_1*e_1 + ... + m_k*e_k is 0, since
    # make_cover rejects every other one whatever the base genus or twist.
    rows = [group.add_row(e) for e in nonzero]
    index = group.index
    last = len(nonzero) - 1
    if nonzero:
        last_order = orders[last + 1]
        # index of -(m * e_last) -> m: the sums that m copies of e_last close
        closing = {
            index[group.neg(group.scale(m, nonzero[last]))]: m for m in range(last_order)
        }
    if last >= 1:  # with one nonzero element the closing lookup alone decides
        # reach[i][s]: bit r is set when elements i.. can close the sum s with
        # scaled weight exactly r (genus target) or with r branch points (no
        # target), so a frame is entered only when a leaf lies below it. With
        # both a target and a cap, the cap can still end a frame leafless.
        steps = scaled_weight if target is not None else [1] * len(nonzero)
        limit = target if target is not None else count_budget
        full = (2 << limit) - 1

        def periodic(mask, period):
            """mask | mask << period | mask << 2 * period | ..., cut at bit limit."""
            while period <= limit:
                mask |= mask << period
                period *= 2
            return mask & full

        # m copies of an element of order o move the sum by m mod o and the
        # weight by m * w, so each mask is o shifted copies repeated with
        # period o * w: O(o + log(limit)) big-integer steps, not O(limit).
        w = steps[last]
        reach_last = [0] * n
        for s, m0 in closing.items():
            reach_last[s] = periodic(1 << (m0 * w), last_order * w)
        reach = [reach_last]
        for i in range(last - 1, -1, -1):
            row = rows[i]
            w = steps[i]
            order = orders[i + 1]
            below = reach[-1]
            level = []
            for s in range(n):
                mask = 0
                t = s  # s plus r copies of nonzero[i]
                for r in range(order):
                    mask |= below[t] << (r * w)
                    t = row[t]
                level.append(periodic(mask, order * w))
            reach.append(level)
        reach.reverse()
        # Lookups that read one bit without copying a limit-bit integer.
        if target is None:
            fewest = [[(m & -m).bit_length() - 1 for m in level] for level in reach]
        else:
            width = limit // 8 + 1
            reach = [[m.to_bytes(width, "little") for m in level] for level in reach]

    def closable(i, s, remaining, count_left) -> bool:
        if remaining is None:
            return 0 <= fewest[i][s] <= count_left  # fewest branch points that close s
        return reach[i][s][remaining >> 3] >> (remaining & 7) & 1

    def closing_mults(s, remaining, count_left):
        """Multiplicities of the last nonzero element that close the sum s."""
        m0 = closing.get(s)
        if m0 is None:
            return ()
        if remaining is None:
            return range(m0, count_left + 1, last_order)
        # a genus target forces the last multiplicity
        m, rest = divmod(remaining, scaled_weight[last])
        return (m,) if rest == 0 and m <= count_left and m % last_order == m0 else ()

    # Connectedness by character kernels: a (branch, twist) generates G exactly
    # when only the trivial character (bit 0) vanishes on all of its elements.
    masks = [group.kernel_mask(e) for e in els]
    every_char = masks[0]  # every character vanishes on the identity
    kernel = masks[1:]
    twists = [((), every_char)]  # (indices, mask), in product(range(n), ...) order
    for _ in range(2 * base_genus):
        twists = [(t + (j,), mask & masks[j]) for t, mask in twists for j in range(n)]
    # need[i]: characters vanishing on nonzero[i:] and on every twist. A path
    # whose mask keeps more than bit 0 of need[i] cannot generate G below.
    # A twist may hold any element, so with base genus >= 1 only the trivial
    # character vanishes on every twist and nothing is cut.
    need = [0] * (last + 2)
    need[-1] = every_char if base_genus == 0 else 1
    for i in range(last, -1, -1):
        need[i] = need[i + 1] & kernel[i]

    def branch_vectors():
        """(branch, mask) of every closed branch vector, from this one frame.

        branch holds (index, multiplicity) pairs by index, without zero
        multiplicities; mask is the common kernel of its elements. An explicit
        stack replaces recursion: one entry per open level i < last holding
        [m, s, remaining, count_left, entry mask, top], where m is the next
        multiplicity of nonzero[i] to try and s, remaining, count_left
        already count m copies of it. The last level is closed inline.
        """
        if not nonzero:
            if target in (None, 0):
                yield (), every_char
            return
        if last == 0:
            for m in closing_mults(0, target, count_budget):
                yield (((1, m),), kernel[0]) if m else ((), every_char)
            return
        if not closable(0, 0, target, count_budget):
            return
        chosen = []  # (index, multiplicity) of every nonzero choice on the path
        top = count_budget if target is None else min(count_budget, target // scaled_weight[0])
        stack = [[0, 0, target, count_budget, every_char, top]]
        while stack:
            frame = stack[-1]
            m, s, remaining, count_left, mask, top = frame
            i = len(stack) - 1
            if m > top:
                stack.pop()
                if top:
                    chosen.pop()
                continue
            frame[0] = m + 1
            frame[1] = rows[i][s]
            if remaining is not None:
                frame[2] = remaining - scaled_weight[i]
            frame[3] = count_left - 1
            if m:
                mask &= kernel[i]
                if m == 1:
                    chosen.append((i + 1, 1))
                else:
                    chosen[-1] = (i + 1, m)
            j = i + 1
            if mask & need[j] != 1:
                continue
            if j < last:
                if closable(j, s, remaining, count_left):
                    top = count_left
                    if remaining is not None:
                        top = min(top, remaining // scaled_weight[j])
                    stack.append([0, s, remaining, count_left, mask, top])
                continue
            for m in closing_mults(s, remaining, count_left):
                if m:
                    yield tuple(chosen) + ((j + 1, m),), mask & kernel[j]
                else:
                    yield tuple(chosen), mask

    # Key of every orbit member met -> orbit minimum, all in index space. A
    # leaf's (branch, twist) is already in make_cover's normal form (branch
    # sorted by element, no zero multiplicity), so a known non-minimal orbit
    # member is skipped unbuilt, and so is a disconnected one.
    least: dict[tuple, tuple] = {}
    for branch, branch_mask in branch_vectors():
        elem_branch = None
        for twist, twist_mask in twists:
            if branch_mask & twist_mask != 1:
                continue
            key = (branch, twist)
            known = least.get(key) if up_to_aut else None
            if known is not None and known != key:
                continue
            if elem_branch is None:
                elem_branch = tuple([(els[j], m) for j, m in branch])
            elem_twist = tuple([els[j] for j in twist])
            try:
                cover = make_cover(group, base_genus, elem_branch, elem_twist)
            except InvalidInputError:
                continue
            if dims is not None:
                profile = eigen_profile(cover)
                if any(profile[k] != v for k, v in dims.items()):
                    continue
            if up_to_aut and known is None:
                if (elem_branch, elem_twist) != (cover.branch, cover.twist):
                    raise InternalConsistencyError(
                        f"enumerator leaf {(elem_branch, elem_twist)} is not in normal form "
                        f"{(cover.branch, cover.twist)}"
                    )
                orbit = _index_orbit(group, branch, twist)
                least.update(dict.fromkeys(orbit, min(orbit)))
                if least[key] != key:
                    continue
            yield cover
