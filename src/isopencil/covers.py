"""Covers of a genus-b curve by branch monodromy and unramified twist data.

A cover is stored as (group, base_genus, branch multiset, twist tuple).
Every derived quantity (bundle degrees, eigenspace dimensions, genus) is
computed by exact integer arithmetic from that data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
)
from .groups import Element, FiniteAbelianGroup

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


@dataclass(frozen=True)
class CoverData:
    """Cover data; its eigen-profile and genus are computed on first use and kept."""

    group: FiniteAbelianGroup
    base_genus: int
    branch: tuple[tuple[Element, int], ...]
    twist: tuple[Element, ...]

    def branch_points(self) -> int:
        return sum(m for _, m in self.branch)

    @cached_property
    def _dims(self) -> tuple[int, ...]:
        """Eigenspace dimension of every character, in elements() order."""
        grp = self.group
        nums = [0] * grp.order
        for e, m in self.branch:
            nums = [x + m * p for x, p in zip(nums, grp.pairing_row(e))]
        b = self.base_genus
        dims = [b]  # elements() starts at the identity, whose eigenspace is the base's
        for chi, num in zip(grp.elements()[1:], nums[1:]):
            dims.append(_dim_of_degree(_degree_of_num(grp, chi, num), b, chi))
        return tuple(dims)

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
    identity = group.identity
    merged: dict[Element, int] = {}
    points = 0
    for elem, mult in entries:
        e = group.validate(elem)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise InvalidInputError(f"branch multiplicity {mult!r} must be an integer >= 0")
        if mult == 0:
            continue
        if e == identity:
            raise InvalidInputError("the identity cannot be a branch element")
        merged[e] = merged.get(e, 0) + mult
        points += mult
    branch_t = tuple(sorted(merged.items()))

    twist_t = tuple(group.validate(t) for t in twist)
    if len(twist_t) != 2 * base_genus:
        raise InvalidInputError(
            f"twist must list {2 * base_genus} elements for base genus {base_genus}, got {len(twist_t)}"
        )

    orders = group.orders
    index = group.index
    total = 0  # index of the running sum of m * e
    for e, m in branch_t:
        row = group.add_row(e)
        for _ in range(m % orders[index[e]]):
            total = row[total]
    if total:
        raise InvalidMonodromyError(
            f"branch monodromies sum to {group.elements()[total]}, not the identity"
        )

    if base_genus == 0 and group.order > 1 and points < 2:
        raise InvalidMonodromyError("a cover of a rational base needs at least two branch points")

    gens = [e for e, _ in branch_t] + list(twist_t)
    if not group.generates(gens):
        raise DisconnectedCoverError("branch and twist data do not generate the group")

    return CoverData(group, base_genus, branch_t, twist_t)


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


def _aut_orbit(cover: CoverData) -> set[tuple]:
    """Every (branch, twist) that an automorphism of the group carries the cover to."""
    orbit = set()
    for alpha in cover.group.automorphisms():
        image = alpha.table
        branch = tuple(sorted((image[e], m) for e, m in cover.branch))
        orbit.add((branch, tuple(image[x] for x in cover.twist)))
    return orbit


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
            if not isinstance(v, int) or v < 0:
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
    return _iter_covers(group, base_genus, genus, max_branch_points, dims, up_to_aut)


def _iter_covers(group, base_genus, target_genus, max_branch_points, dims, up_to_aut):
    n = group.order
    m_exp = group.exponent
    nonzero = [e for e in group.elements() if e != group.identity]
    scaled_weight = [m_exp - m_exp // group.element_order(e) for e in nonzero]

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
        last_order = group.element_order(nonzero[last])
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
            order = group.element_order(nonzero[i])
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

    def leaves(i, s, remaining, count_left, chosen):
        if i == last:
            m0 = closing.get(s)
            if m0 is None:
                return
            w = scaled_weight[i]
            if remaining is None:
                ms = range(m0, count_left + 1, last_order)
            else:
                # a genus target forces the last multiplicity
                m, rest = divmod(remaining, w)
                ms = (m,) if rest == 0 and m <= count_left and m % last_order == m0 else ()
            for m in ms:
                yield tuple(chosen) + (((nonzero[i], m),) if m else ())
            return
        row = rows[i]
        w = scaled_weight[i]
        top = count_left
        if remaining is not None:
            top = min(top, remaining // w)
        for m in range(top + 1):
            rest = None if remaining is None else remaining - m * w
            if closable(i + 1, s, rest, count_left - m):
                if m:
                    chosen.append((nonzero[i], m))
                yield from leaves(i + 1, s, rest, count_left - m, chosen)
                if m:
                    chosen.pop()
            s = row[s]

    twists = (
        [()]
        if base_genus == 0
        else list(product(group.elements(), repeat=2 * base_genus))
    )

    if nonzero:
        branches = ()
        if last == 0 or closable(0, 0, target, count_budget):
            branches = leaves(0, 0, target, count_budget, [])
    else:
        branches = [()] if target in (None, 0) else []
    least: dict[tuple, tuple] = {}  # key of every orbit member met -> orbit minimum
    for branch in branches:
        for twist in twists:
            try:
                cover = make_cover(group, base_genus, branch, twist)
            except InvalidInputError:
                continue
            if dims is not None:
                profile = eigen_profile(cover)
                if any(profile[k] != v for k, v in dims.items()):
                    continue
            if up_to_aut:
                key = (cover.branch, cover.twist)
                if key not in least:
                    orbit = _aut_orbit(cover)
                    least.update(dict.fromkeys(orbit, min(orbit)))
                if least[key] != key:
                    continue
            yield cover
