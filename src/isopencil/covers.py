"""Covers of a genus-b curve by branch monodromy and unramified twist data.

A cover is stored as (group, base_genus, branch multiset, twist tuple).
Every derived quantity (bundle degrees, eigenspace dimensions, genus) is
computed by exact integer arithmetic from that data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    group: FiniteAbelianGroup
    base_genus: int
    branch: tuple[tuple[Element, int], ...]
    twist: tuple[Element, ...]

    def branch_points(self) -> int:
        return sum(m for _, m in self.branch)


def make_cover(group: FiniteAbelianGroup, base_genus, branch, twist=()) -> CoverData:
    if not isinstance(base_genus, int) or isinstance(base_genus, bool) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")

    entries = branch.items() if hasattr(branch, "items") else branch
    merged: dict[Element, int] = {}
    for elem, mult in entries:
        e = group.validate(elem)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise InvalidInputError(f"branch multiplicity {mult!r} must be an integer >= 0")
        if mult == 0:
            continue
        if e == group.identity:
            raise InvalidInputError("the identity cannot be a branch element")
        merged[e] = merged.get(e, 0) + mult
    branch_t = tuple(sorted(merged.items()))

    twist_t = tuple(group.validate(t) for t in twist)
    if len(twist_t) != 2 * base_genus:
        raise InvalidInputError(
            f"twist must list {2 * base_genus} elements for base genus {base_genus}, got {len(twist_t)}"
        )

    total = group.identity
    for e, m in branch_t:
        total = group.add(total, group.scale(m, e))
    if total != group.identity:
        raise InvalidMonodromyError(f"branch monodromies sum to {total}, not the identity")

    if base_genus == 0 and group.order > 1 and sum(m for _, m in branch_t) < 2:
        raise InvalidMonodromyError("a cover of a rational base needs at least two branch points")

    gens = [e for e, _ in branch_t] + list(twist_t)
    if not group.generates(gens):
        raise DisconnectedCoverError("branch and twist data do not generate the group")

    return CoverData(group, base_genus, branch_t, twist_t)


def bundle_degree(cover: CoverData, chi) -> int:
    """Degree of the building-data line bundle attached to the character."""
    grp = cover.group
    c = grp.validate(chi)
    num = sum(m * grp.pair_num(c, e) for e, m in cover.branch)
    if num % grp.exponent:
        raise InternalConsistencyError(f"bundle degree for {c} is not integral")
    return num // grp.exponent


def eigen_dim(cover: CoverData, chi) -> int:
    """Dimension of the chi-eigenspace of holomorphic 1-forms upstairs."""
    grp = cover.group
    c = grp.validate(chi)
    b = cover.base_genus
    if c == grp.identity:
        return b
    l = bundle_degree(cover, c)
    if l >= 1:
        return l + b - 1
    if b == 0:
        raise InternalConsistencyError(
            f"degree-0 bundle at nontrivial character {c} on a connected rational-base cover"
        )
    return b - 1


def eigen_profile(cover: CoverData) -> dict[Element, int]:
    return {chi: eigen_dim(cover, chi) for chi in cover.group.elements()}


def genus_rh(cover: CoverData) -> int:
    """Genus of the covering curve by the ramification count."""
    grp = cover.group
    n = grp.order
    total = Fraction(1 + n * (cover.base_genus - 1))
    for e, m in cover.branch:
        o = grp.element_order(e)
        total += Fraction(n, 2) * m * Fraction(o - 1, o)
    if total.denominator != 1:
        raise InternalConsistencyError(f"non-integral genus {total} from ramification data")
    return int(total)


def genus(cover: CoverData) -> int:
    by_dims = sum(eigen_profile(cover).values())
    by_rh = genus_rh(cover)
    if by_dims != by_rh:
        raise InternalConsistencyError(
            f"genus mismatch: eigenspace total {by_dims} vs ramification count {by_rh}"
        )
    return by_dims


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
    if not isinstance(base_genus, int) or base_genus < 0:
        raise InvalidInputError(f"base genus must be an integer >= 0, got {base_genus!r}")
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
        weight = Fraction(2 * (target_genus - 1 - n * (base_genus - 1)), n) * m_exp
        if weight < 0 or weight.denominator != 1:
            return
        target = int(weight)
    else:
        target = None
    cap = max_branch_points

    def leaves(i, remaining, count_left, chosen):
        if i == len(nonzero):
            if remaining in (None, 0):
                yield tuple((e, m) for e, m in chosen)
            return
        w = scaled_weight[i]
        top = count_left
        if remaining is not None:
            top = min(top, remaining // w)
        for m in range(top + 1):
            if m:
                chosen.append((nonzero[i], m))
            yield from leaves(
                i + 1,
                None if remaining is None else remaining - m * w,
                count_left - m,
                chosen,
            )
            if m:
                chosen.pop()

    count_budget = cap if cap is not None else (target if target is not None else 0)
    if target is not None and cap is None:
        count_budget = target  # every branch point has scaled weight >= 1

    twists = (
        [()]
        if base_genus == 0
        else list(product(group.elements(), repeat=2 * base_genus))
    )

    least: dict[tuple, tuple] = {}  # key of every orbit member met -> orbit minimum
    for branch in leaves(0, target, count_budget, []):
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
