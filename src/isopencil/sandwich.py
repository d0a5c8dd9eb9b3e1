"""Diagonal quotient surfaces glued from two covers with the same group.

Characters and branch elements are read as element indices throughout; only
the pencil character becomes an element tuple, for the report.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .covers import FIBER_GENUS_RANGE, CoverData, genus
from .errors import InternalConsistencyError, InvalidInputError
from .groups import FiniteAbelianGroup
from .record import Record
from .singularities import canonical_type, hj_expansion, k2_correction

__all__ = [
    "Sandwich",
    "SingularClass",
    "InvariantReport",
    "make_sandwich",
    "irregularity",
    "singular_locus",
    "invariants",
]


class Sandwich(Record):
    """Two covers of the same group, multiplied and divided diagonally."""

    __slots__ = ("cover_f", "cover_d")

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.cover_f.group


class SingularClass(Record):
    """Aggregated cyclic quotient points of one type on the quotient surface."""

    __slots__ = ("n", "q", "count", "z_points")


class InvariantReport(Record):
    """Numerical invariants of the minimal resolution of the quotient."""

    __slots__ = ("p_g", "q", "chi", "euler_e", "K2", "t_z", "sing", "canonical_character")


def make_sandwich(cover_f: CoverData, cover_d: CoverData) -> Sandwich:
    """Validate and pair two covers; the first one is the pencil fiber side."""
    if cover_f.group.factors != cover_d.group.factors:
        raise InvalidInputError(
            f"covers use different groups {cover_f.group.factors} and {cover_d.group.factors}"
        )
    _checked_genus(cover_f)
    _checked_genus(cover_d)
    return Sandwich(cover_f, cover_d)


def _checked_genus(cover: CoverData) -> int:
    """The cover's genus, checked to be at least 2, as both curves of a sandwich need."""
    g = genus(cover)
    if g < 2:
        raise InvalidInputError(f"both curves need genus >= 2, got {g}")
    return g


def _pairing_dims(eigen_f: list, neg: tuple, dims_d: tuple) -> list[tuple[int, int, int]]:
    """(character index chi, dim on F, dim of -chi on D) for every chi where
    both are nonzero, from F's nonzero (chi, dim) pairs and D's dims."""
    return [(i, df, dims_d[neg[i]]) for i, df in eigen_f if dims_d[neg[i]]]


def irregularity(sw: Sandwich) -> int:
    return sw.cover_f.base_genus + sw.cover_d.base_genus


@lru_cache(maxsize=None)
def _point_type(grp: FiniteAbelianGroup, h1: int, h2: int):
    """Type of the points of F x D that the local monodromies h1, h2 fix,
    both element indices.

    Returns (n, canonical (n, q), (|G|/o1)*(|G|/o2)), or None when the shared
    stabilizer is trivial. It depends only on the group and the pair, so each
    is computed once per (group, h1, h2); groups are interned, so the cache
    key hashes by identity.
    """
    powers1 = grp._multiples(h1)  # indices of 0, h1, 2 h1, ...
    powers2 = grp._multiples(h2)
    o1, o2 = len(powers1), len(powers2)
    n = len(set(powers1).intersection(powers2))
    if n == 1:
        return None
    # Generator acting with rotation 1/n on the first local coordinate.
    c = powers1[o1 // n]
    k2 = powers2.index(c)
    if k2 * n % o2:
        raise InternalConsistencyError(
            f"stabilizer generator of index {c} is not an n-th power along index {h2}"
        )
    q = k2 * n // o2
    if not (1 <= q < n and gcd(q, n) == 1):
        raise InternalConsistencyError(
            f"rotation exponent {q} invalid for a point of order {n}"
        )
    return n, canonical_type(n, q), (grp.order // o1) * (grp.order // o2)


def singular_locus(sw: Sandwich) -> tuple[SingularClass, ...]:
    """Cyclic quotient points grouped by type, with their product-side counts."""
    return _singular_classes(sw.group, sw.cover_f.branch_ix, sw.cover_d.branch_ix, {})


def _singular_classes(grp: FiniteAbelianGroup, branch_f: tuple, branch_d: tuple, shared: dict):
    """singular_locus of the covers with these index-space branches. shared
    maps (n, q, count, z) to a SingularClass already made, and every new one
    is added to it, so equal classes are one object."""
    order = grp.order
    classes: dict[tuple[int, int], list[int]] = {}
    for h1, d1 in branch_f:
        for h2, d2 in branch_d:
            point = _point_type(grp, h1, h2)
            if point is None:
                continue
            n, key, unit = point
            z = d1 * d2 * unit
            if z * n % order:
                raise InternalConsistencyError(
                    f"{z} stabilized points do not split into orbits of size {order // n}"
                )
            bucket = classes.setdefault(key, [0, 0])
            bucket[0] += z * n // order
            bucket[1] += z
    out = []
    for (n, q), (count, z) in sorted(classes.items()):
        sing = shared.get((n, q, count, z))
        if sing is None:
            sing = shared[n, q, count, z] = SingularClass(n, q, count, z)
        out.append(sing)
    return tuple(out)


@lru_cache(maxsize=None)
def _resolution(n: int, q: int) -> tuple[int, int, int]:
    """Euler number of the exceptional chain over one 1/n(1,q) point, and the
    numerator and denominator of its K^2 correction."""
    k2 = k2_correction(n, q)
    return len(hj_expansion(n, q)) + 1, k2.numerator, k2.denominator


def invariants(sw: Sandwich) -> InvariantReport:
    """Invariants of the resolved quotient, checked along two routes: the
    fiber stage of sw.cover_f, then the surface stage of sw.cover_d."""
    return _surface_stage(_fiber_stage(sw.cover_f), sw.cover_d)


def _fiber_stage(cover_f: CoverData) -> tuple:
    """What invariants needs of the fiber side F alone, for any D: F, its
    genus, checked to be at least 2, its nonzero eigenspaces as (character
    index, dimension) pairs, and the shared SingularClass table of
    _singular_classes. The classifier builds one per pencil pair, so equal
    singular classes of the pair's surfaces are one object."""
    g_f = _checked_genus(cover_f)
    return cover_f, g_f, [(chi, df) for chi, df in enumerate(cover_f.dims) if df], {}


def _surface_stage(fiber: tuple, cover_d: CoverData) -> InvariantReport:
    """Invariants of (F x D)/G from F's fiber stage and the cover D of the
    same group, with every check of invariants."""
    cover_f, g_f, eigen_f, shared = fiber
    grp = cover_f.group
    order = grp.order
    g_d = genus(cover_d)
    # Sections of the canonical sheaf, counted through matching eigenspaces.
    support = _pairing_dims(eigen_f, grp.neg_index, cover_d.dims)
    p_g = sum([df * dd for _, df, dd in support])
    q = cover_f.base_genus + cover_d.base_genus
    chi = 1 - q + p_g
    sing = _singular_classes(grp, cover_f.branch_ix, cover_d.branch_ix, shared)
    t_z = sum([s.z_points for s in sing])

    euler_z = (2 - 2 * g_f) * (2 - 2 * g_d)
    if (euler_z - t_z) % order:
        raise InternalConsistencyError(
            f"free locus has Euler number {euler_z - t_z}, not divisible by {order}"
        )
    resolved = [(s.count, *_resolution(s.n, s.q)) for s in sing]
    euler_e = (euler_z - t_z) // order + sum([c * chain for c, chain, _, _ in resolved])

    k2_noether = 12 * chi - euler_e
    # By resolution K^2 = 2(2g_F - 2)(2g_D - 2)/|G| + sum of count * num/den;
    # compared with Noether's value in integers over |G| * lcm(den).
    k2_z = 2 * (2 * g_f - 2) * (2 * g_d - 2)
    lcd = lcm(*[den for _, _, _, den in resolved])
    if (k2_noether * order - k2_z) * lcd != order * sum(
        [c * num * (lcd // den) for c, _, num, den in resolved]
    ):
        k2_exact = Fraction(k2_z, order) + sum(
            (Fraction(c * num, den) for c, _, num, den in resolved), Fraction(0)
        )
        raise InternalConsistencyError(
            f"canonical degree disagrees: {k2_noether} by Noether, {k2_exact} by resolution"
        )
    k2 = k2_noether

    if all([s.n == 2 for s in sing]):
        # Nodes leave the canonical degree untouched and each one adds 1/4 to chi.
        if k2 * order != 2 * (2 * g_f - 2) * (2 * g_d - 2) or t_z % 4:
            raise InternalConsistencyError("nodal shortcut for the canonical degree failed")
        if chi * order != (g_f - 1) * (g_d - 1) + t_z // 4:
            raise InternalConsistencyError("nodal shortcut for chi failed")

    # A canonical pencil with fiber F: one character carries the whole
    # canonical system, with a 1-dimensional eigenspace on F.
    canonical = None
    if p_g >= 2 and len(support) == 1 and support[0][1] == 1:
        canonical = grp.elements()[support[0][0]]

    if canonical is not None and p_g >= 11:
        a = cover_f.base_genus
        b = cover_d.base_genus
        lo, hi = FIBER_GENUS_RANGE
        shape_ok = lo <= g_f <= hi and ((b == 0 and a <= 2) or (b == 1 and a == 0))
        if not shape_ok:
            raise InternalConsistencyError(
                f"canonical pencil with p_g={p_g} violates the shape bounds"
                f" (g_f={g_f}, a={a}, b={b})"
            )

    if k2 > 9 * chi:
        # Bogomolov-Miyaoka-Yau bounds K^2 by 9*chi on the minimal model and
        # blowing up only lowers K^2; ruled surfaces (p_g = 0) can exceed it.
        message = f"canonical degree {k2} exceeds 9*chi={9 * chi}"
        if p_g >= 1:
            raise InternalConsistencyError(f"{message} with p_g={p_g}")
        warnings.warn(message, RuntimeWarning, stacklevel=3)  # invariants' caller

    return InvariantReport(p_g, q, chi, euler_e, k2, t_z, sing, canonical)
