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
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    NotApplicableError,
)
from .groups import Element, FiniteAbelianGroup
from .record import Record, _set
from .singularities import canonical_type, hj_expansion, k2_correction

__all__ = [
    "Sandwich",
    "SingularClass",
    "InvariantReport",
    "make_sandwich",
    "geometric_genus",
    "irregularity",
    "canonical_character",
    "singular_locus",
    "invariants",
]


class Sandwich(Record):
    """Two covers of the same group, multiplied and divided diagonally."""

    __slots__ = ("cover_f", "cover_d")

    def __init__(self, cover_f: CoverData, cover_d: CoverData):
        _set(self, "cover_f", cover_f)
        _set(self, "cover_d", cover_d)

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.cover_f.group


class SingularClass(Record):
    """Aggregated cyclic quotient points of one type on the quotient surface."""

    __slots__ = ("n", "q", "count", "z_points")

    def __init__(self, n: int, q: int, count: int, z_points: int):
        _set(self, "n", n)
        _set(self, "q", q)
        _set(self, "count", count)
        _set(self, "z_points", z_points)


class InvariantReport(Record):
    """Numerical invariants of the minimal resolution of the quotient."""

    __slots__ = ("p_g", "q", "chi", "euler_e", "K2", "t_z", "sing", "canonical_character")

    def __init__(
        self,
        p_g: int,
        q: int,
        chi: int,
        euler_e: int,
        K2: int,
        t_z: int,
        sing: tuple[SingularClass, ...],
        canonical_character: Element | None,
    ):
        _set(self, "p_g", p_g)
        _set(self, "q", q)
        _set(self, "chi", chi)
        _set(self, "euler_e", euler_e)
        _set(self, "K2", K2)
        _set(self, "t_z", t_z)
        _set(self, "sing", sing)
        _set(self, "canonical_character", canonical_character)


def make_sandwich(cover_f: CoverData, cover_d: CoverData) -> Sandwich:
    """Validate and pair two covers; the first one is the pencil fiber side."""
    if cover_f.group.factors != cover_d.group.factors:
        raise InvalidInputError(
            f"covers use different groups {cover_f.group.factors} and {cover_d.group.factors}"
        )
    for cover in (cover_f, cover_d):
        g = genus(cover)
        if g < 2:
            raise InvalidInputError(f"both curves need genus >= 2, got {g}")
    return Sandwich(cover_f, cover_d)


def _pairing_dims(sw: Sandwich) -> list[tuple[int, int, int]]:
    """(character index chi, dim on F, dim of -chi on D) for every chi where
    both are nonzero."""
    neg = sw.group.neg_index
    dims_f = sw.cover_f._dims
    dims_d = sw.cover_d._dims
    return [(i, df, dims_d[neg[i]]) for i, df in enumerate(dims_f) if df and dims_d[neg[i]]]


def geometric_genus(sw: Sandwich) -> int:
    """Sections of the canonical sheaf, counted through matching eigenspaces."""
    return _sections(_pairing_dims(sw))


def _sections(support) -> int:
    return sum(df * dd for _, df, dd in support)


def irregularity(sw: Sandwich) -> int:
    return sw.cover_f.base_genus + sw.cover_d.base_genus


def canonical_character(sw: Sandwich) -> Element | None:
    """Character of a canonical pencil with fiber the first curve, if any."""
    return _pencil_character(sw.group, _pairing_dims(sw))


def _pencil_character(grp: FiniteAbelianGroup, support) -> Element | None:
    """The one character carrying the whole canonical system, as a tuple, if any."""
    if _sections(support) < 2:
        raise NotApplicableError("the canonical system needs at least two sections")
    if len(support) == 1 and support[0][1] == 1:
        return grp.elements()[support[0][0]]
    return None


# Per factors tuple: (h1, h2) -> _point_type(group, h1, h2), filled on first
# use; h1 and h2 are element indices.
_POINT_TYPES: dict[tuple[int, ...], dict[tuple[int, int], tuple | None]] = {}
_UNSEEN = object()


def _point_type(grp: FiniteAbelianGroup, h1: int, h2: int):
    """Type of the points of F x D that the local monodromies h1, h2 fix,
    both element indices.

    Returns (n, canonical (n, q), (|G|/o1)*(|G|/o2)), or None when the shared
    stabilizer is trivial. It depends only on the group and the pair, so each
    is computed once per (factors, h1, h2).
    """
    powers1 = grp._span([h1])  # indices of 0, h1, 2 h1, ...
    powers2 = grp._span([h2])
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
    grp = sw.group
    order = grp.order
    types = _POINT_TYPES.get(grp.factors)
    if types is None:
        types = _POINT_TYPES[grp.factors] = {}
    classes: dict[tuple[int, int], list[int]] = {}
    for h1, d1 in sw.cover_f.branch_ix:
        for h2, d2 in sw.cover_d.branch_ix:
            point = types.get((h1, h2), _UNSEEN)
            if point is _UNSEEN:
                point = types[h1, h2] = _point_type(grp, h1, h2)
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
    return tuple(
        SingularClass(n, q, count, z)
        for (n, q), (count, z) in sorted(classes.items())
    )


@lru_cache(maxsize=None)
def _resolution(n: int, q: int) -> tuple[int, int, int]:
    """Euler number of the exceptional chain over one 1/n(1,q) point, and the
    numerator and denominator of its K^2 correction."""
    k2 = k2_correction(n, q)
    return len(hj_expansion(n, q)) + 1, k2.numerator, k2.denominator


def invariants(sw: Sandwich) -> InvariantReport:
    """Invariants of the resolved quotient, checked along two routes."""
    grp = sw.group
    order = grp.order
    g_f = genus(sw.cover_f)
    g_d = genus(sw.cover_d)
    support = _pairing_dims(sw)
    p_g = _sections(support)
    q = irregularity(sw)
    chi = 1 - q + p_g
    sing = singular_locus(sw)
    t_z = sum(s.z_points for s in sing)

    euler_z = (2 - 2 * g_f) * (2 - 2 * g_d)
    if (euler_z - t_z) % order:
        raise InternalConsistencyError(
            f"free locus has Euler number {euler_z - t_z}, not divisible by {order}"
        )
    resolved = [(s.count, *_resolution(s.n, s.q)) for s in sing]
    euler_e = (euler_z - t_z) // order + sum(c * chain for c, chain, _, _ in resolved)

    k2_noether = 12 * chi - euler_e
    # By resolution K^2 = 2(2g_F - 2)(2g_D - 2)/|G| + sum of count * num/den;
    # compared with Noether's value in integers over |G| * lcm(den).
    k2_z = 2 * (2 * g_f - 2) * (2 * g_d - 2)
    lcd = lcm(*(den for _, _, _, den in resolved))
    if (k2_noether * order - k2_z) * lcd != order * sum(
        c * num * (lcd // den) for c, _, num, den in resolved
    ):
        k2_exact = Fraction(k2_z, order) + sum(
            (Fraction(c * num, den) for c, _, num, den in resolved), Fraction(0)
        )
        raise InternalConsistencyError(
            f"canonical degree disagrees: {k2_noether} by Noether, {k2_exact} by resolution"
        )
    k2 = k2_noether

    if all(s.n == 2 for s in sing):
        # Nodes leave the canonical degree untouched and each one adds 1/4 to chi.
        if k2 * order != 2 * (2 * g_f - 2) * (2 * g_d - 2) or t_z % 4:
            raise InternalConsistencyError("nodal shortcut for the canonical degree failed")
        if chi * order != (g_f - 1) * (g_d - 1) + t_z // 4:
            raise InternalConsistencyError("nodal shortcut for chi failed")

    canonical = None if p_g < 2 else _pencil_character(grp, support)

    if canonical is not None and p_g >= 11:
        a = sw.cover_f.base_genus
        b = sw.cover_d.base_genus
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
        warnings.warn(message, RuntimeWarning, stacklevel=2)

    return InvariantReport(p_g, q, chi, euler_e, k2, t_z, sing, canonical)
