"""Diagonal quotient surfaces glued from two covers with the same group."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .covers import CoverData, eigen_profile, genus
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    NotApplicableError,
)
from .groups import Element, FiniteAbelianGroup
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


@dataclass(frozen=True)
class Sandwich:
    """Two covers of the same group, multiplied and divided diagonally."""

    cover_f: CoverData
    cover_d: CoverData

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.cover_f.group


@dataclass(frozen=True)
class SingularClass:
    """Aggregated cyclic quotient points of one type on the quotient surface."""

    n: int
    q: int
    count: int
    z_points: int


@dataclass(frozen=True)
class InvariantReport:
    """Numerical invariants of the minimal resolution of the quotient."""

    p_g: int
    q: int
    chi: int
    euler_e: int
    K2: int
    t_z: int
    sing: tuple[SingularClass, ...]
    canonical_character: Element | None


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


def _pairing_dims(sw: Sandwich) -> list[tuple[Element, int, int]]:
    grp = sw.group
    pf = eigen_profile(sw.cover_f)
    pd = eigen_profile(sw.cover_d)
    out = []
    for chi in grp.elements():
        df = pf.get(chi, 0)
        dd = pd.get(grp.neg(chi), 0)
        if df and dd:
            out.append((chi, df, dd))
    return out


def geometric_genus(sw: Sandwich) -> int:
    """Sections of the canonical sheaf, counted through matching eigenspaces."""
    return sum(df * dd for _, df, dd in _pairing_dims(sw))


def irregularity(sw: Sandwich) -> int:
    return sw.cover_f.base_genus + sw.cover_d.base_genus


def canonical_character(sw: Sandwich) -> Element | None:
    """Character of a canonical pencil with fiber the first curve, if any."""
    support = _pairing_dims(sw)
    if sum(df * dd for _, df, dd in support) < 2:
        raise NotApplicableError("the canonical system needs at least two sections")
    if len(support) == 1 and support[0][1] == 1:
        return support[0][0]
    return None


def singular_locus(sw: Sandwich) -> tuple[SingularClass, ...]:
    """Cyclic quotient points grouped by type, with their product-side counts."""
    grp = sw.group
    order = grp.order
    classes: dict[tuple[int, int], list[int]] = {}
    for h1, d1 in sw.cover_f.branch:
        o1 = grp.element_order(h1)
        c1 = grp.cyclic(h1)
        for h2, d2 in sw.cover_d.branch:
            o2 = grp.element_order(h2)
            shared = c1 & grp.cyclic(h2)
            n = len(shared)
            if n == 1:
                continue
            # Generator acting with rotation 1/n on the first local coordinate.
            c = grp.scale(o1 // n, h1)
            k2 = next(
                k for k in range(1, o2) if grp.scale(k, h2) == c
            )
            if k2 * n % o2:
                raise InternalConsistencyError(
                    f"stabilizer generator {c} is not an n-th power along {h2}"
                )
            q = k2 * n // o2
            if not (1 <= q < n and gcd(q, n) == 1):
                raise InternalConsistencyError(
                    f"rotation exponent {q} invalid for a point of order {n}"
                )
            z = d1 * d2 * (order // o1) * (order // o2)
            if z * n % order:
                raise InternalConsistencyError(
                    f"{z} stabilized points do not split into orbits of size {order // n}"
                )
            key = canonical_type(n, q)
            bucket = classes.setdefault(key, [0, 0])
            bucket[0] += z * n // order
            bucket[1] += z
    return tuple(
        SingularClass(n, q, count, z)
        for (n, q), (count, z) in sorted(classes.items())
    )


def invariants(sw: Sandwich) -> InvariantReport:
    """Invariants of the resolved quotient, checked along two routes."""
    grp = sw.group
    order = grp.order
    g_f = genus(sw.cover_f)
    g_d = genus(sw.cover_d)
    p_g = geometric_genus(sw)
    q = irregularity(sw)
    chi = 1 - q + p_g
    sing = singular_locus(sw)
    t_z = sum(s.z_points for s in sing)

    euler_z = (2 - 2 * g_f) * (2 - 2 * g_d)
    if (euler_z - t_z) % order:
        raise InternalConsistencyError(
            f"free locus has Euler number {euler_z - t_z}, not divisible by {order}"
        )
    euler_e = (euler_z - t_z) // order + sum(
        s.count * (len(hj_expansion(s.n, s.q)) + 1) for s in sing
    )

    k2_noether = 12 * chi - euler_e
    k2_exact = Fraction(2 * (2 * g_f - 2) * (2 * g_d - 2), order) + sum(
        (s.count * k2_correction(s.n, s.q) for s in sing), Fraction(0)
    )
    if k2_exact.denominator != 1 or k2_exact != k2_noether:
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

    canonical = None if p_g < 2 else canonical_character(sw)

    if canonical is not None and p_g >= 11:
        a = sw.cover_f.base_genus
        b = sw.cover_d.base_genus
        shape_ok = 2 <= g_f <= 5 and ((b == 0 and a <= 2) or (b == 1 and a == 0))
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
