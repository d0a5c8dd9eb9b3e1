"""Diagonal quotient surfaces glued from two covers with the same group.

Characters and branch elements are read as element indices throughout; only
the pencil character becomes an element tuple, for the report.

For a fixed F and support of D (its branch element indices) the singular
locus is linear in D's multiplicities: _support_plan sums F's point types once
per support, and _locus evaluates that plan at D's multiplicities.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

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


@lru_cache(maxsize=None)
def _point_type(grp: FiniteAbelianGroup, h1: int, h2: int):
    """Type of the points of F x D that the local monodromies h1, h2 fix,
    both element indices.

    Returns (n, canonical (n, q), (|G|/o1)*(|G|/o2)), or None when the shared
    stabilizer is trivial; checks that these points split into orbits, as
    |G| n / (o1 o2) = |G| / |<h1, h2>|. Computed once per (group, h1, h2);
    groups are interned, so the cache key hashes by identity.
    """
    order = grp.order
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
    unit = (order // o1) * (order // o2)
    if unit * n % order:
        raise InternalConsistencyError(f"{unit} fixed points do not split into orbits of size {order // n}")
    return n, canonical_type(n, q), unit


def _support_plan(grp: FiniteAbelianGroup, branch_f: tuple, support: tuple) -> tuple:
    """The singular locus of (F x D)/G for every D with these branch element
    indices, linear in D's multiplicities: (classes, *_resolution), where
    classes holds (n, q, points) per class, sorted, with the product-side
    points each support element adds per unit. Their count is points n/|G|,
    an integer for each pair of branch points (see _point_type)."""
    size = len(support)
    columns: dict[tuple[int, int], tuple] = {}  # (n, q) -> (n, q, points)
    for j, h2 in enumerate(support):
        for h1, d1 in branch_f:
            point = _point_type(grp, h1, h2)
            if point is not None:
                key = point[1]
                column = columns.get(key) or columns.setdefault(key, (*key, [0] * size))
                column[2][j] += d1 * point[2]
    keys = tuple(sorted(columns))
    return (tuple(map(columns.get, keys)), *_resolution(keys))


def _locus(classes: tuple, mults: tuple, order: int, shared: dict) -> tuple:
    """(SingularClasses, their counts, total product-side points) of a support
    plan's classes at D's multiplicities mults, for a group of this order.
    shared maps (n, q, count, z) to its SingularClass once made, so equal
    classes are one object."""
    sing, counts, t_z = [], [], 0
    for n, q, per_point in classes:
        z = sum(map(mul, per_point, mults))
        key = (n, q, z * n // order, z)
        sing.append(shared.get(key) or shared.setdefault(key, SingularClass(*key)))
        counts.append(key[2])
        t_z += z
    return tuple(sing), counts, t_z


def singular_locus(sw: Sandwich) -> tuple[SingularClass, ...]:
    """Cyclic quotient points grouped by type, with their product-side counts."""
    branch_d = sw.cover_d.branch_ix
    support, mults = zip(*branch_d) if branch_d else ((), ())
    classes = _support_plan(sw.group, sw.cover_f.branch_ix, support)[0]
    return _locus(classes, mults, sw.group.order, {})[0]


@lru_cache(maxsize=None)
def _resolution(keys: tuple) -> tuple:
    """(chains, weights, lcd, nodal) of classes with these (n, q) keys: the
    Euler number of each exceptional chain, each K^2 correction over lcd,
    their common denominator, and whether every point is a node."""
    k2s = [k2_correction(n, q) for n, q in keys]
    lcd = lcm(*[k2.denominator for k2 in k2s])
    chains = tuple([len(hj_expansion(n, q)) + 1 for n, q in keys])
    weights = tuple([k2.numerator * (lcd // k2.denominator) for k2 in k2s])
    return chains, weights, lcd, all([n == 2 for n, _ in keys])


def invariants(sw: Sandwich) -> InvariantReport:
    """Invariants of the resolved quotient, checked along two routes: the
    fiber stage of sw.cover_f, then the surface stage of sw.cover_d."""
    return _surface_stage(_fiber_stage(sw.cover_f), sw.cover_d)


def _fiber_stage(cover_f: CoverData) -> tuple:
    """What invariants needs of the fiber side F alone, for any D: F, its
    genus, checked to be at least 2, its nonzero (character index, dimension)
    pairs, its support plans and its shared SingularClass table. The classifier
    builds one per pencil pair, so each plan is built once per (pair, support)."""
    g_f = _checked_genus(cover_f)
    return cover_f, g_f, [(chi, df) for chi, df in enumerate(cover_f.dims) if df], {}, {}


def _surface_stage(fiber: tuple, cover_d: CoverData) -> InvariantReport:
    """Invariants of (F x D)/G from F's fiber stage and the cover D of the
    same group, with every check of invariants."""
    cover_f, g_f, eigen_f, plans, shared = fiber
    grp = cover_f.group
    order = grp.order
    g_d = genus(cover_d)
    # Sections of the canonical sheaf, counted through matching eigenspaces.
    pairing = _pairing_dims(eigen_f, grp.neg_index, cover_d.dims)
    p_g = sum([df * dd for _, df, dd in pairing])
    q = cover_f.base_genus + cover_d.base_genus
    chi = 1 - q + p_g
    support, mults = zip(*cover_d.branch_ix) if cover_d.branch_ix else ((), ())
    plan = plans.get(support) or plans.setdefault(support, _support_plan(grp, cover_f.branch_ix, support))
    classes, chains, weights, lcd, nodal = plan
    sing, counts, t_z = _locus(classes, mults, order, shared)

    euler_z = (2 - 2 * g_f) * (2 - 2 * g_d)
    if (euler_z - t_z) % order:
        raise InternalConsistencyError(
            f"free locus has Euler number {euler_z - t_z}, not divisible by {order}"
        )
    euler_e = (euler_z - t_z) // order + sum(map(mul, counts, chains))

    k2_noether = 12 * chi - euler_e
    # By resolution K^2 = 2(2g_F - 2)(2g_D - 2)/|G| + sum of count * weight/lcd;
    # compared with Noether's value in integers over |G| * lcd.
    k2_z = 2 * (2 * g_f - 2) * (2 * g_d - 2)
    k2_sing = sum(map(mul, counts, weights))
    if (k2_noether * order - k2_z) * lcd != order * k2_sing:
        k2_exact = Fraction(k2_z, order) + Fraction(k2_sing, lcd)
        message = f"canonical degree disagrees: {k2_noether} by Noether, {k2_exact} by resolution"
        raise InternalConsistencyError(message)
    k2 = k2_noether

    if nodal:
        # Nodes leave the canonical degree untouched and each one adds 1/4 to chi.
        if k2 * order != 2 * (2 * g_f - 2) * (2 * g_d - 2) or t_z % 4:
            raise InternalConsistencyError("nodal shortcut for the canonical degree failed")
        if chi * order != (g_f - 1) * (g_d - 1) + t_z // 4:
            raise InternalConsistencyError("nodal shortcut for chi failed")

    # A canonical pencil with fiber F: one character carries the whole
    # canonical system, with a 1-dimensional eigenspace on F.
    canonical = None
    if p_g >= 2 and len(pairing) == 1 and pairing[0][1] == 1:
        canonical = grp.elements()[pairing[0][0]]

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
