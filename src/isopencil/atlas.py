"""Atlas of faithful abelian actions on curves of small genus."""

from __future__ import annotations

import math
from functools import lru_cache

from .covers import FIBER_GENUS_RANGE, enumerate_covers
from .errors import InvalidInputError, is_int
from .groups import Element, FiniteAbelianGroup, image, make_group
from .parallel import parallel_map
from .record import Record
from .reference_tables import atlas_reference

__all__ = [
    "ATLAS_TABLE_FOR_GENUS",
    "AtlasRow",
    "abelian_groups_up_to",
    "atlas_table",
    "canonical_profile",
    "check_genera",
    "check_genus",
    "enumerate_actions",
    "reference_keys",
    "row_key",
]

ATLAS_TABLE_FOR_GENUS = {2: "tabelladue", 3: "tabellauno"}

Profile = tuple[tuple[Element, int], ...]


class AtlasRow(Record):
    """One action class: its canonical profile and a witness cover.

    in_reference is None until atlas_table flags the row against the published table.
    """

    __slots__ = ("genus", "quotient_genus", "group", "profile", "witness", "in_reference")
    _defaults = {"in_reference": None}


def abelian_groups_up_to(bound: int) -> list[FiniteAbelianGroup]:
    """One representative per isomorphism class of order 2..bound.

    Representatives use invariant factors d_1 | d_2 | ... with every d_i >= 2,
    and each such chain with product <= bound is one class.
    """
    if not is_int(bound) or bound < 1:
        raise InvalidInputError(f"order bound must be an integer >= 1, got {bound!r}")

    def chains(prev: int, budget: int):
        # Every next factor is a multiple of prev and at most budget.
        for d in range(max(prev, 2), budget + 1, prev):
            yield (d,)
            for rest in chains(d, budget // d):
                yield (d,) + rest

    return [make_group(f) for f in sorted(chains(1, bound), key=lambda f: (math.prod(f), f))]


def canonical_profile(group: FiniteAbelianGroup, profile) -> Profile:
    """Smallest relabeling of a character-dimension table over group symmetry;
    the table may list each character once."""
    if isinstance(profile, dict):
        profile = profile.items()
    index = group.index
    seen = set()
    pairs = []
    for chi, dim in profile:
        if not is_int(dim) or dim < 0:
            raise InvalidInputError(f"eigenspace dimension must be an integer >= 0, got {dim!r}")
        chi = group.validate(chi)
        i = index[chi]
        if i in seen:
            raise InvalidInputError(f"profile lists character {list(chi)} more than once")
        seen.add(i)
        if dim:
            pairs.append((i, dim))
    return _canonical_index_profile(group, pairs)


def _canonical_index_profile(group: FiniteAbelianGroup, pairs) -> Profile:
    """canonical_profile of (character index, nonzero dimension) pairs, unchecked."""
    # Index order is element order, so the minimum is taken over indices.
    low = min(image(alpha.char_perm, pairs) for alpha in group.automorphisms())
    els = group.elements()
    return tuple((els[i], dim) for i, dim in low)


@lru_cache(maxsize=None)
def _actions_cell(genus: int, quotient_genus: int, factors: tuple[int, ...]) -> tuple[AtlasRow, ...]:
    group = make_group(factors)
    rows: dict[Profile, AtlasRow] = {}
    for cover in enumerate_covers(group, quotient_genus, genus=genus, up_to_aut=True):
        prof = _canonical_index_profile(group, [(i, dim) for i, dim in enumerate(cover.dims) if dim])
        if prof not in rows:
            rows[prof] = AtlasRow(genus, quotient_genus, group, prof, cover)
    return tuple(rows[key] for key in sorted(rows))


def groups_acting_on(genus: int) -> list[FiniteAbelianGroup]:
    """Every abelian group that can act faithfully on a curve of this genus >= 2.

    Such a group has order at most 4 * genus + 4 (Maclachlan, 1965).
    """
    return abelian_groups_up_to(4 * genus + 4)


def check_genus(genus: int, name: str = "curve genus") -> None:
    """Raise InvalidInputError unless genus is an integer in FIBER_GENUS_RANGE."""
    lo, hi = FIBER_GENUS_RANGE
    if not is_int(genus) or not lo <= genus <= hi:
        raise InvalidInputError(f"{name} must be an integer in {lo}..{hi}, got {genus!r}")


def check_genera(genus: int, quotient_genus: int) -> None:
    """Raise InvalidInputError unless genus is in FIBER_GENUS_RANGE and quotient_genus in 0..genus."""
    check_genus(genus)
    if not is_int(quotient_genus) or not 0 <= quotient_genus <= genus:
        raise InvalidInputError(
            f"quotient genus must be an integer in 0..{genus}, got {quotient_genus!r}"
        )


def enumerate_actions(genus: int, quotient_genus: int) -> list[AtlasRow]:
    """All actions with the given curve genus and quotient genus, one row per class.

    Two actions land in the same row when a group symmetry carries one cover to
    the other; the row keeps the canonical eigenspace profile and one witness.
    """
    check_genera(genus, quotient_genus)
    cells = [(genus, quotient_genus, g.factors) for g in groups_acting_on(genus)]
    merged = parallel_map(lambda cell: _actions_cell(*cell), cells)
    rows = [row for cell in merged for row in cell]
    rows.sort(key=lambda r: (r.group.order, r.group.factors, r.profile))
    return rows


def row_key(row: AtlasRow) -> tuple:
    """(quotient genus, factors, canonical profile): the key that matches an
    AtlasRow with a row of a published action table."""
    return (row.quotient_genus, row.group.factors, row.profile)


@lru_cache(maxsize=None)
def reference_keys(table_id: str) -> tuple[tuple, ...]:
    """The row_key of every row of one action table, in table order."""
    _, reference = atlas_reference(table_id)
    return tuple(
        (ref.quotient_genus, ref.factors, canonical_profile(make_group(ref.factors), ref.profile))
        for ref in reference
    )


def atlas_table(genus: int) -> list[AtlasRow]:
    """Full atlas for one curve genus, rows flagged against the published table."""
    if genus not in ATLAS_TABLE_FOR_GENUS:
        supported = ", ".join(str(g) for g in sorted(ATLAS_TABLE_FOR_GENUS))
        raise InvalidInputError(f"no atlas table for genus {genus!r}; supported: {supported}")
    listed = set(reference_keys(ATLAS_TABLE_FOR_GENUS[genus]))
    rows = []
    for a in range(genus, -1, -1):
        for row in enumerate_actions(genus, a):
            rows.append(
                AtlasRow(
                    row.genus,
                    row.quotient_genus,
                    row.group,
                    row.profile,
                    row.witness,
                    in_reference=row_key(row) in listed,
                )
            )
    return rows
