"""Published classification tables, embedded as package data."""

from __future__ import annotations

import json
import os

from .errors import InvalidInputError
from .linear import LinearForm
from .record import Record

__all__ = [
    "AtlasReferenceRow",
    "FamilyReferenceRow",
    "atlas_reference",
    "atlas_table_ids",
    "family_reference",
    "family_table_ids",
    "table_ids",
]

# Read next to this module rather than through importlib.resources, which
# imports inspect, pathlib and tempfile: 20-45 ms of start-up on Python 3.12.
_TABLES_JSON = os.path.join(os.path.dirname(__file__), "data", "tables.json")

_DATA: dict | None = None


def _data() -> dict:
    global _DATA
    if _DATA is None:
        with open(_TABLES_JSON, encoding="utf-8") as fh:
            _DATA = json.load(fh)
    return _DATA


class AtlasReferenceRow(Record):
    """One printed curve action; profile pairs each character with its eigenspace dimension."""

    __slots__ = ("quotient_genus", "factors", "profile", "source")


class FamilyReferenceRow(Record):
    """One printed surface family; forms maps column names to LinearForm."""

    __slots__ = (
        "table",
        "index",
        "factors",
        "quotient_genus_a",
        "quotient_genus_b",
        "genus_f",
        "forms",
        "source",
    )


def atlas_table_ids() -> list[str]:
    return sorted(_data()["atlas"])


def family_table_ids() -> list[str]:
    return sorted(_data()["families"])


def table_ids() -> list[str]:
    return atlas_table_ids() + family_table_ids()


def atlas_reference(table_id: str) -> tuple[int, list[AtlasReferenceRow]]:
    """The curve-action table with this id: (fiber genus, rows)."""
    try:
        raw = _data()["atlas"][table_id]
    except KeyError:
        known = ", ".join(atlas_table_ids())
        raise InvalidInputError(f"unknown atlas table {table_id!r}; known ids: {known}") from None
    rows = [
        AtlasReferenceRow(
            quotient_genus=entry["a"],
            factors=tuple(entry["group"]),
            profile=tuple((tuple(chi), dim) for chi, dim in entry["profile"]),
            source=entry["source"],
        )
        for entry in raw["rows"]
    ]
    return raw["genus"], rows


def family_reference(table_id: str) -> list[FamilyReferenceRow]:
    """The surface-family table with this id, columns as linear forms in m."""
    try:
        raw = _data()["families"][table_id]
    except KeyError:
        known = ", ".join(family_table_ids())
        raise InvalidInputError(f"unknown family table {table_id!r}; known ids: {known}") from None
    rows = []
    for index, entry in enumerate(raw["rows"], start=1):
        forms = {
            "p_g": LinearForm(*entry["p_g"]),
            "g_D": LinearForm(*entry["g_D"]),
            "K2": LinearForm(*entry["K2"]),
        }
        if "t" in entry:
            forms["t_z"] = LinearForm(*entry["t"])
        rows.append(
            FamilyReferenceRow(
                table=table_id,
                index=index,
                factors=tuple(entry["group"]),
                quotient_genus_a=entry["a"],
                quotient_genus_b=entry["b"],
                genus_f=entry["g_F"],
                forms=forms,
                source=entry["source"],
            )
        )
    return rows
