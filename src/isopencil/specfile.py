"""JSON spec files describing a pair of covers over one group."""

from __future__ import annotations

import json

from .covers import CoverData, make_cover
from .errors import InvalidInputError
from .groups import FiniteAbelianGroup, make_group
from .sandwich import Sandwich, make_sandwich

__all__ = [
    "cover_record",
    "parse_cover",
    "sandwich_record",
    "parse_sandwich",
    "load_sandwich",
]


def cover_record(cover: CoverData) -> dict:
    """The JSON shape of one cover: base genus, branch multiset, twist row."""
    return {
        "base_genus": cover.base_genus,
        "branch": [{"elem": list(e), "mult": m} for e, m in cover.branch],
        "twist": [list(e) for e in cover.twist],
    }


def _expect(record: dict, key: str, where: str):
    if key not in record:
        raise InvalidInputError(f"{where} is missing the {key!r} field")
    return record[key]


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise InvalidInputError(f"{where} must be a list of integers, got {value!r}")
    return value


def parse_cover(group: FiniteAbelianGroup, record, where: str) -> CoverData:
    """Rebuild one cover from its JSON record, validating every field."""
    if not isinstance(record, dict):
        raise InvalidInputError(f"{where} must be an object, got {type(record).__name__}")
    base_genus = _expect(record, "base_genus", where)
    raw_branch = _expect(record, "branch", where)
    raw_twist = _expect(record, "twist", where)
    extra = set(record) - {"base_genus", "branch", "twist"}
    if extra:
        raise InvalidInputError(f"{where} has unknown fields: {', '.join(sorted(extra))}")
    if not isinstance(raw_branch, list):
        raise InvalidInputError(f"{where}.branch must be a list, got {raw_branch!r}")
    branch = {}
    for i, entry in enumerate(raw_branch):
        spot = f"{where}.branch[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"elem", "mult"}:
            raise InvalidInputError(f"{spot} must be an object with elem and mult")
        elem = tuple(_int_list(entry["elem"], f"{spot}.elem"))
        if elem in branch:
            raise InvalidInputError(f"{spot} repeats element {list(elem)}")
        branch[elem] = entry["mult"]
    if not isinstance(raw_twist, list):
        raise InvalidInputError(f"{where}.twist must be a list, got {raw_twist!r}")
    twist = tuple(
        tuple(_int_list(e, f"{where}.twist[{i}]")) for i, e in enumerate(raw_twist)
    )
    return make_cover(group, base_genus, branch, twist)


def sandwich_record(sw: Sandwich) -> dict:
    """The JSON shape of a cover pair, group factors spelled once at the top."""
    return {
        "group": list(sw.group.factors),
        "coverF": cover_record(sw.cover_f),
        "coverD": cover_record(sw.cover_d),
    }


def parse_sandwich(data) -> Sandwich:
    """Rebuild a validated cover pair from parsed spec-file JSON."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"spec must be a JSON object, got {type(data).__name__}")
    factors = _int_list(_expect(data, "group", "spec"), "spec.group")
    extra = set(data) - {"group", "coverF", "coverD"}
    if extra:
        raise InvalidInputError(f"spec has unknown fields: {', '.join(sorted(extra))}")
    group = make_group(factors)
    cover_f = parse_cover(group, _expect(data, "coverF", "spec"), "spec.coverF")
    cover_d = parse_cover(group, _expect(data, "coverD", "spec"), "spec.coverD")
    return make_sandwich(cover_f, cover_d)


def load_sandwich(path: str) -> Sandwich:
    """Read and validate a spec file from disk."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as err:
        raise InvalidInputError(f"cannot read spec file {path!r}: {err.strerror}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"spec file {path!r} is not valid JSON: {err}")
    return parse_sandwich(data)
