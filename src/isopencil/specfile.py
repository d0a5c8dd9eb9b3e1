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


_PLAIN_INT = frozenset([int])


def _int_list(value, path: str, *parts) -> list[int]:
    """value when it is a list of integers; path.format(*parts) names it in the error."""
    if not isinstance(value, list) or not (
        _PLAIN_INT.issuperset(map(type, value))  # the common case, checked in C
        or all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise InvalidInputError(f"{path.format(*parts)} must be a list of integers, got {value!r}")
    return value


def _element(index: dict, els: list, value: list) -> tuple:
    """The checked coordinates as the group's own element tuple when they name one,
    which make_cover takes without checking the coordinates again."""
    t = tuple(value)
    i = index.get(t)
    return t if i is None else els[i]


def parse_cover(group: FiniteAbelianGroup, record, where: str) -> CoverData:
    """Rebuild one cover from its JSON record, validating every field."""
    if not isinstance(record, dict):
        raise InvalidInputError(f"{where} must be an object, got {type(record).__name__}")
    try:
        base_genus, raw_branch, raw_twist = record["base_genus"], record["branch"], record["twist"]
    except KeyError as err:
        raise InvalidInputError(f"{where} is missing the {err.args[0]!r} field") from None
    extra = set(record) - {"base_genus", "branch", "twist"}
    if extra:
        raise InvalidInputError(f"{where} has unknown fields: {', '.join(sorted(extra))}")
    if not isinstance(raw_branch, list):
        raise InvalidInputError(f"{where}.branch must be a list, got {raw_branch!r}")
    index, els = group.index, group.elements()
    branch = {}
    for i, entry in enumerate(raw_branch):
        if not isinstance(entry, dict) or entry.keys() != {"elem", "mult"}:
            raise InvalidInputError(f"{where}.branch[{i}] must be an object with elem and mult")
        elem = _element(index, els, _int_list(entry["elem"], "{}.branch[{}].elem", where, i))
        if elem in branch:
            raise InvalidInputError(f"{where}.branch[{i}] repeats element {list(elem)}")
        branch[elem] = entry["mult"]
    if not isinstance(raw_twist, list):
        raise InvalidInputError(f"{where}.twist must be a list, got {raw_twist!r}")
    twist = []
    for i, t in enumerate(raw_twist):
        twist.append(_element(index, els, _int_list(t, "{}.twist[{}]", where, i)))
    try:
        return make_cover(group, base_genus, branch, twist)
    except InvalidInputError as err:
        raise type(err)(f"{where}: {err}") from None


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
