"""Property tests of the input parsers: malformed input may only raise InvalidInputError."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle  # noqa: E402

from isopencil.cli import _parse_factors, _parse_pg  # noqa: E402
from isopencil.covers import genus, make_cover  # noqa: E402
from isopencil.errors import InvalidInputError  # noqa: E402
from isopencil.groups import make_group  # noqa: E402
from isopencil.sandwich import make_sandwich  # noqa: E402
from isopencil.specfile import parse_sandwich, sandwich_record  # noqa: E402

# Deterministic and writing no example database, so every run checks the same inputs.
FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# Any JSON value, small enough that a group built from it stays cheap (order <= 9^3).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
small = st.integers(-2, 9)
elements = st.lists(small, max_size=3)
branch_entries = st.one_of(
    st.fixed_dictionaries({"elem": elements | json_values, "mult": small | json_values}),
    json_values,
)
cover_records = st.one_of(
    st.fixed_dictionaries(
        {
            "base_genus": st.integers(-1, 2) | json_values,
            "branch": st.lists(branch_entries, max_size=6) | json_values,
            "twist": st.lists(elements, max_size=4) | json_values,
        }
    ),
    json_values,
)
spec_shaped = st.fixed_dictionaries(
    {
        "group": st.lists(st.integers(-1, 9), max_size=3) | json_values,
        "coverF": cover_records,
        "coverD": cover_records,
    },
    optional={"extra": json_values},
)


@FUZZ
@given(st.one_of(spec_shaped, json_values))
def test_parse_sandwich_raises_only_invalid_input(data):
    try:
        sw = parse_sandwich(data)
    except InvalidInputError:
        return
    assert parse_sandwich(sandwich_record(sw)) == sw


@FUZZ
@given(
    st.one_of(
        st.text(max_size=12),
        st.from_regex(r"\s?-?[0-9_]{0,4}\s?\.\.\s?-?[0-9]{0,4}\s?", fullmatch=True),
    )
)
def test_parse_pg_raises_only_invalid_input(text):
    try:
        lo, hi = _parse_pg(text)
    except InvalidInputError:
        return
    assert isinstance(lo, int) and isinstance(hi, int)


@FUZZ
@given(
    st.one_of(
        st.text(max_size=12),
        st.from_regex(r"\s?-?[0-9]{0,3}(\s?,\s?-?[0-9]{0,3}){0,3}\s?", fullmatch=True),
    )
)
def test_parse_factors_raises_only_invalid_input(text):
    try:
        factors = _parse_factors(text)
    except InvalidInputError:
        return
    assert factors and all(isinstance(n, int) and n >= 2 for n in factors)


GROUPS = [make_group(f) for f in [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]]


# What make_cover may be handed as an element, a multiplicity or a whole
# argument: indices in and out of range, bools, floats, None, text, and
# nested lists and tuples of them.
cover_items = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
)
branch_args = (
    st.lists(
        st.tuples(cover_items, cover_items)  # (element, multiplicity)
        | st.tuples(cover_items, cover_items, cover_items)  # one item too many
        | cover_items,
        max_size=5,
    )
    | st.dictionaries(st.none() | st.booleans() | st.integers(-2, 10) | st.tuples(st.integers(-1, 4)), cover_items, max_size=3)
    | cover_items
)


@FUZZ
@given(st.sampled_from(GROUPS), st.integers(0, 1) | cover_items, branch_args, st.lists(cover_items, max_size=3) | cover_items)
def test_make_cover_raises_only_invalid_input(group, base_genus, branch, twist):
    try:
        cover = make_cover(group, base_genus, branch, twist)
    except InvalidInputError:
        return
    assert make_cover(group, base_genus, cover.branch, cover.twist) == cover


@st.composite
def valid_covers(draw, group):
    """A connected cover of genus >= 2 over the group, by random closed branch data."""
    base_genus = draw(st.integers(0, 1))
    nonzero = group.elements()[1:]
    picks = draw(st.lists(st.sampled_from(nonzero), min_size=3, max_size=7))
    total = oracle.zero(group)
    for e in picks:
        total = oracle.add(group, total, e)
    if total != oracle.zero(group):
        picks.append(oracle.neg(group, total))
    twist = tuple(draw(st.sampled_from(group.elements())) for _ in range(2 * base_genus))
    try:
        cover = make_cover(group, base_genus, [(e, 1) for e in picks], twist)
    except InvalidInputError:
        assume(False)
    assume(genus(cover) >= 2)
    return cover


@st.composite
def valid_sandwiches(draw):
    group = draw(st.sampled_from(GROUPS))
    return make_sandwich(draw(valid_covers(group)), draw(valid_covers(group)))


@st.composite
def mutated_specs(draw):
    """A valid spec with one field replaced, so parsing gets past the outer checks."""
    record = sandwich_record(draw(valid_sandwiches()))
    side = record[draw(st.sampled_from(["coverF", "coverD"]))]
    where = draw(st.sampled_from(["group", "base_genus", "elem", "mult", "twist", "entry"]))
    value = draw(small | elements | json_values)
    if where == "group":
        record["group"] = value
    elif where == "base_genus":
        side["base_genus"] = value
    elif where == "twist":
        side["twist"] = value if not side["twist"] else [value] + side["twist"][1:]
    elif where == "entry":
        side["branch"].append(value)
    else:
        side["branch"][0][where] = value
    return record


@FUZZ
@given(mutated_specs())
def test_mutated_valid_specs_raise_only_invalid_input(data):
    try:
        sw = parse_sandwich(data)
    except InvalidInputError:
        return
    assert parse_sandwich(sandwich_record(sw)) == sw


@FUZZ
@given(valid_sandwiches())
def test_valid_specs_round_trip_through_the_record(sw):
    record = sandwich_record(sw)
    again = parse_sandwich(json.loads(json.dumps(record)))
    assert again == sw
    assert sandwich_record(again) == record
