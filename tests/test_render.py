"""Spec-file schema and the three output formats stay stable and reversible."""

import csv
import io
import json
import re
import time
from fractions import Fraction

import pytest

import oracle
from isopencil import render as render_module
from isopencil.atlas import atlas_table
from isopencil.classifier import classify
from isopencil.compare import compare_atlas_with_reference, compare_with_reference
from isopencil.covers import enumerate_covers, make_cover
from isopencil.errors import InternalConsistencyError, InvalidInputError
from isopencil.groups import make_group
from isopencil.linear import LinearForm
from isopencil.reference_tables import family_reference
from isopencil.render import (
    render_atlas_comparison,
    render_atlas_rows,
    render_covers,
    render_family_comparison,
    render_family_rows,
    render_invariants,
)
from isopencil.sandwich import InvariantReport, SingularClass, invariants, make_sandwich
from isopencil.specfile import (
    cover_record,
    load_sandwich,
    parse_cover,
    parse_sandwich,
    sandwich_record,
)

KLEIN = make_group((2, 2))
F_COVER = make_cover(KLEIN, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3})
D_COVER = make_cover(KLEIN, 1, {(0, 1): 6}, ((1, 0), (0, 1)))


def test_cover_record_round_trip():
    record = cover_record(D_COVER)
    assert record == {
        "base_genus": 1,
        "branch": [{"elem": [0, 1], "mult": 6}],
        "twist": [[1, 0], [0, 1]],
    }
    assert parse_cover(KLEIN, record, "spec.coverD") == D_COVER


def test_sandwich_record_round_trip():
    sw = make_sandwich(F_COVER, D_COVER)
    data = json.loads(json.dumps(sandwich_record(sw)))
    back = parse_sandwich(data)
    assert back.cover_f == F_COVER and back.cover_d == D_COVER


# Each mangled spec with the start of its message, which names the offending path.
BAD_SPECS = [
    (lambda d: d.pop("group"), "spec is missing the 'group' field"),
    (lambda d: d.pop("coverF"), "spec is missing the 'coverF' field"),
    (lambda d: d.update(surprise=1), "spec has unknown fields: surprise"),
    (lambda d: d["coverF"].pop("twist"), "spec.coverF is missing the 'twist' field"),
    (lambda d: d["coverF"].update(color="red"), "spec.coverF has unknown fields: color"),
    (
        lambda d: d["coverF"]["branch"].append({"elem": [1, 1], "mult": "two"}),
        "spec.coverF.branch[3] repeats element [1, 1]",
    ),
    (
        lambda d: d["coverF"]["branch"].append({"elem": [0, 1], "mult": 1}),
        "spec.coverF.branch[3] repeats element [0, 1]",
    ),
    (
        lambda d: d["coverF"]["branch"].append({"elem": [0, True], "mult": 1}),
        "spec.coverF.branch[3].elem must be a list of integers",
    ),
    (lambda d: d["coverD"].update(twist=[[1, 0]]), "spec.coverD: twist must list 2 elements"),
    (lambda d: d.update(group="2,2"), "spec.group must be a list of integers"),
    (lambda d: d["coverF"]["branch"][2].update(mult=2), "spec.coverF: branch monodromies sum to"),
    (
        lambda d: d["coverD"]["twist"].__setitem__(0, [0, 1]),
        "spec.coverD: branch and twist data do not generate",
    ),
    (lambda d: d["coverD"]["twist"].__setitem__(1, [0, 2]), "spec.coverD: coordinate 2 out of range"),
    (lambda d: d["coverD"]["twist"].__setitem__(1, "01"), "spec.coverD.twist[1] must be a list"),
    (lambda d: d["coverF"]["branch"][1].update(mult="two"), "spec.coverF: branch multiplicity 'two'"),
    (lambda d: d["coverF"]["branch"][0].pop("mult"), "spec.coverF.branch[0] must be an object"),
    (lambda d: d["coverD"].update(branch={}), "spec.coverD.branch must be a list"),
    (lambda d: d.update(coverD=[]), "spec.coverD must be an object"),
]


@pytest.mark.parametrize("mangle", [mangle for mangle, _ in BAD_SPECS])
def test_bad_specs_are_rejected(mangle):
    message = dict(BAD_SPECS)[mangle]
    data = sandwich_record(make_sandwich(F_COVER, D_COVER))
    data = json.loads(json.dumps(data))
    mangle(data)
    with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
        parse_sandwich(data)


def test_spec_group_order_is_bounded_before_any_table_is_built():
    from isopencil.groups import _GROUPS, GROUP_ORDER_BOUND

    order = 200_000
    assert order > GROUP_ORDER_BOUND
    point = {"elem": [1], "mult": 1}
    cover = {"base_genus": 0, "branch": [point, {"elem": [order - 1], "mult": 1}], "twist": []}
    with pytest.raises(InvalidInputError, match="exceeds the bound"):
        parse_sandwich({"group": [order], "coverF": cover, "coverD": cover})
    assert (order,) not in _GROUPS


def test_two_point_spec_over_the_largest_cyclic_group_is_rejected_quickly():
    from isopencil.groups import GROUP_ORDER_BOUND

    order = GROUP_ORDER_BOUND
    cover = {
        "base_genus": 0,
        "branch": [{"elem": [1], "mult": 1}, {"elem": [order - 1], "mult": 1}],
        "twist": [],
    }
    start = time.monotonic()
    with pytest.raises(InvalidInputError, match="genus >= 2"):
        parse_sandwich({"group": [order], "coverF": cover, "coverD": cover})
    assert time.monotonic() - start < 2.0


def test_load_sandwich_file_errors(tmp_path):
    with pytest.raises(InvalidInputError, match="cannot read"):
        load_sandwich(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError, match="not valid JSON"):
        load_sandwich(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(sandwich_record(make_sandwich(F_COVER, D_COVER))))
    assert load_sandwich(str(good)).cover_d == D_COVER


def test_family_table_layout():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    text = render_family_rows(rows, "table")
    lines = text.splitlines()
    assert lines[0].split() == ["G", "g(A)", "g(B)", "g(F)", "g(D)", "K^2", "t"]
    assert lines[1].split() == ["2,2", "0", "1", "2", "2m+1", "4m", "8m"]


def test_family_csv_quotes_commas():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    text = render_family_rows(rows, "csv")
    header, line = text.splitlines()
    assert header.startswith("group,quotient_genus_a")
    assert line.startswith('"2,2",0,1,2,"[0,1]",family,3,8,')


def test_empty_row_sets_render_as_headers():
    assert render_family_rows([], "csv").count("\n") == 1
    assert render_family_rows([], "table").count("\n") == 1
    assert render_atlas_rows([], "csv") == "genus,quotient_genus,group,profile,listed\n"
    assert render_covers([], "csv") == "group,base_genus,genus,branch,twist\n"
    assert render_family_rows([], "json") == "[]\n"


def test_invariant_json_keys_are_fixed():
    report = invariants(make_sandwich(F_COVER, D_COVER))
    payload = json.loads(render_invariants(report, "json"))
    assert list(payload) == [
        "p_g", "q", "chi", "euler_e", "K2", "t_z", "sing", "canonical_character",
    ]
    assert all(list(entry) == ["n", "q", "count", "z_points"] for entry in payload["sing"])
    table = render_invariants(report, "table")
    assert table.splitlines()[0].split() == ["p_g", str(report.p_g)]


def test_family_json_members_round_trip():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    payload = json.loads(render_family_rows(rows, "json"))
    member = payload[0]["members"][0]
    back = parse_sandwich(member["spec"])
    report = invariants(back)
    assert report.p_g == member["p_g"] == member["invariants"]["p_g"]
    assert report.K2 == member["invariants"]["K2"]


def test_comparison_formats_agree_on_content():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=0)
    report = compare_with_reference(rows, "diciotto")
    text = render_family_comparison(report, "table")
    assert "row 1: matched" in text and "delta -4" in text
    csv_text = render_family_comparison(report, "csv")
    assert "discrepancy,1,K2,4m+4,4m,-4," in csv_text
    payload = json.loads(render_family_comparison(report, "json"))
    assert payload["table"] == "diciotto"
    flagged = payload["matched"][0]["discrepancies"][0]
    assert flagged["reference"]["text"] == "4m+4"
    assert flagged["delta"] == -4


def test_renderers_reject_unknown_formats():
    # Every renderer checks the format before it reads the report.
    for renderer, report in [
        (render_invariants, invariants(make_sandwich(F_COVER, D_COVER))),
        (render_covers, [F_COVER]),
        (render_family_rows, []),
        (render_atlas_rows, []),
        (render_family_comparison, compare_with_reference([], "zero")),
        (render_atlas_comparison, None),
    ]:
        with pytest.raises(InvalidInputError, match="unknown format 'yaml'"):
            renderer(report, "yaml")


def test_json_writer_matches_json_dumps_with_indent_2():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    texts = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\xe9\u2028\ud800\U0001f600 a')
    integers = (
        st.integers()
        | st.integers(min_value=2**64, max_value=2**200)
        | st.integers(min_value=-(2**200), max_value=-(2**64))
    )
    values = st.recursive(
        st.none() | st.booleans() | integers | texts,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(texts, inner, max_size=4),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    def check(value):
        assert render_module._json(value) == json.dumps(value, indent=2) + "\n"

    check()


@pytest.mark.parametrize(
    "payload, kind",
    [
        (1.5, "float"),
        (Fraction(1, 2), "Fraction"),
        ({1}, "set"),
        ({1: 0}, "int key"),
        ({"rows": [0, {"slope": 1.0}]}, "float"),
    ],
)
def test_json_writer_refuses_inexact_values(payload, kind):
    with pytest.raises(InternalConsistencyError, match=kind):
        render_module._json(payload)


def _family_comparison():
    rows = classify(2, pg_range=(3, 8))
    cells = {
        (ref.factors, ref.quotient_genus_a, ref.quotient_genus_b, ref.genus_f)
        for ref in family_reference("zero")
    }
    report = compare_with_reference(rows, "zero", cells=cells)
    assert report.missing and report.extra
    assert any(row.discrepancies for row in report.matched)
    return render_family_comparison(report, "json")


def _classify_with_members():
    rows = classify(2, groups=[(2, 2)], quotient_genus_a=0, quotient_genus_b=1)
    assert rows[0].members
    return render_family_rows(rows, "json")


def _covers_with_a_twist():
    covers = list(enumerate_covers(KLEIN, 1, genus=5, up_to_aut=True))
    assert any(c.twist != (oracle.zero(KLEIN),) * 2 for c in covers)
    return render_covers(covers, "json")


def _invariants_without_pencil():
    sing = (SingularClass(2, 1, 4, 0), SingularClass(4, 3, 1, 2))
    report = InvariantReport(3, 0, 4, 40, 8, 0, sing, None)
    return render_invariants(report, "json")


def _invariants_with_pencil():
    report = invariants(make_sandwich(F_COVER, D_COVER))
    assert report.canonical_character is not None
    return render_invariants(report, "json")


JSON_RENDERS = {
    "classify": _classify_with_members,
    "atlas": lambda: render_atlas_rows(atlas_table(2), "json"),
    "covers": _covers_with_a_twist,
    "family_comparison": _family_comparison,
    "atlas_comparison": lambda: render_atlas_comparison(
        compare_atlas_with_reference("tabelladue"), "json"
    ),
    "invariants_no_pencil": _invariants_without_pencil,
    "invariants_pencil": _invariants_with_pencil,
}


@pytest.mark.parametrize("name", list(JSON_RENDERS))
def test_every_json_render_matches_the_stdlib_encoder(monkeypatch, name):
    payloads = []
    write = render_module._json
    monkeypatch.setattr(render_module, "_json", lambda p: payloads.append(p) or write(p))
    text = JSON_RENDERS[name]()
    (payload,) = payloads
    assert text == json.JSONEncoder(indent=2).encode(payload) + "\n"


def _element_text(coords) -> str:
    return "[" + ",".join(map(str, coords)) + "]"


# How a JSON value reads as CSV text, spelled here apart from the renderers;
# any other column's CSV text is str of its JSON value.
_CSV_TEXT_OF_JSON = {
    "group": lambda v: ",".join(map(str, v)),
    "chi0": _element_text,
    "canonical_character": lambda v: "-" if v is None else _element_text(v),
    "profile": lambda v: " ".join(f"{_element_text(p['chi'])}:{p['dim']}" for p in v),
    "branch": lambda v: " ".join(f"{_element_text(p['elem'])}:{p['mult']}" for p in v),
    "twist": lambda v: " ".join(map(_element_text, v)),
    "listed": {True: "yes", False: "no", None: ""}.get,
    "sing": lambda v: " ".join(f"{s['count']}x(1/{s['n']})(1,{s['q']})[z={s['z_points']}]" for s in v),
}


def _free_pair_invariants():
    # Z/2 acts freely on D, so the quotient has no singular points.
    group = make_group([2])
    free_d = make_cover(group, 2, {}, ((1,), (0,), (0,), (0,)))
    report = invariants(make_sandwich(make_cover(group, 0, {(1,): 6}), free_d))
    assert report.sing == () and report.canonical_character is None
    return report


CROSS_FORMAT = {
    "family": lambda: (render_family_rows, classify(2, groups=[(2, 2)], pg_range=(3, 12))),
    "atlas": lambda: (render_atlas_rows, atlas_table(2)),
    "covers": lambda: (render_covers, [
        *enumerate_covers(KLEIN, 1, genus=5, up_to_aut=True),
        *enumerate_covers(make_group([6]), 0, genus=2, up_to_aut=True),
    ]),
    "invariants_pencil": lambda: (render_invariants, invariants(make_sandwich(F_COVER, D_COVER))),
    "invariants_free": lambda: (render_invariants, _free_pair_invariants()),
}


@pytest.mark.parametrize("name", list(CROSS_FORMAT))
def test_csv_and_json_views_carry_the_same_values(name):
    render, records = CROSS_FORMAT[name]()
    header, *lines = csv.reader(io.StringIO(render(records, "csv")))
    objects = json.loads(render(records, "json"))
    if isinstance(objects, dict):  # an invariant report is one object
        objects = [objects]
    assert len(lines) == len(objects) > 0
    for line, obj in zip(lines, objects):
        # A family row's JSON nests its forms; the CSV gives each its own column.
        forms = {
            key: LinearForm(form["slope"], form["intercept"]).render()
            for key, form in obj.pop("forms", {}).items()
        }
        assert set(header) <= set(obj) | set(forms)
        for column, text in zip(header, line):
            if column in forms:
                assert text == forms[column], column
            else:
                assert text == _CSV_TEXT_OF_JSON.get(column, str)(obj[column]), column
