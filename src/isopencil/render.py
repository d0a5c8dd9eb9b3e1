"""Deterministic table, CSV, and JSON views of every report the library emits.

Each listed record kind (family rows, atlas rows, covers, invariant reports)
has one column list, and generic writers read all three formats off it. A
column is a tuple (table header, CSV header, JSON key, text, JSON value):
text and value map a record to the column's cell text and JSON value, and a
header or key is None where a format leaves the column out. A column keyed
"" splices its dict value into the record's JSON object. The two comparison
reports are prose in their table views and keep a renderer of their own.

Every JSON view is laid out exactly as ``json.dumps(payload, indent=2)``
followed by a newline: two-space indent, ASCII escapes, keys in insertion
order. One small writer produces it, since ``indent=2`` turns off the C
encoder; payloads hold exact values only (str, int, bool, None, dicts with
str keys, lists and tuples), and anything else raises InternalConsistencyError.
"""

from __future__ import annotations

import io
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from .atlas import AtlasRow
from .classifier import FamilyRow
from .compare import AtlasComparison, ComparisonReport
from .covers import CoverData, genus
from .errors import InternalConsistencyError, InvalidInputError
from .groups import format_element
from .sandwich import InvariantReport, Sandwich
from .specfile import cover_record, sandwich_record

__all__ = [
    "FORMATS",
    "format_element",
    "render_family_rows",
    "render_atlas_rows",
    "render_covers",
    "render_invariants",
    "render_family_comparison",
    "render_atlas_comparison",
]

FORMATS = ("table", "csv", "json")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise InvalidInputError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")


def _tabulate(header: list[str], body: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for line in body:
        widths = [max(w, len(cell)) for w, cell in zip(widths, line)]
    out = []
    for line in [header] + body:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def _csv(header: list[str], body: list[list[str]]) -> str:
    import csv  # only CSV output needs it; keeps it out of every CLI start-up

    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return sink.getvalue()


def _json(payload) -> str:
    """json.dumps(payload, indent=2) plus a newline, for exact payloads only."""
    out: list[str] = []
    _write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], newline: str) -> None:
    """Append value's JSON to out; newline is a line break plus the current indent."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise InternalConsistencyError(
                    f"JSON payload has a {type(key).__name__} key, not a str"
                )
            out.append(lead)
            out.append(_quote(key))
            out.append(": ")
            _write(item, out, inner)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, out, inner)
            lead = "," + inner
        out.append(newline + "]")
    else:
        raise InternalConsistencyError(
            f"JSON payload holds a {type(value).__name__}, not an exact value"
        )


def _view(columns, records, fmt: str) -> str:
    """A list of records in one format, read off its record kind's column list."""
    _check_format(fmt)
    if fmt == "json":
        return _json([_payload(columns, record) for record in records])
    at = 0 if fmt == "table" else 1  # where the column keeps this format's header
    shown = [(column[at], column[3]) for column in columns if column[at] is not None]
    body = [[text(record) for _, text in shown] for record in records]
    return (_tabulate if at == 0 else _csv)([header for header, _ in shown], body)


def _payload(columns, record) -> dict:
    """One record's JSON object, its keyed columns in list order."""
    out = {}
    for _, _, key, _, value in columns:
        if key:
            out[key] = value(record)
        elif key == "":
            out.update(value(record))
    return out


def _number(table, name: str):
    """An integer field shown under one name as CSV header and JSON key."""
    get = attrgetter(name)
    return (table, name, name, lambda record: str(get(record)), get)


def _group(table: str, attr: str):
    """The group's invariant factors: "2,2" as text, [2, 2] in JSON."""
    get = attrgetter(attr)
    return (table, "group", "group", lambda record: ",".join(map(str, get(record))),
            lambda record: list(get(record)))


def _form(table, name: str):
    """One linear form of a family row as text; the JSON nests every form under forms."""
    return (table, name, None, lambda row: row.forms[name].render(), None)


def _pairs_text(pairs) -> str:
    return " ".join(f"{format_element(e)}:{n}" for e, n in pairs)


def _member_payload(sol) -> dict:
    return {
        "p_g": sol.p_g,
        "spec": sandwich_record(Sandwich(sol.pair.witness, sol.cover_d)),
        "invariants": _payload(_INVARIANT_COLUMNS, sol.report),
    }


_INVARIANT_COLUMNS = [
    _number("p_g", "p_g"),
    _number("q", "q"),
    _number("chi", "chi"),
    _number("e", "euler_e"),
    _number("K^2", "K2"),
    _number("t", "t_z"),
    ("sing", "sing", "sing",
     lambda r: " ".join(f"{s.count}x(1/{s.n})(1,{s.q})[z={s.z_points}]" for s in r.sing),
     lambda r: [{"n": s.n, "q": s.q, "count": s.count, "z_points": s.z_points} for s in r.sing]),
    ("pencil", "canonical_character", "canonical_character",
     lambda r: "-" if r.canonical_character is None else format_element(r.canonical_character),
     lambda r: None if r.canonical_character is None else list(r.canonical_character)),
]

# The table view keeps the reference tables' columns G, g(A), g(B), g(F), g(D), K^2, t.
_FAMILY_COLUMNS = [
    _group("G", "factors"),
    _number("g(A)", "quotient_genus_a"),
    _number("g(B)", "quotient_genus_b"),
    _number("g(F)", "genus_f"),
    (None, "chi0", "chi0", lambda row: format_element(row.chi0), lambda row: list(row.chi0)),
    (None, "kind", "kind", attrgetter("kind"), attrgetter("kind")),
    _number(None, "pg_lo"),
    _number(None, "pg_hi"),
    _form(None, "p_g"),
    _form(None, "q"),
    _form("g(D)", "g_D"),
    _form("K^2", "K2"),
    _form("t", "t_z"),
    _form(None, "chi"),
    _form(None, "euler_e"),
    (None, None, "forms", None, lambda row: {
        key: {"slope": form.slope, "intercept": form.intercept}
        for key, form in sorted(row.forms.items())
    }),
    (None, None, "members", None, lambda row: [_member_payload(sol) for sol in row.members]),
]

_LISTED = {True: "yes", False: "no", None: ""}

_ATLAS_COLUMNS = [
    _number("genus", "genus"),
    _number("quot", "quotient_genus"),
    _group("G", "group.factors"),
    ("profile", "profile", "profile", lambda row: _pairs_text(row.profile),
     lambda row: [{"chi": list(chi), "dim": dim} for chi, dim in row.profile]),
    ("listed", "listed", "listed", lambda row: _LISTED[row.in_reference], attrgetter("in_reference")),
    (None, None, "witness", None, lambda row: cover_record(row.witness)),
]

# The JSON object reads group, genus, then cover_record's base_genus, branch, twist.
_COVER_COLUMNS = [
    _group("group", "group.factors"),
    ("base_genus", "base_genus", None, lambda cover: str(cover.base_genus), None),
    # genus is looked up per call, where perfbench/tracer.py counts covers.genus.
    ("genus", "genus", "genus", lambda cover: str(genus(cover)), lambda cover: genus(cover)),
    ("branch", "branch", None, lambda cover: _pairs_text(cover.branch), None),
    ("twist", "twist", None, lambda cover: " ".join(map(format_element, cover.twist)), None),
    (None, None, "", None, cover_record),
]


def render_family_rows(rows: list[FamilyRow], fmt: str) -> str:
    """Classification rows; the table view keeps the reference column layout."""
    return _view(_FAMILY_COLUMNS, rows, fmt)


def render_atlas_rows(rows: list[AtlasRow], fmt: str) -> str:
    """Action rows; listed says whether the reference table carries the class."""
    return _view(_ATLAS_COLUMNS, rows, fmt)


def render_covers(covers: list[CoverData], fmt: str) -> str:
    """Cover rows: group, base genus, total genus, branch multiset, twist."""
    return _view(_COVER_COLUMNS, covers, fmt)


def render_invariants(report: InvariantReport, fmt: str) -> str:
    """One invariant report as aligned name-value lines, a CSV row, or a JSON object."""
    if fmt == "json":
        return _json(_payload(_INVARIANT_COLUMNS, report))
    if fmt != "table":
        return _view(_INVARIANT_COLUMNS, [report], fmt)
    width = max(len(column[0]) for column in _INVARIANT_COLUMNS)
    # An empty text, such as sing with no singular points, reads "-".
    return "".join(
        f"{table.ljust(width)}  {text(report) or '-'}\n" for table, _, _, text, _ in _INVARIANT_COLUMNS
    )


def _cell_note(cell) -> str:
    factors, a, b, genus_f = cell
    return f"G={','.join(str(f) for f in factors)} a={a} b={b} g(F)={genus_f}"


def _cell_payload(cell) -> dict:
    factors, a, b, genus_f = cell
    return {"group": list(factors), "quotient_genus_a": a, "quotient_genus_b": b, "genus_f": genus_f}


def _form_pair(form) -> dict:
    return {"slope": form.slope, "intercept": form.intercept, "text": form.render()}


def render_family_comparison(report: ComparisonReport, fmt: str) -> str:
    """Row-by-row verdicts against one reference table."""
    _check_format(fmt)
    if fmt == "table":
        lines = [
            f"table {report.table}: {len(report.matched)} matched, "
            f"{len(report.missing)} missing, {len(report.extra)} extra, "
            f"{report.skipped} out of scope"
        ]
        for row in report.matched:
            tag = "exact" if row.exact else "matched"
            shared = ", shares a computed family" if row.shared else ""
            lines.append(f"row {row.index}: {tag} at shift {row.shift}{shared}")
            for d in row.discrepancies:
                delta = "shape differs" if d.delta is None else f"delta {d.delta:+d}"
                lines.append(
                    f"  {d.field}: reference {d.reference.render()}, "
                    f"computed {d.computed.render()} ({delta})"
                )
        for miss in report.missing:
            lines.append(f"row {miss.index}: missing ({miss.note})")
        for extra in report.extra:
            forms = dict(extra.forms)
            fold = f" x{extra.count}" if extra.count > 1 else ""
            lines.append(
                f"extra {extra.kind} {_cell_note(extra.cell)}: g(D)={forms['g_D'].render()}"
                f" K^2={forms['K2'].render()} t={forms['t_z'].render()}{fold}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        header = ["record", "index", "field", "reference", "computed", "delta", "note"]
        body = []
        for row in report.matched:
            note = "shared" if row.shared else ""
            if row.exact:
                body.append(["matched", str(row.index), "", "", "", "", note])
            for d in row.discrepancies:
                body.append([
                    "discrepancy", str(d.index), d.field, d.reference.render(),
                    d.computed.render(), "" if d.delta is None else str(d.delta), note,
                ])
        for miss in report.missing:
            body.append(["missing", str(miss.index), "", "", "", "", miss.note])
        for extra in report.extra:
            note = f"{_cell_note(extra.cell)} kind={extra.kind} count={extra.count}"
            body.append([
                "extra", "", "", "",
                " ".join(f"{k}={v.render()}" for k, v in extra.forms), "", note,
            ])
        return _csv(header, body)
    payload = {
        "table": report.table,
        "skipped": report.skipped,
        "matched": [
            {
                "index": row.index,
                "shift": row.shift,
                "shared": row.shared,
                "discrepancies": [
                    {
                        "field": d.field,
                        "reference": _form_pair(d.reference),
                        "computed": _form_pair(d.computed),
                        "delta": d.delta,
                    }
                    for d in row.discrepancies
                ],
            }
            for row in report.matched
        ],
        "missing": [{"index": m.index, "note": m.note} for m in report.missing],
        "extra": [
            {
                **_cell_payload(e.cell),
                "kind": e.kind,
                "pg_lo": e.pg_lo,
                "pg_hi": e.pg_hi,
                "count": e.count,
                "forms": {key: _form_pair(form) for key, form in e.forms},
            }
            for e in report.extra
        ],
    }
    return _json(payload)


def render_atlas_comparison(report: AtlasComparison, fmt: str) -> str:
    """Found / missing reference actions plus the count of unlisted extras."""
    _check_format(fmt)
    if fmt == "table":
        lines = [
            f"table {report.table} (genus {report.genus}): "
            f"{len(report.matched)} of {len(report.matched) + len(report.missing)} "
            f"reference rows found, {report.extra_count} extra actions"
        ]
        for index in report.missing:
            lines.append(f"row {index}: missing")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        body = [["matched", str(i)] for i in report.matched]
        body += [["missing", str(i)] for i in report.missing]
        body += [["extra", str(report.extra_count)]]
        return _csv(["record", "value"], body)
    return _json({
        "table": report.table,
        "genus": report.genus,
        "matched": list(report.matched),
        "missing": list(report.missing),
        "extra_count": report.extra_count,
    })

