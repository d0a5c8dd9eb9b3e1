"""Deterministic table, CSV, and JSON views of every report the library emits.

Each report kind has its own render_* function, which takes the report and
one of FORMATS; there is no dispatcher over report types.

Every JSON view is laid out exactly as ``json.dumps(payload, indent=2)``
followed by a newline: two-space indent, ASCII escapes, keys in insertion
order. One small writer produces it, since ``indent=2`` turns off the C
encoder; payloads hold exact values only (str, int, bool, None, dicts with
str keys, lists and tuples), and anything else raises InternalConsistencyError.
"""

from __future__ import annotations

import io
from json.encoder import encode_basestring_ascii as _quote

from .atlas import AtlasRow
from .classifier import FamilyRow, cell_of
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


def _cell_columns(cell) -> list[str]:
    """The text columns of a search cell (factors, a, b, genus_f)."""
    factors, a, b, genus_f = cell
    return [",".join(str(f) for f in factors), str(a), str(b), str(genus_f)]


def _cell_note(cell) -> str:
    factors, a, b, genus_f = cell
    return f"G={','.join(str(f) for f in factors)} a={a} b={b} g(F)={genus_f}"


def _cell_payload(cell) -> dict:
    factors, a, b, genus_f = cell
    return {"group": list(factors), "quotient_genus_a": a, "quotient_genus_b": b, "genus_f": genus_f}


def _form_fields(row: FamilyRow) -> dict[str, str]:
    return {key: form.render() for key, form in sorted(row.forms.items())}


def _invariant_payload(report: InvariantReport) -> dict:
    return {
        "p_g": report.p_g,
        "q": report.q,
        "chi": report.chi,
        "euler_e": report.euler_e,
        "K2": report.K2,
        "t_z": report.t_z,
        "sing": [
            {"n": s.n, "q": s.q, "count": s.count, "z_points": s.z_points}
            for s in report.sing
        ],
        "canonical_character": (
            list(report.canonical_character)
            if report.canonical_character is not None
            else None
        ),
    }


def render_family_rows(rows: list[FamilyRow], fmt: str) -> str:
    """Classification rows; the table view keeps the reference column layout."""
    _check_format(fmt)
    if fmt == "table":
        body = []
        for row in rows:
            forms = _form_fields(row)
            body.append(_cell_columns(cell_of(row)) + [forms["g_D"], forms["K2"], forms["t_z"]])
        return _tabulate(["G", "g(A)", "g(B)", "g(F)", "g(D)", "K^2", "t"], body)
    if fmt == "csv":
        header = [
            "group", "quotient_genus_a", "quotient_genus_b", "genus_f", "chi0",
            "kind", "pg_lo", "pg_hi", "p_g", "q", "g_D", "K2", "t_z", "chi", "euler_e",
        ]
        body = []
        for row in rows:
            forms = _form_fields(row)
            body.append(_cell_columns(cell_of(row)) + [
                format_element(row.chi0),
                row.kind,
                str(row.pg_lo),
                str(row.pg_hi),
            ] + [forms[k] for k in ("p_g", "q", "g_D", "K2", "t_z", "chi", "euler_e")])
        return _csv(header, body)
    payload = []
    for row in rows:
        payload.append({
            **_cell_payload(cell_of(row)),
            "chi0": list(row.chi0),
            "kind": row.kind,
            "pg_lo": row.pg_lo,
            "pg_hi": row.pg_hi,
            "forms": {
                key: {"slope": form.slope, "intercept": form.intercept}
                for key, form in sorted(row.forms.items())
            },
            "members": [
                {
                    "p_g": sol.p_g,
                    "spec": sandwich_record(Sandwich(sol.cover_f, sol.cover_d)),
                    "invariants": _invariant_payload(sol.report),
                }
                for sol in row.members
            ],
        })
    return _json(payload)


def _profile_text(profile) -> str:
    return " ".join(f"{format_element(chi)}:{dim}" for chi, dim in profile)


def render_atlas_rows(rows: list[AtlasRow], fmt: str) -> str:
    """Action rows; listed says whether the reference table carries the class."""
    _check_format(fmt)
    listed = {True: "yes", False: "no", None: ""}
    if fmt != "json":
        body = [
            [
                str(row.genus),
                str(row.quotient_genus),
                ",".join(str(f) for f in row.group.factors),
                _profile_text(row.profile),
                listed[row.in_reference],
            ]
            for row in rows
        ]
        if fmt == "table":
            return _tabulate(["genus", "quot", "G", "profile", "listed"], body)
        return _csv(["genus", "quotient_genus", "group", "profile", "listed"], body)
    payload = [
        {
            "genus": row.genus,
            "quotient_genus": row.quotient_genus,
            "group": list(row.group.factors),
            "profile": [{"chi": list(chi), "dim": dim} for chi, dim in row.profile],
            "listed": row.in_reference,
            "witness": cover_record(row.witness),
        }
        for row in rows
    ]
    return _json(payload)


def _branch_text(cover: CoverData) -> str:
    return " ".join(f"{format_element(e)}:{m}" for e, m in cover.branch)


def render_covers(covers: list[CoverData], fmt: str) -> str:
    """Cover rows: group, base genus, total genus, branch multiset, twist."""
    _check_format(fmt)
    if fmt in ("table", "csv"):
        body = [
            [
                ",".join(str(f) for f in cover.group.factors),
                str(cover.base_genus),
                str(genus(cover)),
                _branch_text(cover),
                " ".join(format_element(e) for e in cover.twist),
            ]
            for cover in covers
        ]
        header = ["group", "base_genus", "genus", "branch", "twist"]
        return _tabulate(header, body) if fmt == "table" else _csv(header, body)
    payload = [
        {"group": list(cover.group.factors), "genus": genus(cover), **cover_record(cover)}
        for cover in covers
    ]
    return _json(payload)


def render_invariants(report: InvariantReport, fmt: str) -> str:
    """One invariant report as aligned text, a CSV row, or a JSON object."""
    _check_format(fmt)
    if fmt == "json":
        return _json(_invariant_payload(report))
    sing_text = " ".join(
        f"{s.count}x(1/{s.n})(1,{s.q})[z={s.z_points}]" for s in report.sing
    )
    chi0_text = (
        format_element(report.canonical_character)
        if report.canonical_character is not None
        else "-"
    )
    if fmt == "table":
        pairs = [
            ("p_g", str(report.p_g)),
            ("q", str(report.q)),
            ("chi", str(report.chi)),
            ("e", str(report.euler_e)),
            ("K^2", str(report.K2)),
            ("t", str(report.t_z)),
            ("sing", sing_text or "-"),
            ("pencil", chi0_text),
        ]
        width = max(len(name) for name, _ in pairs)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in pairs) + "\n"
    if fmt == "csv":
        header = ["p_g", "q", "chi", "euler_e", "K2", "t_z", "sing", "canonical_character"]
        row = [
            str(report.p_g), str(report.q), str(report.chi), str(report.euler_e),
            str(report.K2), str(report.t_z), sing_text, chi0_text,
        ]
        return _csv(header, [row])


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

