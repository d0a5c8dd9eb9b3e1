"""Exit codes, spec examples, and byte-determinism of the command line."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isopencil import classifier, cli
from isopencil.classifier import cell_of, classify, classify_cells, search_cells
from isopencil.compare import compare_with_reference
from isopencil.covers import make_cover
from isopencil.errors import CapabilityError, InternalConsistencyError, InvalidInputError
from isopencil.groups import make_group
from isopencil.reference_tables import family_reference, family_table_ids
from isopencil.sandwich import make_sandwich
from isopencil.specfile import parse_sandwich, sandwich_record


README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atlas_lists_the_genus_two_actions(capsys):
    code, out, _ = run(capsys, "atlas", "--genus", "2")
    assert code == 0
    body = out.splitlines()[1:]
    assert len(body) >= 7
    assert sum(1 for line in body if line.endswith("yes")) == 7


def test_atlas_quotient_filter(capsys):
    code, out, _ = run(capsys, "atlas", "--genus", "2", "--quotient-genus", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows and all(line.split()[1] == "1" for line in rows)


def test_classify_compare_example_is_clean(capsys):
    code, out, _ = run(
        capsys, "classify", "--genus-f", "3", "--group", "2,2,2",
        "--base-a", "0", "--base-b", "0", "--pg", "3..6", "--compare", "zero",
    )
    assert code == 0
    assert "5 matched, 0 missing, 0 extra" in out
    assert "delta" not in out
    assert [f"row {i}: exact" in out for i in range(9, 14)] == [True] * 5


def test_classify_empty_cell_csv_is_header_only(capsys):
    code, out, _ = run(
        capsys, "classify", "--genus-f", "2", "--group", "2,2",
        "--base-a", "2", "--base-b", "1", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "group,quotient_genus_a,quotient_genus_b,genus_f,chi0,"
        "kind,pg_lo,pg_hi,p_g,q,g_D,K2,t_z,chi,euler_e\n"
    )


def test_missing_spec_file_is_invalid_input(capsys):
    code, out, err = run(capsys, "invariants", "missing.json")
    assert code == 1
    assert not out
    assert "missing.json" in err


def test_invariants_json_round_trip(capsys, tmp_path):
    group = make_group((2, 2))
    sw = make_sandwich(
        make_cover(group, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3}),
        make_cover(group, 1, {(0, 1): 6}, ((1, 0), (0, 1))),
    )
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(sandwich_record(sw)))
    code, out, _ = run(capsys, "invariants", str(spec), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_g"] == 3 and payload["K2"] == 12
    assert payload["canonical_character"] == [0, 1]


def test_classify_json_specs_feed_the_reader(capsys):
    code, out, _ = run(
        capsys, "classify", "--genus-f", "2", "--group", "2,2",
        "--base-a", "0", "--base-b", "1", "--pg", "3..4", "--format", "json",
    )
    assert code == 0
    for row in json.loads(out):
        for member in row["members"]:
            back = parse_sandwich(member["spec"])
            assert back.group.factors == tuple(row["group"])


def test_identical_invocations_are_byte_identical(capsys):
    argv = ("classify", "--genus-f", "2", "--group", "2,2", "--pg", "3..5", "--format", "csv")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def _searched(genus_f, groups, a):
    """classify --compare's cells and rows: the cells are set(search_cells(...))."""
    cells = set(search_cells(genus_f, groups, a, "any"))
    return cells, classify(genus_f, groups, a, "any", pg_range=(3, 6))


def _referenced(table):
    """compare's cells and rows: the cells are the table's reference cells."""
    cells = set(map(cell_of, family_reference(table)))
    return cells, classify_cells(sorted(cells), (3, 6))


@pytest.mark.parametrize("argv, table, library", [
    (("classify", "--genus-f", "2", "--group", "all", "--compare", "zero"), "zero",
     lambda: _searched(2, "all", "any")),
    (("classify", "--genus-f", "3", "--group", "2,2,2", "--base-a", "0", "--compare", "zero"), "zero",
     lambda: _searched(3, [(2, 2, 2)], 0)),
    (("compare", "mostro"), "mostro", lambda: _referenced("mostro")),
])
def test_cli_compares_over_the_library_cells(capsys, monkeypatch, argv, table, library):
    reports = []
    monkeypatch.setattr(cli, "render_family_comparison", lambda report, fmt: reports.append(report) or "")
    code, _, _ = run(capsys, *argv, "--pg", "3..6")
    assert code == 0 and len(reports) == 1
    cells, rows = library()
    assert reports[0] == compare_with_reference(rows, table, cells=cells)


def test_compare_maps_every_cell_in_one_call(capsys, monkeypatch):
    batches = []
    real = classifier.parallel_map

    def recording(fn, items):
        items = list(items)
        batches.append(len(items))
        return real(fn, items)

    monkeypatch.setattr(classifier, "parallel_map", recording)
    code, _, _ = run(capsys, "compare", "zero", "--pg", "3..4")
    assert code == 0
    assert len(batches) == 1 and batches[0] > 1


@pytest.mark.parametrize("argv", [
    ("atlas", "--genus", "7"),
    ("classify", "--genus-f", "4", "--group", "2,2"),
    ("classify", "--genus-f", "2", "--group", "2,x"),
    ("classify", "--genus-f", "2", "--group", "2,2", "--pg", "3-8"),
    ("classify", "--genus-f", "2", "--group", "2,2", "--pg", "8..3"),
    ("classify", "--genus-f", "2", "--group", "2,2", "--compare", "nope"),
    ("covers", "--group", "2", "--base-genus", "1"),
    ("compare", "nosuch"),
    ("nosuch",),
    # --workers was removed: every search runs in one process.
    ("atlas", "--genus", "2", "--workers", "0"),
    ("compare", "tabelladue", "--workers", "x"),
    ("covers", "--group", "4", "--base-genus", "0", "--genus", "-1"),
    ("covers", "--group", "4", "--base-genus", "-1", "--genus", "3"),
    ("covers", "--group", "200000", "--base-genus", "0"),
    ("covers", "--group", "2,2,2,2,2", "--base-genus", "0", "--genus", "17"),
    ("atlas", "--genus", "3", "--quotient-genus", "9"),
    ("atlas", "--genus", "3", "--quotient-genus", "-1"),
    # Above the order bound of Aut(G), even where the search finds no cover.
    ("covers", "--group", "100", "--base-genus", "0", "--genus", "2"),
])
def test_invalid_inputs_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")


def test_covers_requires_the_genus(capsys):
    code, out, err = run(capsys, "covers", "--group", "4", "--base-genus", "0")
    assert (code, out) == (1, "")
    assert "--genus" in err


def test_covers_has_no_branch_point_cap(capsys):
    code, out, err = run(capsys, "covers", "--group", "4", "--base-genus", "0", "--genus", "3", "--max-branch-points", "4")
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("table", ["nope", "tabelladue"])
def test_classify_checks_the_compare_table_before_searching(capsys, monkeypatch, table):
    # tabelladue is an atlas table, not a family table.
    def searched(*args, **kwargs):
        raise AssertionError("the search ran before the table id was checked")

    monkeypatch.setattr(cli, "classify_cells", searched)
    code, out, err = run(capsys, "classify", "--genus-f", "2", "--group", "all", "--pg", "3..60", "--compare", table)
    known = ", ".join(family_table_ids())
    assert (code, out, err) == (1, "", f"error: unknown family table {table!r}; known ids: {known}\n")


def test_consistency_failures_exit_two(capsys, monkeypatch):
    # main returns the exit code each error class carries: 1 for bad input, 2 for a bug.
    for error, code in [(InvalidInputError, 1), (CapabilityError, 1), (InternalConsistencyError, 2)]:

        def boom(args):
            raise error("routes disagree")

        monkeypatch.setitem(cli._RUNNERS, "atlas", boom)
        assert error.exit_code == code
        assert run(capsys, "atlas", "--genus", "2") == (code, "", "error: routes disagree\n"), error


def test_compare_subcommand_covers_both_table_kinds(capsys):
    code, out, _ = run(capsys, "compare", "tabelladue")
    assert code == 0
    assert "7 of 7" in out
    code, out, _ = run(capsys, "compare", "quattordici", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] and not payload["missing"]
    assert all(not m["discrepancies"] for m in payload["matched"])


def test_cli_import_leaves_the_process_pool_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, isopencil.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--genus-f", "2", "--group", "all", "--pg", "3..30", "--format", "json"),
        ("atlas", "--genus", "3", "--format", "json"),
        ("compare", "mostro"),
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_byte_identical_under_two_hash_seeds(argv):
    # Each run is a fresh process, so the iteration order of any set of
    # strings differs between the two seeds.
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-m", "isopencil.cli", *argv],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] and outs[0] == outs[1]


def test_workers_variable_is_ignored_and_no_pool_is_loaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, isopencil.cli\n"
        "code = isopencil.cli.main(['classify', '--genus-f', '2', '--group', '2,2', '--pg', '3..5'])\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)"
    )
    env = {key: value for key, value in os.environ.items() if key != "ISOPENCIL_WORKERS"}
    env["PYTHONPATH"] = src
    runs = [
        subprocess.run([sys.executable, "-c", probe], env=extra, capture_output=True, text=True, check=True)
        for extra in (env, {**env, "ISOPENCIL_WORKERS": "2"})
    ]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
    assert [r.stderr.strip() for r in runs] == ["[]", "[]"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, isopencil.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_without_site_loads_neither_typing_nor_pathlib():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, isopencil.cli; print(sorted({'typing', 'pathlib'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_readme_names_exactly_the_cli_options():
    # Flags in code spans and blocks; the README names --workers only as absent,
    # and --no-build-isolation belongs to pip.
    spans = re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), flags=re.S)
    named = {flag for span in spans for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    (subcommands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        flag
        for parser in subcommands.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert named - options <= {"--workers", "--no-build-isolation"}
    assert options <= named


def test_readme_examples_match_the_cli_byte_for_byte(tmp_path, capsys, monkeypatch):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    (spec,) = [body for info, body in blocks if info == "json" and '"coverF"' in body]
    (tmp_path / "surface.json").write_text(spec)
    monkeypatch.chdir(tmp_path)
    examples = [body for _, body in blocks if body.startswith("$ isopencil ")]
    subcommands = [body.split()[2] for body in examples]
    assert subcommands == ["atlas", "covers", "classify", "classify", "invariants", "invariants", "compare"]
    for body in examples:
        command, expected = body.split("\n", 1)
        code, out, err = run(capsys, *command.split()[2:])
        assert (code, err) == (0, "")
        assert out == expected, command
