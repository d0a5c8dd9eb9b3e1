"""Exit codes, spec examples, and byte-determinism of the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isopencil import classifier, cli
from isopencil.covers import make_cover
from isopencil.errors import InternalConsistencyError
from isopencil.groups import make_group
from isopencil.sandwich import make_sandwich
from isopencil.specfile import parse_sandwich, sandwich_record


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
    ("covers", "--group", "4", "--base-genus", "0", "--max-branch-points", "-1"),
    ("covers", "--group", "4", "--base-genus", "0", "--genus", "3", "--max-branch-points", "-1"),
    ("covers", "--group", "200000", "--base-genus", "0"),
    ("covers", "--group", "2,2,2,2,2", "--base-genus", "0", "--genus", "17"),
    ("atlas", "--genus", "3", "--quotient-genus", "9"),
    ("atlas", "--genus", "3", "--quotient-genus", "-1"),
])
def test_invalid_inputs_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")


def test_consistency_failures_exit_two(capsys, monkeypatch):
    def boom(args):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setitem(cli._RUNNERS, "atlas", boom)
    code, _, err = run(capsys, "atlas", "--genus", "2")
    assert code == 2
    assert "routes disagree" in err


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
