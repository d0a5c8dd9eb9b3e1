"""Tests of the benchmark itself, not of isopencil.

    python3 -m pytest -q perfbench/selftest.py

The smoke run takes about ten seconds and has no timing bound: it checks that
every workload runs, that outputs match the golden digests, that two traced
passes give identical counts, and that every metric named in BENCHMARK.json
is printed with its unit.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402


@contextlib.contextmanager
def _scratch_dir():
    """A temporary directory inside the checkout, which .gitignore covers."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_lines() -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_smoke_passes_golden_and_repeat_checks(smoke_lines):
    result = smoke_lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_smoke_prints_every_metric_with_its_unit(smoke_lines):
    contract = _contract()
    wanted = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    metrics = smoke_lines[-1]["metrics"]
    for workload in run.WORKLOADS:
        for name, unit in wanted.items():
            entry = metrics[f"{workload}/{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))


def test_reports_carry_provenance(smoke_lines):
    reports = [line["report"] for line in smoke_lines[:-1]]
    assert [r["workload"] for r in reports] == list(run.WORKLOADS)
    for report in reports:
        assert {"git_sha", "src_sha256", "python", "nproc", "cpu_model"} <= set(report["provenance"])
        assert report["extra"]["failed_frac"] == 0.0


def test_workloads_match_contract():
    assert [w["name"] for w in _contract()["workloads"]] == list(run.WORKLOADS)


def test_changed_stdout_counts_as_failure():
    golden = json.loads(run.GOLDEN.read_text())["cli"]
    args = run.SMOKE_CLI_WORKLOADS["tables"][1][0]
    tally = run.Tally()
    child = run.Child(0, b"not the recorded output\n", "", 0.0, 1.0, 0.0, 0)
    run.check_cli(child, args, golden, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_changed_batch_answer_counts_as_failure():
    golden = json.loads(run.GOLDEN.read_text())["batch"]["smoke"]
    broken = {"pool_digest": golden["pool_digest"], "outputs": dict.fromkeys(golden["outputs"], "0" * 64)}
    with _scratch_dir() as tmp:
        tally = run.Tally()
        run.run_batch(run.batch_argv(run.SMOKE_BATCH, 3, 0, max_passes=1), broken, tally, tmp)
    assert tally.failed == tally.attempted > 0


def test_self_time_subtracts_children():
    dump = {
        "names": ["classifier.classify_cell", "sandwich.invariants", "covers.genus"],
        "name": [0, 1, 2],
        "start": [0, 10, 20],
        "end": [100, 50, 30],
        "parent": [-1, 0, 1],
        "counts": {},
    }
    metrics, _ = tracer.summarize([(dump, 2e-7, 1.0)])
    assert metrics["classifier.self_s"] == pytest.approx(60e-9)
    assert metrics["sandwich.self_s"] == pytest.approx(30e-9)
    assert metrics["covers.self_s"] == pytest.approx(10e-9)
    assert metrics["process.outside_s"] == pytest.approx(100e-9)


def test_refuses_to_run_without_the_program():
    with _scratch_dir() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
