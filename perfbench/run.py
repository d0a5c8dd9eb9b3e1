"""Benchmark for isopencil: four named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME|all]
    python3 perfbench/run.py --record-golden

Run it from the root of a checkout; it imports isopencil from `src/` there
and needs no build. `--trace 0` measures the end-to-end metrics named in
BENCHMARK.json, `--trace 1` the per-layer ones. `--smoke` runs every workload
on a tiny input with no timing bound and prints both sets. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it is a report with provenance and extra figures.
See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from child import digest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
CONTRACT = ROOT / "BENCHMARK.json"
CHILD = BENCH_DIR / "child.py"
PYTHON = sys.executable

TABLE_IDS = (
    "tabelladue", "tabellauno", "zero", "mostro", "quattordici", "sedici",
    "diciotto", "qugualebugualezero", "pippo", "pippodue", "qugualedue", "eccolottouno",
)

# workload -> (ISOPENCIL_WORKERS, CLI invocations); the smoke sizes follow.
CLI_WORKLOADS = {
    "sweep": (2, (
        ("classify", "--genus-f", "2", "--group", "all", "--pg", "3..30"),
        ("classify", "--genus-f", "3", "--group", "all", "--pg", "3..8"),
    )),
    "orbits": (1, (
        ("covers", "--base-genus", "0", "--genus", "13", "--group", "2,2,2"),
        ("covers", "--base-genus", "0", "--genus", "13", "--group", "2,2,4"),
        ("covers", "--base-genus", "0", "--genus", "13", "--group", "4,4"),
        ("atlas", "--genus", "3"),
    )),
    "tables": (1, tuple(("compare", table) for table in TABLE_IDS)),
}
SMOKE_CLI_WORKLOADS = {
    "sweep": (2, (("classify", "--genus-f", "2", "--group", "2,2", "--pg", "3..5"),)),
    "orbits": (1, (
        ("covers", "--base-genus", "0", "--genus", "3", "--group", "4"),
        ("atlas", "--genus", "2"),
    )),
    "tables": (1, (("compare", "tabelladue"), ("compare", "pippo"))),
}
BATCH = {"max_order": 8, "max_genus": 5, "pool_size": 1024, "requests": 1000}
SMOKE_BATCH = {"max_order": 4, "max_genus": 3, "pool_size": 16, "requests": 32}
WORKLOADS = (*CLI_WORKLOADS, "invariants_batch")

SETUP_PROBES = 11
SMOKE_SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import isopencil\n"
    "from isopencil.reference_tables import table_ids\n"
    "table_ids()\n"
    "print(isopencil.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, golden file or contract)."""


def cli_key(args) -> str:
    return " ".join(args)


# ---------------------------------------------------------------------------
# Child processes


class Child:
    """Outcome of one finished child process, with perf_counter start and end."""

    def __init__(self, code, stdout, stderr, start, end, cpu_s, maxrss_kb):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.end = end
        self.wall_s = end - start
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.factor = 1.0
        self.args: tuple = ()


def run_child(argv: list[str], env: dict, tmp: Path, clock=None, pause=False) -> Child:
    """Run argv to completion: wall time from spawn to reaping, CPU and peak RSS
    of the process and every descendant it waited for (pool workers).

    With a clock, the child's time scale factor is measured around it; with
    pause, also every calibrate.PERIOD_S during it, while the child's whole
    process group is stopped. The stopped time is left out of the wall time.
    """
    err_path = tmp / f"stderr.{os.getpid()}"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        chunks: list[bytes] = []
        reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()), daemon=True)
        reader.start()
        deadline = start + CHILD_TIMEOUT_S
        during, stopped_s, status = [], 0.0, None
        try:
            while reader.is_alive():
                reader.join(calibrate.PERIOD_S)
                if time.perf_counter() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                elif pause and reader.is_alive():
                    stopped_s += _sample_stopped(proc.pid, clock, during)
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                reader.join(5)
            proc.stdout.close()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    child = Child(
        proc.returncode, b"".join(chunks), stderr, start, end - stopped_s,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
    )
    if clock is not None:
        child.factor = clock.factor(during)
    return child


def _sample_stopped(pgid: int, clock, during: list) -> float:
    """Take one speed sample while the process group is stopped; seconds stopped."""
    stopped_at = time.perf_counter()
    try:
        os.killpg(pgid, signal.SIGSTOP)
    except ProcessLookupError:
        return 0.0
    try:
        during.append(clock.sample())
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGCONT)
    return time.perf_counter() - stopped_at


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    # Bytecode is cached in the checkout, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["ISOPENCIL_WORKERS"] = str(workers)
    return env


@contextlib.contextmanager
def pinned(cpus):
    """Children started inside inherit this affinity of the main thread."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def workload_cpus(workers: int) -> set[int]:
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[:workers])


# ---------------------------------------------------------------------------
# Measurements


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def measure_setup(probes: int, tally: Tally, tmp: Path, clock) -> list[Child]:
    """Fresh processes that import isopencil and load the reference tables.
    One unmeasured probe first compiles the bytecode."""
    env = child_env(1)
    argv = [PYTHON, "-c", SETUP_CODE]
    run_child(argv, env, tmp, clock)
    done = []
    for _ in range(probes):
        child = run_child(argv, env, tmp, clock)
        loaded_from = child.stdout.decode().strip()
        ok = child.code == 0 and Path(loaded_from).resolve().is_relative_to(SRC)
        tally.record(ok, f"setup probe: exit {child.code}, loaded {loaded_from!r} {child.stderr[-300:]}")
        done.append(child)
    return done


def check_cli(child: Child, args, golden: dict, tally: Tally) -> None:
    key = cli_key(args)
    if child.code != 0:
        tally.record(False, f"{key}: exit {child.code}: {child.stderr[-300:]}")
    elif key not in golden:
        tally.record(False, f"{key}: no golden output recorded")
    elif digest(child.stdout) != golden[key]:
        tally.record(False, f"{key}: stdout differs from the golden output")
    else:
        tally.record(True)


def cli_pass(order, workers, golden, tally, tmp, clock, trace_dir=None, pause=True) -> list[Child]:
    """Each invocation in a fresh process; with trace_dir, under the tracer.
    Traced processes time themselves, so they are never paused."""
    env = child_env(workers)
    done = []
    for n, args in enumerate(order):
        if trace_dir is None:
            argv = [PYTHON, "-m", "isopencil.cli", *args]
        else:
            argv = [PYTHON, str(CHILD), "cli", str(trace_dir / f"trace.{n}.json"), *args]
        child = run_child(argv, env, tmp, clock, pause=pause and trace_dir is None)
        child.args = args
        check_cli(child, args, golden, tally)
        done.append(child)
    return done


def cli_passes(invocations, workers, rng, deadline, golden, tally, tmp, clock, max_passes):
    """Whole passes in seeded order until the next one would end after `deadline`."""
    passes = []
    while True:
        order = list(invocations)
        rng.shuffle(order)
        passes.append(cli_pass(order, workers, golden, tally, tmp, clock))
        typical = statistics.median(p[-1].end - p[0].start for p in passes)
        if len(passes) >= max_passes or time.perf_counter() + typical > deadline:
            return passes


def batch_argv(sizes: dict, seed: int, seconds: float, **extra) -> list[str]:
    argv = [
        PYTHON, str(CHILD), "batch", "--seed", str(seed), "--seconds", str(seconds),
        "--max-order", str(sizes["max_order"]), "--max-genus", str(sizes["max_genus"]),
        "--pool-size", str(sizes["pool_size"]), "--requests", str(sizes["requests"]),
    ]
    for flag, value in extra.items():
        flag = "--" + flag.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def run_batch(argv: list[str], golden: dict, tally: Tally, tmp: Path) -> tuple[dict, Child]:
    child = run_child(argv, child_env(1), tmp)
    if child.code != 0:
        tally.record(False, f"batch process: exit {child.code}: {child.stderr[-300:]}")
        raise BenchError("the batch process failed:\n" + child.stderr[-2000:])
    result = json.loads(child.stdout)
    expected = golden["outputs"]
    if result["pool_digest"] != golden["pool_digest"]:
        tally.record(False, "batch: the spec pool differs from the recorded one")
    for key, uses in result["uses"].items():
        tally.attempted += uses
        if expected.get(key) != result["outputs"][key]:
            tally.failed += uses
            tally.reasons.append(f"batch spec {key}: output differs from the golden output")
    # Requests that raised, or answered a spec differently from its first answer.
    tally.attempted += result["failed"]
    tally.failed += result["failed"]
    tally.reasons.extend(result["errors"])
    return result, child


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the values (never beyond them)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, sizes, seed, seconds, golden, tally, tmp, probes, max_passes):
    """Untraced: set-up probes, then whole passes for `seconds`. Every time is
    scaled to the reference machine speed measured around it."""
    deadline = time.perf_counter() + seconds
    workers = sizes[0] if workload in CLI_WORKLOADS else 1
    cpus = workload_cpus(workers)
    with pinned(cpus):
        clock = calibrate.SpeedClock(cpus)
        probe_runs = measure_setup(probes, tally, tmp, clock)
        if workload in CLI_WORKLOADS:
            passes = cli_passes(
                sizes[1], workers, random.Random(seed), deadline, golden["cli"], tally, tmp,
                clock, max_passes,
            )
        else:
            argv = batch_argv(sizes, seed, deadline - time.perf_counter(), max_passes=max_passes)
            result, _ = run_batch(argv, golden["batch"], tally, tmp)

    # Set-up calls are too short to be sampled inside; scale them by the mean
    # speed over the whole set-up phase instead.
    setup_factor = calibrate.scale(clock.samples[: probes + 2])
    metrics = {"setup_s": statistics.median(c.wall_s for c in probe_runs) * setup_factor}
    extra = {"raw_setup_s": statistics.median(c.wall_s for c in probe_runs)}
    if workload in CLI_WORKLOADS:
        # Each invocation at its median over the passes: a run holds only a few
        # passes, and percentiles over so few raw calls would pick extremes.
        by_args: dict = {}
        for p in passes:
            for c in p:
                by_args.setdefault(c.args, []).append(c)
        calls = [statistics.median(c.wall_s * c.factor for c in cs) for cs in by_args.values()]
        pass_s = sum(calls)
        cpu_s = sum(statistics.median(c.cpu_s * c.factor for c in cs) for cs in by_args.values())
        metrics["peak_rss_mb"] = max(c.maxrss_kb for p in passes for c in p) / 1024
        extra["raw_pass_s"] = statistics.median(sum(c.wall_s for c in p) for p in passes)
        extra["invocations"] = sum(len(p) for p in passes)
        extra["passes"] = len(passes)
        slices = clock.samples
    else:
        calls, pass_walls, pass_cpus = [], [], []
        for p in result["passes"]:
            calls.extend(ns / 1e9 * p["factor"] for ns in p["latencies_ns"])
            pass_walls.append(p["wall_s"] * p["factor"])
            pass_cpus.append(p["cpu_s"] * p["factor"])
        pass_s = statistics.median(pass_walls)
        cpu_s = statistics.median(pass_cpus)
        metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024
        extra["raw_pass_s"] = statistics.median(p["wall_s"] for p in result["passes"])
        extra["request_ms.p50"] = statistics.median(calls) * 1e3
        extra["request_ms.p99"] = quantile(calls, 99) * 1e3
        extra["requests_per_s"] = len(calls) / sum(pass_walls)
        extra["requests"] = len(calls)
        extra["passes"] = len(pass_walls)
        slices = clock.samples + result["slices"]
    metrics["pass_s"] = pass_s
    metrics["cpu_s"] = cpu_s
    metrics["call_s.p50"] = statistics.median(calls)
    metrics["call_s.p90"] = quantile(calls, 90)
    extra["slice_s.median"] = statistics.median(slices)
    return metrics, extra


def per_layer(workload, sizes, seed, golden, tally, tmp):
    """One untraced and two traced passes at workers=1, times scaled as in
    end_to_end. Times are the mean of the traced passes; counts come from the
    first and must repeat exactly in the second."""
    cpus = workload_cpus(1)
    with pinned(cpus):
        clock = calibrate.SpeedClock(cpus)
        if workload in CLI_WORKLOADS:
            order = list(sizes[1])
            random.Random(seed).shuffle(order)
            done = cli_pass(order, 1, golden["cli"], tally, tmp, clock, pause=False)
            untraced = [(c.wall_s, c.factor) for c in done]
            runs = []
            for _ in range(2):
                done = cli_pass(order, 1, golden["cli"], tally, tmp, clock, trace_dir=tmp)
                dumps = [_read_trace(tmp / f"trace.{n}.json") for n in range(len(order))]
                runs.append([(dump, c.wall_s, c.factor) for dump, c in zip(dumps, done)])
        else:
            result, _ = run_batch(batch_argv(sizes, seed, 0, max_passes=1), golden["batch"], tally, tmp)
            untraced = [(p["wall_s"], p["factor"]) for p in result["passes"]]
            runs = []
            for _ in range(2):
                out = tmp / "trace.batch.json"
                result, _ = run_batch(batch_argv(sizes, seed, 0, trace_out=out), golden["batch"], tally, tmp)
                p = result["passes"][0]
                runs.append([(_read_trace(out), p["wall_s"], p["factor"])])

    (first, counts_a), (second, counts_b) = [tracing.summarize(run) for run in runs]
    repeat_ok = counts_a == counts_b
    if not repeat_ok:
        moved = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
        tally.reasons.append(f"trace counts moved between two traced passes: {moved}")
    metrics = {
        name: value if isinstance(value, int) else (value + second[name]) / 2
        for name, value in first.items()
    }
    untraced_s = sum(wall * factor for wall, factor in untraced)
    traced_s = [sum(wall * factor for _, wall, factor in run) for run in runs]
    metrics["trace.overhead_frac"] = statistics.fmean(traced_s) / untraced_s - 1
    return metrics, {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s}, repeat_ok


def _read_trace(path: Path) -> dict:
    try:
        dump = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"a traced process left no trace: {err}")
    path.unlink()
    return dump


# ---------------------------------------------------------------------------
# Provenance and output


def provenance() -> dict:
    def git_sha():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                name = ref[5:]
                loose = ROOT / ".git" / name
                if loose.is_file():
                    return loose.read_text().strip()
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        return line.split()[0]
                return None
            return ref
        except OSError:
            return None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    sources = hashlib.sha256()
    for path in sorted((SRC / "isopencil").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def load_contract() -> tuple[dict, dict]:
    try:
        contract = json.loads(CONTRACT.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {CONTRACT.name}: {err}")
    units = lambda key: {m["name"]: m["unit"] for m in contract[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def check_checkout() -> dict:
    if not (SRC / "isopencil" / "__init__.py").is_file():
        raise BenchError(f"no isopencil sources under {SRC}; run from the root of a checkout")
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read the golden outputs {GOLDEN}: {err}")


def with_units(values: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(workload, seed, seconds, trace, smoke, golden, tmp) -> tuple[dict, dict, Tally, bool]:
    """Measure one workload: the end-to-end metrics, the per-layer ones, or
    (smoke) both on tiny inputs."""
    e2e_units, layer_units = load_contract()
    want_e2e, want_layers = smoke or not trace, smoke or trace
    if workload in CLI_WORKLOADS:
        sizes = (SMOKE_CLI_WORKLOADS if smoke else CLI_WORKLOADS)[workload]
    else:
        sizes = SMOKE_BATCH if smoke else BATCH
    golden_sets = {"cli": golden["cli"], "batch": golden["batch"]["smoke" if smoke else "full"]}
    tally = Tally()
    values, extra, units, repeat_ok = {}, {}, {}, True
    if want_e2e:
        probes = SMOKE_SETUP_PROBES if smoke else SETUP_PROBES
        max_passes = 1 if smoke else 1_000_000
        e2e, more = end_to_end(workload, sizes, seed, seconds, golden_sets, tally, tmp, probes, max_passes)
        values.update(e2e)
        extra.update(more)
        units.update(e2e_units)
    if want_layers:
        layers, more, repeat_ok = per_layer(workload, sizes, seed, golden_sets, tally, tmp)
        values.update(layers)
        extra.update(more)
        units.update(layer_units)
    extra["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 0.0
    return with_units(values, units), extra, tally, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no timing bound, all metrics")
    parser.add_argument("--record-golden", action="store_true", help="rewrite perfbench/golden.json")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that every child process group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        if args.record_golden:
            if not (SRC / "isopencil" / "__init__.py").is_file():
                raise BenchError(f"no isopencil sources under {SRC}")
            tmp.mkdir(parents=True, exist_ok=True)
            record_golden(tmp)
            return 0
        golden = check_checkout()
        load_contract()
        if args.workload is None:
            if not args.smoke:
                parser.error("--workload is required unless --smoke is given")
            args.workload = "all"
        if args.workload == "all" and not args.smoke:
            parser.error("--workload all needs --smoke")
        tmp.mkdir(parents=True, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        info = provenance()
        correct, attempted, failed, merged = True, 0, 0, {}
        for name in names:
            metrics, extra, tally, repeat_ok = run_one(
                name, args.seed, args.seconds, args.trace, args.smoke, golden, tmp
            )
            for reason in tally.reasons:
                print(f"{name}: {reason}", file=sys.stderr)
            correct = correct and tally.failed == 0 and repeat_ok
            attempted += tally.attempted
            failed += tally.failed
            report = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke, "provenance": info,
                "metrics": metrics, "extra": extra,
            }
            print(json.dumps({"report": report}))
            prefix = f"{name}/" if len(names) > 1 else ""
            merged.update({prefix + key: value for key, value in metrics.items()})
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
        return 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def record_golden(tmp: Path) -> None:
    """Digest the stdout of every invocation and batch answer at this commit."""
    golden = {"cli": {}, "batch": {}}
    for table in (CLI_WORKLOADS, SMOKE_CLI_WORKLOADS):
        for workers, invocations in table.values():
            for args in invocations:
                child = run_child([PYTHON, "-m", "isopencil.cli", *args], child_env(workers), tmp)
                if child.code != 0:
                    raise BenchError(f"{cli_key(args)} exited {child.code}: {child.stderr}")
                golden["cli"][cli_key(args)] = digest(child.stdout)
    for label, sizes in (("full", BATCH), ("smoke", SMOKE_BATCH)):
        child = run_child(batch_argv(sizes, 0, 0, record=True), child_env(1), tmp)
        if child.code != 0:
            raise BenchError(f"batch recording failed: {child.stderr}")
        result = json.loads(child.stdout)
        if result["failed"]:
            raise BenchError(f"batch recording: {result['failed']} requests failed: {result['errors']}")
        golden["batch"][label] = {"pool_digest": result["pool_digest"], "outputs": result["outputs"]}
    golden["recorded_from"] = provenance()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
