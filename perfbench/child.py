"""Processes the benchmark starts: a traced CLI call and the batch caller.

    python3 perfbench/child.py cli TRACE_OUT ARGS...
        Run `isopencil ARGS...` with the tracer installed, then write the
        spans and counts to TRACE_OUT. Stdout is the CLI's stdout.

    python3 perfbench/child.py batch --seed N ...
        A long-lived library caller: build a pool of cover pairs with
        `enumerate_covers`, draw requests from it by seed and answer them in a
        closed loop with one client. Prints one JSON object on stdout.

Both expect `src/` of the checkout on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec_key(spec: dict) -> str:
    return digest(json.dumps(spec, sort_keys=True, separators=(",", ":")).encode())[:16]


def run_cli(trace_out: str, argv: list[str]) -> int:
    import isopencil.cli

    tracer = tracing.install()
    code = isopencil.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(trace_out)
    return code


def build_pool(max_order: int, genera: range, size: int) -> list[dict]:
    """`size` cover pairs over one group each, both curves of genus >= 2.

    The covers come from `enumerate_covers` over every group of order up to
    `max_order`, on rational and elliptic bases. Which pairs are kept depends
    only on their content (the smallest content hashes), never on the order in
    which the enumerator yields covers.
    """
    from isopencil import enumerate_covers, make_sandwich, sandwich_record
    from isopencil.atlas import abelian_groups_up_to
    from isopencil.specfile import cover_record

    ranked = []
    for group in abelian_groups_up_to(max_order):
        found = [
            cover
            for base in (0, 1)
            for genus in genera
            for cover in enumerate_covers(group, base, genus=genus)
        ]
        keyed = [
            (json.dumps(cover_record(cover), sort_keys=True).encode(), cover) for cover in found
        ]
        prefix = repr(group.factors).encode()
        for text_f, cover_f in keyed:
            for text_d, cover_d in keyed:
                rank = hashlib.sha256(prefix + text_f + b"|" + text_d).digest()[:8]
                ranked.append((rank, cover_f, cover_d))
    ranked.sort(key=lambda item: item[0])
    return [sandwich_record(make_sandwich(f, d)) for _, f, d in ranked[:size]]


def run_batch(args) -> int:
    deadline = time.perf_counter() + args.seconds
    from isopencil import render, sandwich, specfile

    pool = build_pool(args.max_order, range(2, args.max_genus + 1), args.pool_size)
    keys = [spec_key(spec) for spec in pool]
    if args.record:
        order = list(range(len(pool)))
    else:
        rng = random.Random(args.seed)
        order = [rng.randrange(len(pool)) for _ in range(args.requests)]

    def one_pass(fns, latencies, seen, uses, errors):
        parse, invariants, render_invariants = fns
        failed = 0
        for index in order:
            t0 = time.perf_counter_ns()
            try:
                text = render_invariants(invariants(parse(pool[index])), "json")
            except Exception as err:  # a failed request is counted, not fatal
                latencies.append(time.perf_counter_ns() - t0)
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{keys[index]}: {type(err).__name__}: {err}")
                continue
            latencies.append(time.perf_counter_ns() - t0)
            out = digest(text.encode())
            key = keys[index]
            if seen.setdefault(key, out) != out:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{key}: answer differs from the first answer to this spec")
                continue
            uses[key] = uses.get(key, 0) + 1
        return failed

    def fns():
        return specfile.parse_sandwich, sandwich.invariants, render.render_invariants

    if not args.record:
        one_pass(fns(), [], {}, {}, [])
    clock = calibrate.SpeedClock(os.sched_getaffinity(0))

    tracer = tracing.install() if args.trace_out else None
    seen: dict[str, str] = {}
    uses: dict[str, int] = {}
    errors: list[str] = []
    passes, failed = [], 0
    while True:
        latencies: list[int] = []
        cpu0, start = time.process_time(), time.perf_counter()
        failed += one_pass(fns(), latencies, seen, uses, errors)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "factor": clock.factor(), "latencies_ns": latencies,
        })
        if args.record or tracer is not None or len(passes) >= args.max_passes:
            break
        if time.perf_counter() + wall > deadline:
            break
    if tracer is not None:
        tracer.dump(args.trace_out)
    result = {
        "pool_digest": digest("\n".join(sorted(keys)).encode()),
        "outputs": seen,
        "uses": uses,
        "failed": failed,
        "errors": errors,
        "passes": passes,
        "slices": clock.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    sys.stdout.write(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return run_cli(argv[1], argv[2:])
    parser = argparse.ArgumentParser(prog="child.py batch")
    parser.add_argument("mode", choices=["batch"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--max-order", type=int, required=True)
    parser.add_argument("--max-genus", type=int, required=True)
    parser.add_argument("--pool-size", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--max-passes", type=int, default=1_000_000)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--record", action="store_true", help="answer every pool spec once")
    return run_batch(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
