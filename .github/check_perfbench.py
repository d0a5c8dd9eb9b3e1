"""Fail a CI step unless perfbench/run.py reported correct output.

    python3 perfbench/run.py --smoke | python3 .github/check_perfbench.py
    python3 perfbench/run.py --workload sweep --seconds 1 --trace 1 \
        | python3 .github/check_perfbench.py sweep

run.py exits 0 even when its last stdout line says "correct": false, so this
reads that line and exits 1 unless it has "correct": true and "failed": 0.
The whole output is echoed first, for the log.

Given a workload name, it also compares every metric whose unit is count or
bytes with that workload's entry in perfbench_counts.json, beside this file,
and exits 1 on any difference. Those metrics count work (covers built,
automorphisms applied, bytes rendered), so they do not depend on the machine
and a change that keeps the work the same keeps them equal. A change that
means to alter the work records the new values in that file.
"""

import json
import sys
from pathlib import Path

lines = sys.stdin.read().splitlines()
sys.stdout.write("\n".join(lines) + "\n")
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    sys.exit("perfbench printed no JSON result line")
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench result is not correct: true, failed: 0 (correct={result.get('correct')!r}, failed={result.get('failed')!r})")
print("perfbench result: correct: true, failed: 0")

if len(sys.argv) > 1:
    workload = sys.argv[1]
    expected = json.loads((Path(__file__).parent / "perfbench_counts.json").read_text())[workload]
    got = {
        name: metric["value"]
        for name, metric in result.get("metrics", {}).items()
        if metric["unit"] in ("count", "bytes")
    }
    moved = [
        f"  {name}: expected {expected.get(name)!r}, got {got.get(name)!r}"
        for name in sorted(expected.keys() | got.keys())
        if expected.get(name) != got.get(name)
    ]
    if moved:
        sys.exit(f"{workload} work counts differ from perfbench_counts.json:\n" + "\n".join(moved))
    print(f"{workload} work counts: {len(got)} equal to perfbench_counts.json")
