"""Fail a CI step unless perfbench/run.py reported correct output.

    python3 perfbench/run.py --smoke | python3 .github/check_perfbench.py

run.py exits 0 even when its last stdout line says "correct": false, so this
reads that line and exits 1 unless it has "correct": true and "failed": 0.
The whole output is echoed first, for the log.
"""

import json
import sys

lines = sys.stdin.read().splitlines()
sys.stdout.write("\n".join(lines) + "\n")
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    sys.exit("perfbench printed no JSON result line")
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench result is not correct: true, failed: 0 (correct={result.get('correct')!r}, failed={result.get('failed')!r})")
print("perfbench result: correct: true, failed: 0")
