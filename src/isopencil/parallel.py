"""The one place that maps a search over its independent cells.

Cells run in order in this process, so they share its caches (witnesses,
bounded branch parts, group tables). The module is kept only because the
benchmark's tracer (perfbench/tracer.py) wraps parallel_map to count cells;
it goes, and callers map directly, with the next change to the benchmark.
"""

__all__ = ["parallel_map"]


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], in order."""
    return [fn(item) for item in items]
