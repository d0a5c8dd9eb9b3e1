"""Deterministic fan-out over independent work cells."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence

from .errors import InvalidInputError

__all__ = ["WORKERS_ENV", "parallel_map", "resolve_workers"]

WORKERS_ENV = "ISOPENCIL_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Requested worker count, capped by the ISOPENCIL_WORKERS variable."""
    cap = None
    raw = os.environ.get(WORKERS_ENV, "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidInputError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if cap < 1:
            raise InvalidInputError(f"{WORKERS_ENV} must be >= 1, got {cap}")
    if workers is None:
        workers = cap if cap is not None else 1
    if not isinstance(workers, int) or workers < 1:
        raise InvalidInputError(f"worker count must be an integer >= 1, got {workers!r}")
    if cap is not None:
        workers = min(workers, cap)
    return workers


def parallel_map(fn: Callable, items: Iterable, workers: int) -> Sequence:
    """Map fn over items, preserving order; results match the sequential run."""
    cells = list(items)
    if workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    # Imported here: concurrent.futures costs every CLI process start-up time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(fn, cells))
