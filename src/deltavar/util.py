"""Small shared helpers: thread pool sizing, deterministic json, seeding."""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV_VAR = "DELTAVAR_THREADS"


def thread_count() -> int:
    """Worker pool size: DELTAVAR_THREADS if set, else the logical core count."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def ordered_parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map fn over items on the shared pool, results in input order.

    Work items must be independent; output order (and therefore every
    downstream reduction) does not depend on the pool size.
    """
    items = list(items)
    workers = min(thread_count(), max(len(items), 1))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n independent child seeds derived deterministically from one master seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


def stable_json_dumps(obj) -> str:
    """json.dumps with sorted keys and no whitespace drift, for byte-stable files."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def format_float(x: float) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def as_float_array(x, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray, rejecting non-finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr
