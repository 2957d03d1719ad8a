"""Small shared helpers: thread pool sizing, deterministic json, seeding,
and the damped-Newton solver behind every small fit."""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .exceptions import NumericalError

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


def ridged_cholesky(matrix: np.ndarray, what: str):
    """Cholesky factor of matrix + reg * I and the reg used: 0 first, then
    1e-12 times the mean absolute diagonal (or 1), growing tenfold."""
    scale = float(np.abs(np.diag(matrix)).mean()) or 1.0
    reg, eye = 0.0, np.eye(matrix.shape[0])
    for _ in range(16):
        try:
            return np.linalg.cholesky(matrix + reg * eye), reg
        except np.linalg.LinAlgError:
            reg = 1e-12 * scale if reg == 0.0 else reg * 10.0
    raise NumericalError(f"{what} cannot be regularized into a positive "
                         "definite matrix")


class NewtonResult(NamedTuple):
    """Where damped_newton stopped; not converged only at the cap."""
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    grad_norm: float


def damped_newton(evaluate, x0, max_iter: int, grad_tol: float = 0.0,
                  rel_tol: float | None = None) -> NewtonResult:
    """Minimize from x0 by accept-only damped Newton steps.

    evaluate(x) returns (value, gradient, step matrix), the value non-finite
    outside the domain. The step matrix is ridged until Cholesky succeeds.
    A step t * direction (t halving from 1) is accepted only if it lowers
    the value or, once the predicted decrease no longer resolves in
    float64, the gradient norm. A full step that lowered the value doubles
    while the value keeps falling, so an optimum at infinity in log space
    takes a few iterations, not one per unit. Stops at gradient norm <=
    grad_tol, on an accepted step that lowered the value by at most rel_tol
    times its magnitude (if given), when no step makes progress, or after
    max_iter steps.
    """
    def usable(point):
        return (math.isfinite(point[0]) and point[1] is not None and bool(
            np.isfinite(point[1]).all() and np.isfinite(point[2]).all()))

    x = np.array(x0, dtype=np.float64)
    value, grad, matrix = evaluate(x)
    if not usable((value, grad, matrix)):
        raise NumericalError("the starting point lies outside its domain")
    gnorm = float(np.linalg.norm(grad))
    for it in range(max_iter):
        if gnorm <= grad_tol:
            return NewtonResult(x, value, it, True, gnorm)
        chol, _ = ridged_cholesky(matrix, "the Newton step matrix")
        direction = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        slope = float(grad @ direction)
        for by_grad, t in ((m, 0.5 ** k) for m in (False, True)
                           for k in range(60)):
            if not (by_grad or value + 0.5 * t * slope < value):
                continue  # the predicted decrease no longer resolves
            cand = evaluate(x + t * direction)
            if usable(cand) and (np.linalg.norm(cand[1]) < gnorm if by_grad
                                  else cand[0] < value):
                break
        else:
            return NewtonResult(x, value, it, True, gnorm)  # at the optimum
        while not by_grad and 1.0 <= t < 2.0 ** 60:
            more = evaluate(x + 2.0 * t * direction)
            if not (usable(more) and more[0] < cand[0]):
                break
            t, cand = 2.0 * t, more
        previous, x = value, x + t * direction
        value, grad, matrix = cand
        gnorm = float(np.linalg.norm(grad))
        if rel_tol is not None and previous - value <= rel_tol * abs(previous):
            return NewtonResult(x, value, it + 1, True, gnorm)
    return NewtonResult(x, value, max_iter, gnorm <= grad_tol, gnorm)
