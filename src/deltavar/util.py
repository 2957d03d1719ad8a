"""Small shared helpers: thread pool sizing, deterministic json, seeding,
the damped-Newton solver behind every convex fit and the L-BFGS solver
behind the mlp polish."""
from __future__ import annotations

import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .exceptions import NumericalError

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV_VAR = "DELTAVAR_THREADS"
LBFGS_MEMORY = 10  # curvature pairs the L-BFGS recursion keeps


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


def lbfgs(evaluate, x0, max_iter: int, grad_tol: float = 0.0) -> NewtonResult:
    """Minimize from x0 by limited-memory BFGS (Liu & Nocedal 1989).

    evaluate(x) returns (value, gradient), the value non-finite outside the
    domain. The direction is the two-loop recursion over the last
    LBFGS_MEMORY pairs (s, y), a pair kept only when s'y > 0. A direction
    that admits no step is retried as steepest descent, memory cleared.
    Steps are accepted as in damped_newton (see _backtrack). Stops at
    gradient norm <= grad_tol, when steepest descent admits no step either,
    or after max_iter steps.
    """
    x = np.array(x0, dtype=np.float64)
    value, grad = evaluate(x)
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        raise NumericalError("the starting point lies outside its domain")
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            return NewtonResult(x, value, it, True, gnorm)
        q, alphas = grad.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        if pairs:  # initial inverse Hessian s'y / y'y of the newest pair
            q /= pairs[-1][2] * float(pairs[-1][1] @ pairs[-1][1])
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * float(y @ q)) * s
        step = _backtrack(evaluate, x, value, grad, -q)
        if step is None and pairs:
            pairs.clear()
            step = _backtrack(evaluate, x, value, grad, -grad)
        if step is None:
            return NewtonResult(x, value, it, False, gnorm)
        s, value, new_grad = step
        y = new_grad - grad
        if float(s @ y) > 0.0:
            pairs.append((s, y, 1.0 / float(s @ y)))
        x, grad = x + s, new_grad
    gnorm = float(np.linalg.norm(grad))
    return NewtonResult(x, value, max_iter, gnorm <= grad_tol, gnorm)


def _backtrack(evaluate, x, value, grad, direction):
    """(step, value, gradient) at the first accepted t * direction, t
    halving from 1, or None: an Armijo decrease, or a lower gradient norm
    once that decrease no longer resolves in float64."""
    slope, gnorm = float(grad @ direction), float(np.linalg.norm(grad))
    for t in (0.5 ** k for k in range(60)):
        required = value + 1e-4 * t * slope
        cand_value, cand_grad = evaluate(x + t * direction)
        if (math.isfinite(cand_value) and np.isfinite(cand_grad).all() and (
                cand_value <= required if required < value
                else float(np.linalg.norm(cand_grad)) < gnorm)):
            return t * direction, cand_value, cand_grad
    return None
