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

from .exceptions import ConfigError, NumericalError

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV_VAR = "DELTAVAR_THREADS"
LBFGS_MEMORY = 10  # curvature pairs the L-BFGS recursion keeps


def thread_count() -> int:
    """Worker pool size: DELTAVAR_THREADS (a positive integer) or the cores."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return os.cpu_count() or 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(
            f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw)


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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def ridged_cholesky(matrices: np.ndarray, what: str):
    """Cholesky factors of a stack of matrices (m, d, d), each ridged as
    matrix + reg * I, and the regs (m,) used: 0 first, then 1e-12 times the
    mean absolute diagonal (or 1), growing tenfold. The whole stack is
    factored unridged in one call, the common case; if any matrix fails,
    each is ridged on its own, with the bits of its own factorization."""
    matrices = np.asarray(matrices, dtype=np.float64)
    regs = np.zeros(len(matrices))
    try:
        return np.linalg.cholesky(matrices), regs
    except np.linalg.LinAlgError:
        pass
    factors, eye = np.empty_like(matrices), np.eye(matrices.shape[-1])
    for i, matrix in enumerate(matrices):
        scale = float(np.abs(np.diag(matrix)).mean()) or 1.0
        for _ in range(16):
            try:
                factors[i] = np.linalg.cholesky(matrix + regs[i] * eye)
                break
            except np.linalg.LinAlgError:
                regs[i] = 1e-12 * scale if regs[i] == 0.0 else regs[i] * 10.0
        else:
            raise NumericalError(f"{what} cannot be regularized into a "
                                 "positive definite matrix")
    return factors, regs


class NewtonResult(NamedTuple):
    """Where the solve of one problem stopped; not converged only at the
    cap."""
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    grad_norm: float


class NewtonStack(NamedTuple):
    """Where damped_newton stopped, one entry per problem: x (K, d), the
    other fields (K,)."""
    x: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    grad_norm: np.ndarray

    def row(self, i: int) -> NewtonResult:
        """Problem i, as plain Python scalars."""
        return NewtonResult(self.x[i], float(self.value[i]),
                            int(self.iterations[i]), bool(self.converged[i]),
                            float(self.grad_norm[i]))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i of each row pair of a and b (m, d), with the bits of a
    1-d a_i @ b_i (a stacked matmul makes one dot call per row)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the bits of np.linalg.norm."""
    return np.sqrt(_row_dots(g, g))


_HALVES = 0.5 ** np.arange(60)  # the step sizes tried per acceptance rule
_RULES = 2 * _HALVES.size  # trial index past the gradient-norm rule


def damped_newton(evaluate, x0, max_iter: int, grad_tol: float = 0.0,
                  rel_tol: float | None = None) -> NewtonStack:
    """Minimize K independent problems from the rows of x0 (K, d) by
    accept-only damped Newton steps.

    evaluate(x, rows) returns the values (m,), gradients (m, d) and step
    matrices (m, d, d) of problems rows (m,) at the points x (m, d), a
    value non-finite outside the domain. One call carries one trial point
    of every problem still searching. No row may depend on another: a
    problem then takes the same steps, bit for bit, in any stack.

    Per problem: the step matrix is ridged until Cholesky succeeds. A step
    t * direction (t halving from 1) is accepted only if it lowers the value
    or, once the predicted decrease no longer resolves in float64, the
    gradient norm. A full step that lowered the value doubles while the
    value keeps falling, so an optimum at infinity in log space takes a few
    iterations, not one per unit. A problem stops at gradient norm <=
    grad_tol, on an accepted step that lowered the value by at most rel_tol
    times its magnitude (if given), when no step makes progress, or after
    max_iter steps.

    One-problem fits (training a convex model, the correlation fine-tune,
    the adversarial retrain) run as a stack of one. The stack's array
    bookkeeping then costs about 45 us per trial point on a 1-d problem,
    against about 17 us for the same rules written on scalars
    (tests/newton_reference.py, the tests' reference for these rules;
    Python 3.11, numpy 2.4, one core of a shared 2-core machine).
    """
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x0 must be (problems, dimension), got {x.shape}")
    k = x.shape[0]
    value, grad, matrix = (np.array(a, dtype=np.float64)
                           for a in evaluate(x, np.arange(k)))
    if not _usable(value, grad, matrix).all():
        raise NumericalError("the starting point lies outside its domain")
    gnorm = _row_norms(grad)
    iterations = np.full(k, max_iter)
    converged = np.zeros(k, dtype=bool)
    run = np.arange(k)  # the problems still running
    for it in range(max_iter):
        done = gnorm[run] <= grad_tol
        if done.any():
            iterations[run[done]], converged[run[done]] = it, True
            run = run[~done]
        if not run.size:
            break
        chol, _ = ridged_cholesky(matrix[run], "the Newton step matrix")
        half = np.linalg.solve(chol, grad[run][..., None])
        direction = -np.linalg.solve(np.swapaxes(chol, 1, 2), half)[..., 0]
        t, cand = _line_search(evaluate, run, x, direction, value, gnorm,
                               grad, matrix)
        stuck = np.isnan(t)  # no step makes progress: at the optimum
        if stuck.any():
            iterations[run[stuck]], converged[run[stuck]] = it, True
            run, t, cand, direction = (a[~stuck] for a in (run, t, cand,
                                                            direction))
        previous = value[run]
        x[run] = x[run] + t[:, None] * direction
        value[run] = cand
        gnorm[run] = _row_norms(grad[run])
        if rel_tol is not None:
            done = previous - cand <= rel_tol * np.abs(previous)
            if done.any():
                iterations[run[done]], converged[run[done]] = it + 1, True
                run = run[~done]
    converged[run] = gnorm[run] <= grad_tol
    return NewtonStack(x, value, iterations, converged, gnorm)


def _line_search(evaluate, run, x, direction, value, gnorm, grad, matrix):
    """damped_newton's step sizes along direction (m, d) for the problems
    run (m,): each accepted t (nan where none passes) and the value there.
    An accepted trial's gradient and step matrix go straight into grad and
    matrix, the direction being set already."""
    m, halvings = run.size, _HALVES.size
    x0, value0, gnorm0 = x[run], value[run], gnorm[run]
    slope = _row_dots(grad[run], direction)
    # trial j < 60 tries t = 0.5**j by value, 60 <= j < 120 by gradient
    # norm. The value rule tries only the t whose predicted decrease still
    # resolves in float64: a prefix of the halvings, as the decrease shrinks.
    resolving = (value0[:, None] + 0.5 * _HALVES * slope[:, None]
                 < value0[:, None]).sum(axis=1)
    trial = np.where(resolving == 0, halvings, 0)
    t, cand = np.full(m, math.nan), np.empty(m)
    todo = np.arange(m)
    while todo.size:
        tr = trial[todo]
        step = _HALVES[tr % halvings]
        c_value, c_grad, c_matrix = evaluate(
            x0[todo] + step[:, None] * direction[todo], run[todo])
        by_value = tr < halvings
        ok = c_value < value0[todo]
        if not by_value.all():  # the gradient rule only where it applies
            ok = np.where(by_value, ok, _row_norms(c_grad) < gnorm0[todo])
        ok &= _usable(c_value, c_grad, c_matrix)
        if ok.all():  # the common case: every row accepts this trial
            t[todo], cand[todo] = step, c_value
            grad[run[todo]], matrix[run[todo]] = c_grad, c_matrix
            break
        if ok.any():
            won = todo[ok]
            t[won], cand[won] = step[ok], c_value[ok]
            grad[run[won]], matrix[run[won]] = c_grad[ok], c_matrix[ok]
            todo, tr = todo[~ok], tr[~ok]
        tr += 1
        tr[tr == resolving[todo]] = halvings
        trial[todo] = tr
        todo = todo[tr < _RULES]
    # a full step accepted by value doubles while the value keeps falling
    grow = np.flatnonzero(trial == 0)
    while grow.size:
        step = 2.0 * t[grow]
        c_value, c_grad, c_matrix = evaluate(
            x0[grow] + step[:, None] * direction[grow], run[grow])
        ok = _usable(c_value, c_grad, c_matrix) & (c_value < cand[grow])
        won = grow[ok]
        t[won], cand[won] = step[ok], c_value[ok]
        grad[run[won]], matrix[run[won]] = c_grad[ok], c_matrix[ok]
        grow = won[step[ok] < 2.0 ** 60]
    return t, cand


def _usable(value, grad, matrix) -> np.ndarray:
    """Rows with a finite value, gradient and step matrix."""
    return (np.isfinite(value) & np.isfinite(grad).all(axis=1)
            & np.isfinite(matrix).all(axis=(1, 2)))


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
