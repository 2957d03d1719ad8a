"""The damped-Newton rules of util.damped_newton, written for one problem
on scalars: the reference a stacked solve is checked against, bit for bit.

A step t * direction (t halving from 1) is accepted only if it lowers the
value or, once the predicted decrease no longer resolves in float64, the
gradient norm; a full step that lowered the value doubles while the value
keeps falling. The loop shares no bookkeeping with the stacked solver: no
trial index, no row masks, one point per evaluation.
"""
from __future__ import annotations

import math

import numpy as np

from deltavar.exceptions import NumericalError
from deltavar.util import NewtonResult, ridged_cholesky


def newton(evaluate, x, max_iter: int, grad_tol: float = 0.0,
           rel_tol: float | None = None) -> NewtonResult:
    """Minimize one problem from x (d,). evaluate(x) returns the value,
    gradient (d,) and step matrix (d, d), the value non-finite outside the
    domain."""
    def point(at):
        value, grad, matrix = evaluate(at)
        usable = bool(math.isfinite(value) and np.isfinite(grad).all()
                      and np.isfinite(matrix).all())
        return usable, float(value), np.asarray(grad), np.asarray(matrix)

    x = np.array(x, dtype=np.float64)
    usable, value, grad, matrix = point(x)
    if not usable:
        raise NumericalError("the starting point lies outside its domain")
    gnorm = float(np.linalg.norm(grad))
    for it in range(max_iter):
        if gnorm <= grad_tol:
            return NewtonResult(x, value, it, True, gnorm)
        chol, _ = ridged_cholesky(matrix[None], "the Newton step matrix")
        direction = -np.linalg.solve(chol[0].T,
                                     np.linalg.solve(chol[0], grad))
        slope = float(grad @ direction)
        for by_grad, t in ((r, 0.5 ** j) for r in (False, True)
                           for j in range(60)):
            if not (by_grad or value + 0.5 * t * slope < value):
                continue  # the predicted decrease no longer resolves
            cand = point(x + t * direction)
            if cand[0] and (np.linalg.norm(cand[2]) < gnorm if by_grad
                            else cand[1] < value):
                break
        else:
            return NewtonResult(x, value, it, True, gnorm)  # at the optimum
        while not by_grad and 1.0 <= t < 2.0 ** 60:
            more = point(x + 2.0 * t * direction)
            if not (more[0] and more[1] < cand[1]):
                break
            t, cand = 2.0 * t, more
        previous, x = value, x + t * direction
        _, value, grad, matrix = cand
        gnorm = float(np.linalg.norm(grad))
        if rel_tol is not None and previous - value <= rel_tol * abs(previous):
            return NewtonResult(x, value, it + 1, True, gnorm)
    return NewtonResult(x, value, max_iter, gnorm <= grad_tol, gnorm)


def one_of(evaluate, row: int):
    """The reference's evaluate(x) for problem `row` of a stacked
    evaluate(x, rows)."""
    rows = np.array([row])

    def single(x):
        value, grad, matrix = evaluate(x[None], rows)
        return value[0], grad[0], matrix[0]

    return single
