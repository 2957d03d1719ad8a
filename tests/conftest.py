"""Shared numerical oracles for the test suite.

Central finite differences are the independent check for every analytic or
tape gradient; keeping them here makes each test's oracle route explicit.
"""
from __future__ import annotations

import numpy as np
from hypothesis import settings

# Property tests replay the same examples on every run (no example database,
# no wall-clock deadline), so the suite stays deterministic and its time
# bounded.
settings.register_profile("deltavar", derandomize=True, database=None,
                          deadline=None, max_examples=30)
settings.load_profile("deltavar")


def central_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def central_diff_hessian(grad_fn, x, h: float = 1e-5) -> np.ndarray:
    """Finite differences of a gradient function: H[:, i] = d grad / d x_i."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    hess = np.empty((d, d))
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        hess[:, i] = (grad_fn(xp) - grad_fn(xm)) / (2.0 * h)
    return hess


def rel_err(approx, exact) -> float:
    """Max relative error, guarded for near-zero exact values."""
    approx = np.atleast_1d(np.asarray(approx, dtype=np.float64))
    exact = np.atleast_1d(np.asarray(exact, dtype=np.float64))
    scale = np.maximum(np.abs(exact), 1e-300)
    return float(np.max(np.abs(approx - exact) / scale))
