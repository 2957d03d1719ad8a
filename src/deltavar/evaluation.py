"""Quality metrics for variance predictors: retention AUC, correlation, and
Laplace log-likelihood with a fitted two-parameter noise decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, StructuralError
from .util import as_float_array, damped_newton


@dataclass(frozen=True)
class LaplaceCalibration:
    """Noise decomposition 2b^2 = alpha + beta * nu for a Laplace likelihood.

    alpha absorbs input-independent (aleatoric) error, beta scales the
    predicted epistemic variance. Fit on a validation split, never on the
    split being scored. `iterations` and `converged` describe the fit.
    """

    alpha: float
    beta: float
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise StructuralError("alpha must be finite and nonnegative")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise StructuralError("beta must be finite and nonnegative")


def retention_curve(errors, variances) -> np.ndarray:
    """Mean error of the points left after removing the k highest-variance
    points (ties broken by index), for k = 0..N-1."""
    e = as_float_array(errors)
    v = as_float_array(variances)
    if e.shape != v.shape or e.ndim != 1:
        raise StructuralError("errors and variances must be equal-length vectors")
    if e.size < 2:
        raise StructuralError("retention curve needs at least two points")
    order = np.argsort(-v, kind="stable")
    suffix_sums = np.cumsum(e[order][::-1])[::-1]
    return suffix_sums / np.arange(e.size, 0, -1, dtype=np.float64)


def retention_auc(errors, variances) -> float:
    """Area under the retention curve as high-variance points are removed.

    The curve starts at the full mean error with nothing removed and is
    integrated by the trapezoidal rule over the removed fraction k/N for
    k = 0..N-1. Lower is better when the variances rank the errors well.
    """
    means = retention_curve(errors, variances)
    # uniform spacing 1/n over fractions removed 0 .. (n-1)/n
    inner = float(np.sum(means[1:-1]))
    return (inner + 0.5 * (means[0] + means[-1])) / means.size


def error_correlation(errors, stddevs) -> float:
    """Pearson correlation between absolute errors and predicted deviations."""
    e = np.abs(as_float_array(errors))
    s = as_float_array(stddevs)
    if e.shape != s.shape or e.ndim != 1 or e.size < 2:
        raise StructuralError("need two equal-length series of at least 2 points")
    ec = e - e.mean()
    sc = s - s.mean()
    denom = math.sqrt(float(ec @ ec) * float(sc @ sc))
    if denom == 0.0:
        raise NumericalError("correlation undefined: a series is constant")
    return float(ec @ sc) / denom


def laplace_logp(abs_err, nu, calib: LaplaceCalibration) -> np.ndarray:
    """Per-point log densities of laplace_loglik, from |y - mu|."""
    two_b_sq = calib.alpha + calib.beta * nu
    if np.any(two_b_sq <= 0.0):
        raise NumericalError("alpha + beta*nu must be positive everywhere")
    b = np.sqrt(two_b_sq / 2.0)
    return -np.log(2.0 * b) - abs_err / b


def laplace_loglik(y, mu, nu, calib: LaplaceCalibration) -> float:
    """Mean log density of y under Laplace(mu, b) with 2b^2 = alpha + beta*nu."""
    yv = as_float_array(y)
    mv = as_float_array(mu)
    nv = as_float_array(nu)
    if not (yv.shape == mv.shape == nv.shape):
        raise StructuralError("y, mu and nu must share a shape")
    return float(np.mean(laplace_logp(np.abs(yv - mv), nv, calib)))


def laplace_scale_nll(abs_err: np.ndarray, columns: np.ndarray,
                      log_weights: np.ndarray, offset=0.0):
    """Mean Laplace negative log densities of K problems with
    2b^2 = offset + columns @ w, w = exp(log_weights): abs_err (K, n),
    columns (K, n, k), log_weights (K, k), offset a scalar or (K, n).
    Returns the values (K,), +inf where undefined, and the gradients (K, k)
    and exact Hessians (K, k, k) in log_weights. The stacked matmuls make
    one BLAS call per problem, so each row has the bits of its problem
    alone. The calibration uses columns [1, nu], the block scale fit
    [per-block variances, 1]."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        parts = columns * np.exp(log_weights)[:, None, :]  # dv / dlog w
        v = offset + parts.sum(axis=2)
        n = v.shape[1]
        # per point: 0.5 log(2v) + 2q with q = |err| / (2b) = |err| / sqrt(2v)
        inv_v = 1.0 / v
        q = abs_err * np.sqrt(0.5 * inv_v)
        value = np.mean(0.5 * np.log(2.0 * v) + 2.0 * q, axis=1)
        # d value_i / dv_i, summed against dv / dlog w
        grad = ((inv_v * (0.5 - q))[:, None, :] @ parts)[:, 0, :] / n
        d2 = inv_v * inv_v * (1.5 * q - 0.5) / n
        hess = np.swapaxes(parts, 1, 2) @ (d2[:, :, None] * parts)
        diag = np.arange(parts.shape[2])
        hess[:, diag, diag] += grad
    value[~np.isfinite(value)] = math.inf
    return value, grad, hess


def fit_log_weights(evaluate, x0, max_iter: int, baseline=None):
    """damped_newton from the rows of x0 (K, k) with a 1e-10
    relative-decrease stop; returns the stacked result and the values at
    the baselines (default x0), which replace any row's result that scores
    worse."""
    x0 = np.asarray(x0, dtype=np.float64)
    base = x0 if baseline is None else np.asarray(baseline, dtype=np.float64)
    start = evaluate(base, np.arange(len(base)))[0]
    result = damped_newton(evaluate, x0, max_iter, rel_tol=1e-10)
    worse = ~(result.value <= start)
    result.x[worse], result.value[worse] = base[worse], start[worse]
    return result, start


def fit_laplace_calibration(y, mu, nu, steps: int = 2000
                            ) -> list[LaplaceCalibration]:
    """Fit (alpha, beta) of K problems by damped Newton in log space (at
    most `steps` iterations) on the exact Hessian of the mean Laplace log
    density: y, mu and nu are (K, n), and the K calibrations, solved as one
    stack, come back as a list, each with the bits of its fit alone.

    Starts from the homoscedastic scale estimate for alpha and a tiny
    positive beta. Each calibration never scores worse than its own
    starting point on the data it was fit to.
    """
    abs_err = np.abs(as_float_array(y) - as_float_array(mu))
    nv = as_float_array(nu)
    if abs_err.shape != nv.shape or abs_err.ndim != 2:
        raise StructuralError("y, mu and nu must share a (problems, points) "
                              f"shape, got {abs_err.shape} and {nv.shape}")
    if abs_err.shape[1] < 2:
        raise StructuralError("need at least two calibration points")
    if np.any(nv < 0.0):
        raise StructuralError("variances must be nonnegative")

    x0 = []
    for err_mean, nu_mean in zip(abs_err.mean(axis=1), nv.mean(axis=1)):
        alpha = max(2.0 * float(err_mean) ** 2, 1e-12)
        x0.append([math.log(alpha),
                   math.log(1e-6 * alpha / (float(nu_mean) + 1e-30))])
    columns = np.concatenate([np.ones(abs_err.shape + (1,)), nv[:, :, None]],
                             axis=2)
    fit, _ = fit_log_weights(
        lambda x, rows: laplace_scale_nll(abs_err[rows], columns[rows], x),
        x0, steps)
    return [LaplaceCalibration(alpha=math.exp(x[0]), beta=math.exp(x[1]),
                               iterations=int(its), converged=bool(conv))
            for x, its, conv in zip(fit.x, fit.iterations, fit.converged)]


def improvement(score: float, reference_score: float,
                higher_is_better: bool = True) -> float:
    """Signed gap to a reference method; positive always means better."""
    gap = score - reference_score
    return gap if higher_is_better else -gap


def standard_error(values) -> float:
    """Standard error of the mean of a sample."""
    v = as_float_array(values)
    if v.size < 2:
        raise StructuralError("standard error needs at least two values")
    return float(v.std(ddof=1)) / math.sqrt(v.size)
