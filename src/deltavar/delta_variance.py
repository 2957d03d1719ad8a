"""The quadratic-form variance estimator and per-block scale fine-tuning.

Given the parameter gradient Delta of a scalar quantity and a covariance
surrogate Sigma, the predicted epistemic variance is Delta' Sigma Delta. When
Sigma respects the model's parameter blocks the form splits into per-block
contributions, and positive per-block factors can be fit on validation data
without touching the model again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceEstimate
from .evaluation import fit_log_weights, laplace_scale_nll
from .exceptions import NumericalError, StructuralError
from .util import as_float_array


@dataclass(frozen=True)
class GradientDelta:
    """Parameter gradient of one scalar quantity at one input.

    `source` names the quantity and `input_id` the evaluation point; both are
    free-form labels for the caller, and nothing in the package reads them.
    """

    vector: np.ndarray
    source: str = ""
    input_id: str = ""

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise StructuralError("gradient must be a nonempty vector")
        if not np.logical_and.reduce(np.isfinite(vec)):
            raise NumericalError("gradient contains non-finite entries")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


def delta_variance(delta: GradientDelta, sigma: CovarianceEstimate) -> float:
    """The quadratic form Delta' Sigma Delta, exact: the one-row call of
    sigma.quadratic_forms, which refuses a raw (not inverted) curvature."""
    return float(sigma.quadratic_forms(delta.vector))


def block_variances(deltas, sigma: CovarianceEstimate) -> np.ndarray:
    """Per-block contributions of the quadratic form: (B, n_blocks) for a
    (B, d) stack, in block order, each column the quadratic_forms of one of
    sigma.diagonal_blocks(), so each row sums to its delta_variance."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 2 or deltas.shape[1] != sigma.dim:
        raise StructuralError(f"gradients have shape {deltas.shape} but "
                              f"sigma has dimension {sigma.dim}")
    return np.stack([part.quadratic_forms(deltas[:, start:start + n])
                     for part, (_, start, n) in zip(sigma.diagonal_blocks(),
                                                    sigma.blocks)], axis=1)


@dataclass(frozen=True)
class BlockScales:
    """Positive per-block factors, stored as exponentials of free parameters.

    `steps_taken` counts the solver's iterations and `converged` says
    whether it stopped before its iteration cap.
    """

    names: tuple
    log_scales: np.ndarray
    objective: str = ""
    objective_value: float = math.nan
    objective_at_init: float = math.nan
    steps_taken: int = 0
    converged: bool = True

    def __post_init__(self):
        ls = as_float_array(self.log_scales)
        if ls.shape != (len(self.names),):
            raise StructuralError("one log-scale per block name is required")
        object.__setattr__(self, "log_scales", ls)
        object.__setattr__(self, "names", tuple(self.names))

    def as_dict(self) -> dict[str, float]:
        return {name: float(math.exp(ls))
                for name, ls in zip(self.names, self.log_scales)}


# weight of the quadratic penalty (penalty/2)|log scales|^2 in the correlation
# fine-tune: the correlation is scale-free, so without it a pure-noise
# block's scale runs to 0 and the others' to ~1e16
CORRELATION_PENALTY = 1e-3


def finetune_scales(matrix, names, targets, objective: str = "loglik",
                    steps: int = 500) -> BlockScales:
    """Fit per-block scale factors on cached validation contributions.

    `matrix` is the (points, blocks) block_variances of the validation
    gradients, `names` its block names in column order and `targets` the
    matching prediction errors. The objective is either the Laplace
    log-likelihood (with its aleatoric constant fit jointly, on the exact
    Hessian) or the error correlation (analytic gradient, identity step
    matrix). Both run the accept-only damped Newton solver in log space for
    at most `steps` iterations, so the result is never worse than the
    all-ones initialization (with alpha fit alone for loglik).
    The correlation fit adds CORRELATION_PENALTY/2 |log scales|^2 to the
    solved objective, which keeps its scale-free optimum finite;
    objective_value reports the plain correlation.
    """
    if objective not in ("loglik", "correlation"):
        raise StructuralError(f"unknown objective {objective!r}")
    matrix = np.asarray(matrix, dtype=np.float64)
    names = tuple(names)
    if matrix.ndim != 2 or matrix.shape[1] != len(names) or not names:
        raise StructuralError(
            f"block variances of shape {matrix.shape} need one column per "
            f"block name ({len(names)} given)")
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0):
        raise StructuralError("cached block variances must be finite and >= 0")
    errors = as_float_array(targets)
    if errors.shape != (matrix.shape[0],):
        raise StructuralError("one target error per cached point is required")
    n_points, n_blocks = matrix.shape
    if n_points < n_blocks:
        raise StructuralError(
            f"{n_points} validation points cannot determine {n_blocks} block "
            "scales; the fit is under-determined")

    abs_err = np.abs(errors)
    if objective == "loglik":
        # the joint fit (log scales, then log alpha) starts from the
        # homoscedastic alpha, not the settled one: an alpha settled near
        # zero has a vanishing log-space gradient and would stay there
        log_alpha0 = [math.log(max(2.0 * float(abs_err.mean()) ** 2, 1e-12))]
        unit_nu, ones = matrix.sum(axis=1), np.ones((1, n_points, 1))
        settled, _ = fit_log_weights(
            lambda x, rows: laplace_scale_nll(abs_err[None], ones, x,
                                              unit_nu[None]),
            [log_alpha0], steps)
        columns = np.concatenate([matrix[None], ones], axis=2)
        zeros = np.zeros(n_blocks)
        fit, start = fit_log_weights(
            lambda x, rows: laplace_scale_nll(abs_err[None], columns, x),
            [np.concatenate([zeros, log_alpha0])], steps,
            baseline=[np.concatenate([zeros, settled.x[0]])])
        fit = fit.row(0)
    else:
        fit, start = fit_log_weights(
            lambda x, rows: _neg_correlation(abs_err, matrix, x[0],
                                             CORRELATION_PENALTY),
            [np.zeros(n_blocks)], steps)
        # the penalty is 0 at the start and >= 0 elsewhere, so the plain
        # correlation at an accepted point never falls below the start's
        fit = fit.row(0)._replace(
            value=float(_neg_correlation(abs_err, matrix, fit.x[0])[0][0]))
    return BlockScales(names=names, log_scales=fit.x[:n_blocks],
                       objective=objective, objective_value=-fit.value,
                       objective_at_init=-float(start[0]),
                       steps_taken=fit.iterations,
                       converged=fit.converged)


def _neg_correlation(abs_err: np.ndarray, matrix: np.ndarray,
                     log_scales: np.ndarray, penalty: float = 0.0):
    """Minus the error_correlation of sqrt(matrix @ exp(log_scales)) plus
    (penalty/2)|log_scales|^2, its gradient and the step matrix
    (1 + penalty) I, as a stack of one problem: shapes (1,), (1, k) and
    (1, k, k); +inf and NaN where undefined."""
    parts = matrix * np.exp(log_scales)
    sd = np.sqrt(parts.sum(axis=1))
    ec, sc = abs_err - abs_err.mean(), sd - sd.mean()
    denom = math.sqrt(float(ec @ ec) * float(sc @ sc))
    step_matrix = (1.0 + penalty) * np.eye(log_scales.size)[None]
    if denom == 0.0:
        return (np.array([math.inf]), np.full((1, log_scales.size), math.nan),
                step_matrix)
    corr = float(ec @ sc) / denom
    d_sd = ec / denom - corr * sc / float(sc @ sc)
    # d sd_i / d log s_k = parts_ik / (2 sd_i); rows with sd_i = 0 never move
    d_rows = d_sd / (2.0 * np.where(sd > 0.0, sd, np.inf))
    return (np.array([0.5 * penalty * float(log_scales @ log_scales) - corr]),
            (penalty * log_scales - d_rows @ parts)[None], step_matrix)
