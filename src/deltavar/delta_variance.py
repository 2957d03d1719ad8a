"""The quadratic-form variance estimator and per-block scale fine-tuning.

Given the parameter gradient Delta of a scalar quantity and a covariance
surrogate Sigma, the predicted epistemic variance is Delta' Sigma Delta. When
Sigma respects the model's parameter blocks the form splits into per-block
contributions, and positive per-block factors can be fit on validation data
without touching the model again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .covariance import CovarianceEstimate
from .evaluation import LaplaceCalibration, error_correlation, laplace_loglik
from .exceptions import NumericalError, StructuralError
from .util import as_float_array


@dataclass(frozen=True)
class GradientDelta:
    """Parameter gradient of one scalar quantity at one input.

    `source` names the quantity and `input_id` the evaluation point; both are
    free-form labels carried into reports.
    """

    vector: np.ndarray
    source: str = ""
    input_id: str = ""

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise StructuralError("gradient must be a nonempty vector")
        if not np.all(np.isfinite(vec)):
            raise NumericalError("gradient contains non-finite entries")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


def delta_variance(delta: GradientDelta, sigma: CovarianceEstimate) -> float:
    """The quadratic form Delta' Sigma Delta; exact, no sampling.

    Sigma must already be a covariance (inverted); passing a raw Fisher or
    Hessian estimate is refused because the result would be a curvature form,
    not a variance. Nonnegative whenever Sigma is positive semidefinite.
    """
    if not sigma.inverted:
        raise StructuralError(
            "sigma is a raw curvature estimate; invert it into a covariance first")
    v = delta.vector
    if sigma.dim != v.size:
        raise StructuralError(
            f"gradient has dimension {v.size} but sigma has {sigma.dim}")
    if sigma.is_diagonal:
        return float(np.einsum("i,i,i->", v, sigma.values, v))
    return float(v @ (sigma.values @ v))


def _off_block_mask(dim: int, blocks) -> np.ndarray:
    mask = np.ones((dim, dim), dtype=bool)
    for _, start, length in blocks:
        mask[start:start + length, start:start + length] = False
    return mask


def block_decompose(delta: GradientDelta,
                    sigma: CovarianceEstimate) -> dict[str, float]:
    """Per-block contributions of the quadratic form, in block order.

    Requires Sigma to carry the parameter block layout and to be block
    diagonal (diagonals always are; full matrices must have exact zeros
    between blocks). The values sum to delta_variance.
    """
    if not sigma.inverted:
        raise StructuralError(
            "sigma is a raw curvature estimate; invert it into a covariance first")
    if not sigma.blocks:
        raise StructuralError("sigma carries no block layout")
    if sigma.dim != delta.dim:
        raise StructuralError(
            f"gradient has dimension {delta.dim} but sigma has {sigma.dim}")
    if not sigma.is_diagonal:
        off = _off_block_mask(sigma.dim, sigma.blocks)
        if np.any(sigma.values[off] != 0.0):
            raise StructuralError(
                "sigma has nonzero entries between blocks; "
                "the quadratic form does not split per block")
    out: dict[str, float] = {}
    for name, start, length in sigma.blocks:
        v = delta.vector[start:start + length]
        if sigma.is_diagonal:
            s = sigma.values[start:start + length]
            out[name] = float(np.einsum("i,i,i->", v, s, v))
        else:
            m = sigma.values[start:start + length, start:start + length]
            out[name] = float(v @ (m @ v))
    return out


@dataclass(frozen=True)
class BlockScales:
    """Positive per-block factors, stored as exponentials of free parameters."""

    names: tuple
    log_scales: np.ndarray
    objective: str = ""
    objective_value: float = math.nan
    objective_at_init: float = math.nan
    steps_taken: int = 0

    def __post_init__(self):
        ls = as_float_array(self.log_scales)
        if ls.shape != (len(self.names),):
            raise StructuralError("one log-scale per block name is required")
        object.__setattr__(self, "log_scales", ls)
        object.__setattr__(self, "names", tuple(self.names))

    def as_dict(self) -> dict[str, float]:
        return {name: float(math.exp(ls))
                for name, ls in zip(self.names, self.log_scales)}


@dataclass(frozen=True)
class FinetuneConfig:
    steps: int = 500
    step_size: float = 1e-2
    fd_step: float = 1e-5


def _stack_cached(cached: Sequence[Mapping[str, float]]):
    if len(cached) == 0:
        raise StructuralError("no cached validation points given")
    names = tuple(cached[0].keys())
    matrix = np.empty((len(cached), len(names)))
    for j, row in enumerate(cached):
        if tuple(row.keys()) != names:
            raise StructuralError("cached rows disagree on block names or order")
        matrix[j] = [row[name] for name in names]
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0):
        raise StructuralError("cached block variances must be finite and >= 0")
    return names, matrix


def finetune_scales(cached: Sequence[Mapping[str, float]], targets,
                    objective: str = "loglik",
                    cfg: FinetuneConfig | None = None) -> BlockScales:
    """Fit per-block scale factors on cached validation decompositions.

    `cached` holds one block_decompose mapping per validation point and
    `targets` the matching prediction errors. The objective is either the
    Laplace log-likelihood (with its aleatoric constant fit jointly) or the
    error correlation. Optimization is hill climbing along finite-difference
    gradients in log space; a step is kept only if it improves the objective,
    so the result is never worse than the all-ones initialization.
    """
    cfg = cfg or FinetuneConfig()
    if objective not in ("loglik", "correlation"):
        raise StructuralError(f"unknown objective {objective!r}")
    names, matrix = _stack_cached(cached)
    errors = as_float_array(targets)
    if errors.shape != (matrix.shape[0],):
        raise StructuralError("one target error per cached point is required")
    n_points, n_blocks = matrix.shape
    if n_points < n_blocks:
        raise StructuralError(
            f"{n_points} validation points cannot determine {n_blocks} block "
            "scales; the fit is under-determined")

    abs_err = np.abs(errors)
    zeros = np.zeros_like(abs_err)

    if objective == "loglik":
        # free parameters: per-block log scales, then log alpha
        def score(params):
            nu = matrix @ np.exp(params[:-1])
            calib = LaplaceCalibration(alpha=math.exp(params[-1]), beta=1.0)
            try:
                return laplace_loglik(abs_err, zeros, nu, calib)
            except NumericalError:
                return -math.inf

        alpha0 = max(2.0 * float(abs_err.mean()) ** 2, 1e-12)
        params = np.concatenate([np.zeros(n_blocks), [math.log(alpha0)]])
        # settle alpha alone before touching the scales
        params = _hill_climb(lambda p: score(p), params, cfg,
                             frozen=np.arange(n_blocks))[0]
    else:
        def score(params):
            nu = matrix @ np.exp(params)
            try:
                return error_correlation(abs_err, np.sqrt(nu))
            except NumericalError:
                return -math.inf

        params = np.zeros(n_blocks)

    value_at_init = score(params)
    params, value, steps = _hill_climb(score, params, cfg)
    log_scales = params[:n_blocks] if objective == "loglik" else params
    return BlockScales(names=names, log_scales=log_scales, objective=objective,
                       objective_value=value, objective_at_init=value_at_init,
                       steps_taken=steps)


def _hill_climb(score, params, cfg: FinetuneConfig, frozen=()):
    """Accept-only ascent along central-difference gradients in log space."""
    frozen = np.asarray(frozen, dtype=int)
    best = score(params)
    lr = cfg.step_size
    taken = 0
    for _ in range(cfg.steps):
        grad = np.zeros_like(params)
        for i in range(params.size):
            if i in frozen:
                continue
            bumped = params.copy()
            bumped[i] += cfg.fd_step
            hi = score(bumped)
            bumped[i] -= 2.0 * cfg.fd_step
            lo = score(bumped)
            grad[i] = (hi - lo) / (2.0 * cfg.fd_step)
        if not np.all(np.isfinite(grad)):
            break
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        cand = params + lr * grad / max(norm, 1.0)
        value = score(cand)
        taken += 1
        if math.isfinite(value) and value > best:
            params, best = cand, value
            lr = min(lr * 1.5, 1.0)
        else:
            lr *= 0.5
            if lr < 1e-12:
                break
    return params, best, taken
