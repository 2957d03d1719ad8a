"""Reference estimators that the quadratic-form variance approximates.

Everything here exists for validation: posterior Monte Carlo, leave-one-out
and down-weighted retraining, adversarial injection, and the gradient-space
Mahalanobis distance. Convex models get closed-form retraining to keep
optimizer noise out of equality tests; other models retrain numerically from
a warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceEstimate, loss_hessian
from .exceptions import (ConvergenceError, NumericalError, ResourceError,
                         StructuralError)
from .models import (Dataset, Model, TrainConfig, _loss_and_grad,
                     _stacked_loss_and_grad, loglik_grad_batch, nll_hessian,
                     per_example_nll_hessians)
from .qoi import QuantityOfInterest, qoi_value_and_delta, value_batch_params
from .util import damped_newton, ridged_cholesky

LOO_POINT_GUARD = 500
RICHARDSON_BASE_EPS = 1e-2
_RETRAIN_STACK_BYTES = 1 << 24  # step matrices per eps-LOO retrain stack


@dataclass(frozen=True)
class OracleReport:
    """One oracle evaluation: what it measured and how noisy that number is.

    `spread` is the standard error of the estimate (0.0 when the oracle is
    deterministic). `reg` and `grad_norm` are diagnostics: the Mahalanobis
    oracle records its ridge and mean-gradient norm, the leave-one-out
    kinds the largest final gradient norm of their retrains (nan for a
    closed form); other oracles leave them at their defaults.
    """

    kind: str
    estimate: float
    spread: float
    count: int
    seed: int | None = None
    reg: float = 0.0
    grad_norm: float = math.nan

    def __post_init__(self):
        if not math.isfinite(self.estimate):
            raise NumericalError(f"{self.kind} oracle produced a non-finite "
                                 "estimate")
        if self.count < 1:
            raise StructuralError("oracle count must be positive")


def variance_standard_error(values: np.ndarray) -> float:
    """Standard error of a sample variance, via the central fourth moment."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    centered = values - values.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    return math.sqrt(max(m4 - m2 ** 2, 0.0) / n)


# ---------------------------------------------------------------------------
# Bayesian oracle: Monte Carlo over a Gaussian posterior
# ---------------------------------------------------------------------------

def _psd_factor(matrix: np.ndarray) -> np.ndarray:
    """A factor L with L L^T = matrix, accepting semi-definite inputs."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(matrix)
    floor = -1e-10 * max(1.0, float(eigvals.max(initial=0.0)))
    if eigvals.min() < floor:
        raise NumericalError(
            "covariance is not positive semi-definite, cannot draw samples")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def gaussian_posterior_mc(u: QuantityOfInterest, mean: np.ndarray,
                          cov, z=None, samples: int = 100_000,
                          seed: int = 0) -> OracleReport:
    """Sample variance of u over parameter draws from N(mean, cov)."""
    if samples < 2:
        raise StructuralError("need at least two posterior samples")
    mean = np.asarray(mean, dtype=np.float64)
    if isinstance(cov, CovarianceEstimate):
        if not cov.inverted and cov.kind != "learned":
            raise StructuralError(
                "the estimate holds a precision matrix; invert it into a "
                "covariance first")
        diagonal = cov.is_diagonal
        cov = cov.values if diagonal else cov.matrix()
    else:
        diagonal, cov = False, np.asarray(cov, dtype=np.float64)
    if cov.shape != (mean.size,) * (1 if diagonal else 2):
        raise StructuralError(
            f"a covariance of shape {cov.shape} does not fit a mean of "
            f"{mean.size} parameters")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((samples, mean.size))
    if diagonal:
        if np.any(cov < 0.0):
            raise NumericalError("negative diagonal covariance entries")
        thetas = mean + noise * np.sqrt(cov)
    else:
        thetas = mean + noise @ _psd_factor(cov).T
    values = value_batch_params(u, thetas, z)
    estimate = float(np.var(values, ddof=1))
    return OracleReport(kind="gaussian-posterior-mc", estimate=estimate,
                        spread=variance_standard_error(values),
                        count=samples, seed=seed)


# ---------------------------------------------------------------------------
# frequentist oracles: leave-one-out and down-weighted retraining
# ---------------------------------------------------------------------------

def _linear_normal_pieces(model: Model, data: Dataset):
    """Gram matrix pieces for the unit-variance linear regression fit."""
    x = data.inputs
    y = data.targets[:, 0]
    gram = x.T @ x
    try:
        rows = np.linalg.solve(gram, x.T).T  # row i is gram^-1 x_i
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular Gram matrix; the design does not "
                             "identify the parameters") from exc
    leverages = np.einsum("nd,nd->n", x, rows)
    residuals = y - x @ model.params.data
    return rows, leverages, residuals


def _downweighted_thetas(model: Model, data: Dataset, eps: float,
                         train_cfg: TrainConfig | None):
    """Parameters after reducing example i's weight to 1 - eps, for each i,
    and the largest final gradient norm of the retrains (nan for a closed
    form).

    Closed forms for single-output linear regression and the bernoulli
    rate. Other kinds retrain the N weightings from the model's parameters
    as damped Newton stacks (train_cfg.steps iterations at most, gradient
    tolerance train_cfg.grad_tol, by default 1e-12, or 1e-3 for the mlp)
    with step matrix (H - eps H_i) / (N - eps), the summed and example-i
    NLL Hessians at the model's parameters; the fit moves only O(eps / N).
    A stack holds as many retrains as _RETRAIN_STACK_BYTES of step
    matrices allow (all N for a small model, one at a time for a large
    mlp), so memory stays O(d^2) per retrain in flight, not O(N d^2).
    Raises ConvergenceError when no retrain takes a step: the model already
    meets the tolerance under every down-weighting, so the retrains would
    measure nothing.
    """
    n = data.n
    if model.kind == "linear-regression" and model.d_out == 1:
        rows, leverages, residuals = _linear_normal_pieces(model, data)
        denom = 1.0 - eps * leverages
        if np.any(denom <= 0.0):
            raise NumericalError(
                "a unit-leverage point cannot be removed; its fit is not "
                "determined by the remaining data")
        steps = (eps * residuals / denom)[:, None] * rows
        return model.params.data[None, :] - steps, math.nan
    if model.kind == "bernoulli-rate":
        y = data.targets[:, 0]
        total = float(y.sum())
        return ((total - eps * y) / (n - eps))[:, None], math.nan
    cfg = train_cfg or TrainConfig(steps=2000)
    grad_tol = (cfg.grad_tol if cfg.grad_tol is not None
                else 1e-3 if model.kind == "mlp" else 1e-12)
    d = model.params.dim
    hess = nll_hessian(model, data.inputs, data.targets)
    per_stack = max(1, _RETRAIN_STACK_BYTES // (8 * d * d))
    thetas, grad_norm, moved = np.empty((n, d)), 0.0, False
    for start in range(0, n, per_stack):
        examples = np.arange(start, min(start + per_stack, n))
        result = damped_newton(
            _retrain_stack(model, data, eps, hess, examples),
            np.tile(model.params.data, (examples.size, 1)), cfg.steps,
            grad_tol=grad_tol)
        thetas[examples] = result.x
        grad_norm = max(grad_norm, float(result.grad_norm.max()))
        moved = moved or bool(result.iterations.any())
    if not moved:
        raise ConvergenceError(
            f"no retrain took a step: the model already meets grad_tol="
            f"{grad_tol:g} with any one example's weight cut to "
            f"{1.0 - eps:g}, so the retrains measure nothing; a smaller "
            "grad_tol (train_cfg.grad_tol, or the oracle command's grad_tol "
            "key) tightens it")
    return thetas, grad_norm


def _retrain_stack(model: Model, data: Dataset, eps: float, hess: np.ndarray,
                   examples: np.ndarray):
    """damped_newton's evaluate(thetas, rows) for the retrains that cut the
    weight of each of the examples (m,) to 1 - eps: the weighted mean NLL
    and its gradient, and the fixed step matrix (H - eps H_i) / (N - eps),
    hess being H."""
    X, Y = data.inputs, data.targets
    weights = np.ones((examples.size, data.n))
    weights[np.arange(examples.size), examples] = 1.0 - eps
    wsums = np.einsum("kn->k", weights)
    matrices = ((hess - eps * per_example_nll_hessians(model, X[examples],
                                                       Y[examples]))
                / wsums[:, None, None])

    def evaluate(thetas, rows):
        return (*_stacked_loss_and_grad(model, data, weights[rows], thetas),
                matrices[rows])

    return evaluate


def loo_variance(model: Model, data: Dataset, u: QuantityOfInterest, z=None,
                 max_points: int = LOO_POINT_GUARD,
                 train_cfg: TrainConfig | None = None) -> OracleReport:
    """Variance of u over the N leave-one-out refits (uniform over i)."""
    if data.n > max_points:
        raise ResourceError(
            f"{data.n} retrainings exceed the {max_points}-point guard; "
            "raise max_points explicitly if this is intended")
    thetas, grad_norm = _downweighted_thetas(model, data, 1.0, train_cfg)
    values = value_batch_params(u, thetas, z)
    return OracleReport(kind="loo", estimate=float(np.var(values)),
                        spread=variance_standard_error(values), count=data.n,
                        grad_norm=grad_norm)


def eps_loo_variance(model: Model, data: Dataset, u: QuantityOfInterest,
                     z=None, eps: float = RICHARDSON_BASE_EPS,
                     max_points: int = LOO_POINT_GUARD,
                     train_cfg: TrainConfig | None = None) -> OracleReport:
    """Down-weighted retraining variance, scaled by N / eps^2.

    The scaling follows the equality proof rather than the (N - eps) / eps^2
    variant; the two differ at relative order eps / N.
    """
    if not 0.0 < eps <= 1.0:
        raise StructuralError("eps must lie in (0, 1]")
    if data.n > max_points:
        raise ResourceError(
            f"{data.n} retrainings exceed the {max_points}-point guard; "
            "raise max_points explicitly if this is intended")
    thetas, grad_norm = _downweighted_thetas(model, data, eps, train_cfg)
    values = value_batch_params(u, thetas, z)
    estimate = data.n / eps ** 2 * float(np.var(values))
    return OracleReport(kind="eps-loo", estimate=estimate,
                        spread=data.n / eps ** 2 * variance_standard_error(values),
                        count=data.n, grad_norm=grad_norm)


def richardson_eps_loo(model: Model, data: Dataset, u: QuantityOfInterest,
                       z=None, eps: float = RICHARDSON_BASE_EPS,
                       max_points: int = LOO_POINT_GUARD,
                       train_cfg: TrainConfig | None = None) -> OracleReport:
    """The eps -> 0 limit, extrapolated from eps, eps/2 and eps/4.

    With estimate error c1 eps + c2 eps^2, the combination
    (V(eps) - 6 V(eps/2) + 8 V(eps/4)) / 3 cancels both terms.
    """
    reports = [eps_loo_variance(model, data, u, z, eps / k, max_points,
                                train_cfg) for k in (1.0, 2.0, 4.0)]
    v1, v2, v4 = (r.estimate for r in reports)
    estimate = (v1 - 6.0 * v2 + 8.0 * v4) / 3.0
    spread = (reports[0].spread + 6.0 * reports[1].spread
              + 8.0 * reports[2].spread) / 3.0
    return OracleReport(kind="eps-loo-richardson", estimate=estimate,
                        spread=spread, count=3 * data.n,
                        grad_norm=max(r.grad_norm for r in reports))


# ---------------------------------------------------------------------------
# adversarial oracle: inject a data point and retrain
# ---------------------------------------------------------------------------

def _linear_identity_qoi(model: Model, u: QuantityOfInterest) -> bool:
    return (model.kind == "linear-regression" and model.d_out == 1
            and u.kind == "power" and u.config["exponent"] == 1.0)


def _augmented_descent(model: Model, data: Dataset, u: QuantityOfInterest,
                       z, y_adv: float, eps: float, steps: int = 100,
                       grad_tol: float = 1e-10) -> np.ndarray:
    """Minimize total NLL + (eps/2)(u(z) - y_adv)^2 from a warm start.

    Damped Newton (util.damped_newton): the step matrix is the loss Hessian
    plus the Gauss-Newton term eps * delta delta' of the penalty; points
    outside the model's domain count as +inf and never pass.
    """
    ones, d = np.ones(data.n), model.params.dim

    def evaluate(x, rows):
        nll, nll_grad = _loss_and_grad(model, data, ones, 1.0, x[0])
        if not math.isfinite(nll):
            return (np.array([nll]), nll_grad[None],
                    np.full((1, d, d), math.nan))
        bound = model.with_params(x[0])
        value, delta = qoi_value_and_delta(
            QuantityOfInterest(u.kind, bound, u.config), z)
        grad = nll_grad + eps * (value - y_adv) * delta.vector
        curvature = (loss_hessian(bound, data).values
                     + eps * np.outer(delta.vector, delta.vector))
        return (np.array([nll + 0.5 * eps * (value - y_adv) ** 2]),
                grad[None], curvature[None])

    result = damped_newton(evaluate, model.params.data[None], steps,
                           grad_tol=grad_tol).row(0)
    if result.grad_norm > 1e-6:
        raise ConvergenceError(
            "adversarial retraining did not converge; gradient norm "
            f"{result.grad_norm:.3e}")
    return result.x


def adversarial_shift(model: Model, data: Dataset, u: QuantityOfInterest,
                      z=None, eps: float = 1e-2, mode: str = "offset",
                      delta: float | None = None, sigma: float | None = None,
                      draws: int = 1000, seed: int = 0) -> OracleReport:
    """Effect of one injected training point with eps-weighted L2 loss.

    The injected point targets y = u(z) + delta, so delta is how far the
    adversary pulls the quantity away from the current prediction. In offset
    mode the report is the absolute shift of u(z) after retraining; in noise
    mode delta is drawn from N(0, sigma^2) and the report is the mean squared
    shift over the draws.
    """
    if eps <= 0.0 or eps > 1e-1:
        raise StructuralError("eps must be a small positive weight (<= 0.1)")
    base_value, _ = qoi_value_and_delta(u, z)
    if mode == "offset":
        if delta is None:
            raise StructuralError("offset mode needs delta")
        shifted = _adversarial_value(model, data, u, z, base_value + delta,
                                     eps, base_value)
        return OracleReport(kind="adversarial-offset",
                            estimate=abs(shifted - base_value), spread=0.0,
                            count=1)
    if mode != "noise":
        raise StructuralError(f"unknown adversarial mode {mode!r}")
    if sigma is None or sigma <= 0.0:
        raise StructuralError("noise mode needs sigma > 0")
    if draws < 2:
        raise StructuralError("noise mode needs at least two draws")
    rng = np.random.default_rng(seed)
    deltas = sigma * rng.standard_normal(draws)
    if _linear_identity_qoi(model, u):
        # the shift is exactly linear in delta, one solve covers all draws
        slope = _linear_adversarial_slope(model, data, z, eps)
        squared = (eps * deltas * slope) ** 2
    else:
        squared = np.empty(draws)
        for k, d in enumerate(deltas):
            shifted = _adversarial_value(model, data, u, z, base_value + d,
                                         eps, base_value)
            squared[k] = (shifted - base_value) ** 2
    return OracleReport(kind="adversarial-noise",
                        estimate=float(np.mean(squared)),
                        spread=float(np.std(squared, ddof=1) / math.sqrt(draws)),
                        count=draws, seed=seed)


def _linear_adversarial_slope(model: Model, data: Dataset, z,
                              eps: float) -> float:
    """d shift / d (eps * delta) for the linear model: h_z / (1 + eps h_z)."""
    x = data.inputs
    gram = x.T @ x
    z = np.asarray(z, dtype=np.float64).ravel()
    h_z = float(z @ np.linalg.solve(gram, z))
    return h_z / (1.0 + eps * h_z)


def _adversarial_value(model: Model, data: Dataset, u: QuantityOfInterest,
                       z, y_adv: float, eps: float,
                       base_value: float) -> float:
    if _linear_identity_qoi(model, u):
        x = data.inputs
        y = data.targets[:, 0]
        zv = np.asarray(z, dtype=np.float64).ravel()
        gram = x.T @ x + eps * np.outer(zv, zv)
        rhs = x.T @ y + eps * zv * y_adv
        theta = np.linalg.solve(gram, rhs)
        return float(zv @ theta)
    theta = _augmented_descent(model, data, u, z, y_adv, eps)
    bound = QuantityOfInterest(u.kind, model.with_params(theta), u.config)
    value, _ = qoi_value_and_delta(bound, z)
    return value


# ---------------------------------------------------------------------------
# out-of-distribution oracle: Mahalanobis distance in gradient space
# ---------------------------------------------------------------------------

def mahalanobis_gradient_distance(model: Model, data: Dataset,
                                  u: QuantityOfInterest,
                                  z=None) -> OracleReport:
    """Squared Mahalanobis distance of the quantity gradient to the cloud
    of per-example log-likelihood gradients.

    The cloud mean is the empirical mean (near zero only at convergence; its
    norm is recorded so early stopping shows up in the report instead of
    being hidden). A singular gradient covariance is regularized and the
    regularizer recorded.
    """
    grads = loglik_grad_batch(model, data.inputs, data.targets)
    mu = grads.mean(axis=0)
    centered = grads - mu
    cov = centered.T @ centered / data.n
    _, delta = qoi_value_and_delta(u, z)
    direction = delta.vector - mu
    chol, reg = ridged_cholesky(cov[None], "gradient covariance")
    half = np.linalg.solve(chol[0], direction)
    estimate = float(half @ half)
    return OracleReport(kind="mahalanobis", estimate=estimate, spread=0.0,
                        count=data.n, reg=float(reg[0]),
                        grad_norm=float(np.linalg.norm(mu)))
