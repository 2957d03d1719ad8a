"""Desk-scale probabilistic models and their training loop.

Four model kinds share one interface: bernoulli-rate (a single success
probability, inputs ignored), linear-regression and logistic (generalized
linear), and a small tanh MLP for learned dynamics. Squared-error training is
treated as a unit-variance Gaussian likelihood throughout, so "loss" always
means a negative log-likelihood and Fisher/Hessian quantities share one
convention.

Gradients and loss Hessians are closed-form vectorized numpy (training,
Fisher and Hessian accumulation, and the output Jacobians behind the
explicit quantities of interest). The mlp has one forward pass,
_mlp_forward_cache, and one backward pass, mlp_vjp, for one parameter
vector or a stack of them, and for the T chained steps of a rollout. Training runs damped Newton on the exact loss
Hessian for the convex kinds, mini-batch SGD and an L-BFGS polish for the
mlp (train). An ensemble's mlp members run their SGD in lockstep as one
stack (_sgd), each on the bits it reaches trained alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .autodiff import ParameterVector
from .exceptions import NumericalError, StructuralError, TrainingError
from .util import NewtonResult, damped_newton, lbfgs

MODEL_KINDS = ("bernoulli-rate", "linear-regression", "logistic", "mlp")

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Paired inputs (N, d_in) and targets (N, d_out), float64."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.inputs, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.targets, dtype=np.float64))
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if x.ndim != 2 or y.ndim != 2:
            raise StructuralError("inputs and targets must be 2-d arrays")
        if x.shape[0] != y.shape[0]:
            raise StructuralError(
                f"inputs have {x.shape[0]} rows but targets have {y.shape[0]}")
        if x.shape[0] == 0:
            raise StructuralError("dataset is empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise StructuralError("dataset contains non-finite values")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_out(self) -> int:
        return self.targets.shape[1]


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A model kind, its flat parameters, and architecture hyperparameters.

    Value-like: train() returns a new Model and never mutates its input.
    """

    kind: str
    params: ParameterVector
    hyper: dict
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise StructuralError(f"unknown model kind {self.kind!r}")

    @property
    def d_in(self) -> int:
        return int(self.hyper["d_in"])

    @property
    def d_out(self) -> int:
        return int(self.hyper["d_out"])

    def with_params(self, data) -> "Model":
        if isinstance(data, ParameterVector):
            return replace(self, params=data)
        return replace(self, params=self.params.replace_data(data))


def make_model(kind: str, d_in: int = 1, d_out: int = 1,
               hidden: Sequence[int] = (32, 32), seed: int = 0) -> Model:
    """Construct an untrained model with a deterministic initialization."""
    if kind == "bernoulli-rate":
        if d_out != 1:
            raise StructuralError("bernoulli-rate is a scalar-output model")
        params = ParameterVector(np.array([0.5]), (("rate", 0, 1),))
        hyper = {"d_in": d_in, "d_out": 1}
    elif kind == "linear-regression":
        params = ParameterVector(np.zeros(d_in * d_out),
                                 (("weights", 0, d_in * d_out),))
        hyper = {"d_in": d_in, "d_out": d_out}
    elif kind == "logistic":
        if d_out != 1:
            raise StructuralError("logistic is a scalar-output model")
        params = ParameterVector(np.zeros(d_in), (("weights", 0, d_in),))
        hyper = {"d_in": d_in, "d_out": 1}
    elif kind == "mlp":
        widths = [d_in, *[int(h) for h in hidden], d_out]
        rng = np.random.default_rng(seed)
        layout = _mlp_layout(tuple(widths))
        theta, blocks = np.zeros(layout[-1][4]), []
        for layer, (n_in, n_out, s0, s1, s2) in enumerate(layout):
            theta[s0:s1] = rng.standard_normal(n_in * n_out) / math.sqrt(n_in)
            blocks += [(f"layer{layer}.W", s0, s1 - s0),
                       (f"layer{layer}.b", s1, s2 - s1)]
        params = ParameterVector(theta, tuple(blocks))
        hyper = {"d_in": d_in, "d_out": d_out, "widths": widths,
                 "init_seed": int(seed)}
    else:
        raise StructuralError(f"unknown model kind {kind!r}")
    return Model(kind=kind, params=params, hyper=hyper)


@functools.lru_cache(maxsize=None)
def _mlp_layout(widths: tuple) -> tuple:
    """(n_in, n_out, weight start, bias start, end) of each layer in the flat
    parameters of an mlp with these widths; computed once per architecture."""
    layout, cursor = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        layout.append((n_in, n_out, cursor, cursor + n_in * n_out,
                       cursor + n_in * n_out + n_out))
        cursor = layout[-1][4]
    return tuple(layout)


def _mlp_layers(model: Model, theta: np.ndarray | None = None
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views of theta (default: the model's parameters).

    Leading axes of theta are kept: a stack (k, d) splits into (k, n_in,
    n_out) weights and (k, 1, n_out) biases, whose row axis broadcasts.
    """
    theta = model.params.data if theta is None else theta
    return [(theta[..., s0:s1].reshape(*theta.shape[:-1], n_in, n_out),
             theta[..., None, s1:s2])
            for n_in, n_out, s0, s1, s2
            in _mlp_layout(tuple(model.hyper["widths"]))]


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def predict(model: Model, x, rng: np.random.Generator | None = None,
            dropout_rate: float = 0.0, theta=None) -> np.ndarray:
    """Model outputs for x of shape (d_in,) or (n, d_in); a raw parameter
    vector theta, if given, stands in for the model's (unvalidated).

    If rng is given and dropout_rate is positive, hidden activations of
    the mlp are masked with fresh inverted-dropout samples (the post-hoc
    insertion used by the dropout baseline).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != model.d_in:
        raise StructuralError(f"input has {xb.shape[1]} features, expected {model.d_in}")
    theta = model.params.data if theta is None else theta
    if model.kind == "bernoulli-rate":
        out = np.full((xb.shape[0], 1), theta[0])
    elif model.kind == "linear-regression":
        w = theta.reshape(model.d_in, model.d_out)
        out = xb @ w
    elif model.kind == "logistic":
        out = _sigmoid(xb @ theta)[:, None]
    else:
        masks = None if rng is None or dropout_rate <= 0.0 else [
            (rng.random((xb.shape[0], width)) >= dropout_rate).astype(np.float64)
            for width in model.hyper["widths"][1:-1]]
        out, _, _ = _mlp_forward_cache(model, xb, theta, masks=masks,
                                       rate=dropout_rate)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# log-likelihoods and their gradients (closed-form / batched numpy)
# ---------------------------------------------------------------------------

def loglik(model: Model, x, y, theta=None) -> np.ndarray:
    """Per-example log-likelihoods log f_theta(x, y); shape (n,)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    y = y[:, None] if y.ndim == 1 else y
    theta = model.params.data if theta is None else theta
    if model.kind == "bernoulli-rate":
        t = theta[0]
        return (y[:, 0] * math.log(t) + (1.0 - y[:, 0]) * math.log(1.0 - t))
    if model.kind == "logistic":
        return _logistic_loglik(x @ theta, y[:, 0])
    return _gaussian_loglik(y - predict(model, x, theta=theta), model.d_out)


def _logistic_loglik(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bernoulli log-likelihoods of outcomes y at logits s, elementwise."""
    # log sigma(s) = -log(1+e^-s), computed stably via logaddexp
    return -(np.logaddexp(0.0, -s) * y + np.logaddexp(0.0, s) * (1.0 - y))


def _gaussian_loglik(r: np.ndarray, d_out: int) -> np.ndarray:
    """Unit-variance Gaussian log-likelihoods of residuals r (..., d_out)."""
    return -0.5 * np.einsum("...j,...j->...", r, r) - d_out * _HALF_LOG_2PI


def _mlp_forward_cache(model: Model, xb: np.ndarray, theta=None, layers=None,
                       masks=None, rate: float = 0.0):
    """The mlp forward pass: (outputs, per-layer inputs, (W, b) per layer).

    A stack theta (k, d) maps inputs xb (n, d_in), or (k, n, d_in), to
    (k, n, d_out) by the products each row would run alone. layers, if
    given, are the (W, b) views to use instead of splitting theta. masks,
    one (n, width) 0/1 array per hidden layer, apply inverted dropout at the
    given rate (prediction with dropout); training passes none.
    """
    if layers is None:
        layers = _mlp_layers(model, theta)
    h, h_ins = xb, [xb]
    for layer, (w, b) in enumerate(layers[:-1]):
        h = np.tanh(h @ w + b)
        if masks is not None:
            h = h * masks[layer] / (1.0 - rate)
        h_ins.append(h)
    w, b = layers[-1]
    out = h @ w + b
    return out, h_ins, layers


def mlp_vjp(model: Model, h_ins: list[np.ndarray], layers, gout: np.ndarray,
            per_example: bool = False):
    """Vector-Jacobian products of the mlp output: the one mlp backward.

    gout has shape (n, d_out), or (k, n, d_out) for a stack of k parameter
    vectors, whose leading axis carries through. Returns (gparams, ginput)
    where gparams is the summed gradient (..., d) or the per-example matrix
    (..., n, d) when per_example is set, and ginput is (..., n, d_in), or
    None for the summed gradient, which no caller pairs with it.

    A rollout, T chained steps of one parameter vector (step t's output is
    step t+1's input), is one sweep: per_example, gout the (T, n, d_out)
    cotangents injected at each step's output and h_ins each layer's inputs
    as a (T, n, width) stack. The sweep runs only the cotangent recurrence
    per step, from the last step back, keeping each layer's output
    cotangents in a (T, n, n_out) stack; when step 0 reaches a layer, its
    per-example gradient summed over the steps is formed once, a batched
    matmul (n, n_in, T) @ (n, T, n_out) for the weights and a sum over the
    steps for the biases. gparams is (n, d) and ginput the first step's
    input cotangent. One step, or a horizon of 1, takes the einsum outer
    product instead, which is faster than matmul for a single term.

    The summed weight gradient is an einsum over n with the wider factor
    last: einsum's inner loop runs over the last output axis, so a (24, 3)
    gradient is the transpose of a (3, 24) one, about 3x faster at n = 220.
    Either order sums over n in the same order and gives the same bytes,
    alone or in a stack; BLAS (h_in.T @ g) would not.
    """
    if per_example and gout.ndim == 3 and layers[0][0].ndim == 2:  # a rollout
        if gout.shape[0] > 1:
            return _rollout_vjp(model, h_ins, layers, gout)
        gout, h_ins = gout[0], [h[0] for h in h_ins]  # one step: the plain pass
    lead, n, g = gout.shape[:-2], gout.shape[-2], gout
    out = np.empty((*lead, n, model.params.dim) if per_example
                   else (*lead, model.params.dim))
    layout = _mlp_layout(tuple(model.hyper["widths"]))
    for layer, (n_in, n_out, s0, s1, s2) in reversed(list(enumerate(layout))):
        h_in = h_ins[layer]
        if per_example:
            out[..., s0:s1] = np.einsum("...ni,...nj->...nij", h_in,
                                        g).reshape(*lead, n, -1)
            out[..., s1:s2] = g
        else:  # a view: reshape splits the contiguous last axis
            gw = out[..., s0:s1].reshape(*lead, n_in, n_out)
            if n_in > n_out:
                gw[...] = np.einsum("...nj,...ni->...ji", g,
                                    h_in).swapaxes(-1, -2)
            else:
                gw[...] = np.einsum("...ni,...nj->...ij", h_in, g)
            out[..., s1:s2] = np.einsum("...nj->...j", g)
        if layer > 0 or per_example:
            g = g @ layers[layer][0].swapaxes(-1, -2)
        if layer > 0:  # g is the product's own array
            g *= 1.0 - h_in * h_in
    return out, g if per_example else None


def _rollout_vjp(model: Model, h_ins: list[np.ndarray], layers,
                 gout: np.ndarray):
    """mlp_vjp's one reverse sweep over the T > 1 steps of a rollout."""
    steps, n = gout.shape[:2]
    out = np.empty((n, model.params.dim))
    layout = list(enumerate(_mlp_layout(tuple(model.hyper["widths"]))))
    # each layer's output cotangents, one row per step
    gs = [np.empty((steps, n, n_out)) for _, (_, n_out, *_) in layout[:-1]]
    gs.append(gout.copy())
    for t in range(steps - 1, -1, -1):
        g = gs[-1][t]  # injected at step t's output, plus step t+1's input's
        if t < steps - 1:
            g += gin
        for layer, (n_in, n_out, s0, s1, s2) in reversed(layout):
            if t == 0:  # every step's cotangent of this layer is in
                np.matmul(h_ins[layer].transpose(1, 2, 0),
                          gs[layer].transpose(1, 0, 2),
                          out=out[:, s0:s1].reshape(n, n_in, n_out))
                gs[layer].sum(axis=0, out=out[:, s1:s2])
            g = np.matmul(g, layers[layer][0].T,
                          out=gs[layer - 1][t] if layer else None)
            if layer > 0:  # a row of gs
                h_in = h_ins[layer][t]
                g *= 1.0 - h_in * h_in
        gin = g
    return out, g


def output_jacobian(model: Model, X) -> tuple[np.ndarray, np.ndarray]:
    """Scalar outputs (n,) and their per-example parameter Jacobians (n, d).

    Closed form for the generalized linear kinds (bernoulli-rate: 1,
    linear-regression: x, logistic: p(1-p) x) and one batched reverse pass
    for the mlp. Outputs equal predict() exactly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.d_out != 1:
        raise StructuralError("output Jacobians need a scalar-output model")
    if X.shape[1] != model.d_in:
        raise StructuralError(f"input has {X.shape[1]} features, expected {model.d_in}")
    if model.kind == "mlp":
        out, h_ins, layers = _mlp_forward_cache(model, X)
        return out[:, 0], mlp_vjp(model, h_ins, layers, np.ones_like(out),
                                  per_example=True)[0]
    if model.kind == "logistic":
        s = X @ model.params.data
        p = _sigmoid(s)
        # 1 - p as sigmoid(-s) keeps its relative precision where p is near 1
        return p, (p * _sigmoid(-s))[:, None] * X
    out = predict(model, X)[:, 0]
    if model.kind == "bernoulli-rate":
        return out, np.ones((X.shape[0], 1))
    return out, X.copy()


def loglik_grad_batch(model: Model, X, Y, theta=None) -> np.ndarray:
    """Per-example log-likelihood gradients, shape (n, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64)
    Y = Y[:, None] if Y.ndim == 1 else Y
    n = X.shape[0]
    theta = model.params.data if theta is None else theta
    if model.kind == "bernoulli-rate":
        t = theta[0]
        return (Y[:, 0] / t - (1.0 - Y[:, 0]) / (1.0 - t))[:, None]
    if model.kind == "linear-regression":
        w = theta.reshape(model.d_in, model.d_out)
        resid = Y - X @ w
        return np.einsum("ni,nj->nij", X, resid).reshape(n, -1)
    if model.kind == "logistic":
        p = _sigmoid(X @ theta)
        return (Y[:, 0] - p)[:, None] * X
    out, h_ins, layers = _mlp_forward_cache(model, X, theta)
    # d loglik / d out = Y - out for the unit-variance Gaussian
    return mlp_vjp(model, h_ins, layers, Y - out, per_example=True)[0]


def mean_loglik_grad(model: Model, X, Y, weights: np.ndarray | None = None,
                     theta=None) -> np.ndarray:
    """Weighted mean of per-example log-likelihood gradients (fast path)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64)
    Y = Y[:, None] if Y.ndim == 1 else Y
    if weights is None:
        weights = np.ones(X.shape[0])
    wsum = float(np.einsum("n->", weights))
    if wsum <= 0.0:
        raise StructuralError("example weights sum to zero")
    if model.kind == "mlp":
        out, h_ins, layers = _mlp_forward_cache(model, X, theta)
        return mlp_vjp(model, h_ins, layers,
                       (Y - out) * weights[:, None])[0] / wsum
    grads = loglik_grad_batch(model, X, Y, theta)
    return np.einsum("n,nd->d", weights, grads) / wsum


_HESSIAN_CHUNK = 32  # parameter directions per batch of the mlp R-op


def nll_hessian(model: Model, X: np.ndarray, Y: np.ndarray,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Exact Hessian (d, d) of the summed negative log-likelihood of the
    examples X (n, d_in), Y (n, d_out), as a Dataset holds them, each
    example's term scaled by its weight if weights (n,) are given.

    Closed form for bernoulli-rate (sum y/t^2 + (1-y)/(1-t)^2),
    linear-regression (kron(X'X, I_{d_out})) and logistic (X' diag(p(1-p)) X,
    1 - p as sigmoid(-s)). The mlp pushes a chunk of unit parameter
    directions through the forward pass and the mlp_vjp backward pass at a
    time (forward-over-reverse, Pearlmutter's R-op); row j is the tangent of
    the gradient along direction j.
    """
    # unit weights by default: times 1.0, every bit stays as unweighted
    wcol = np.ones((X.shape[0], 1)) if weights is None else weights[:, None]
    if model.kind == "bernoulli-rate":
        t = model.params.data[0]
        terms = Y[:, 0] / t ** 2 + (1.0 - Y[:, 0]) / (1.0 - t) ** 2
        return np.array([[np.sum(wcol[:, 0] * terms)]])
    if model.kind == "linear-regression":
        return np.kron(np.einsum("ni,nj->ij", wcol * X, X), np.eye(model.d_out))
    if model.kind == "logistic":
        s = X @ model.params.data
        curv = _sigmoid(s) * _sigmoid(-s)
        return np.einsum("ni,nj->ij", (curv[:, None] * wcol) * X, X)
    hess = np.empty((model.params.dim,) * 2)
    for rows, cols, block in _mlp_hessian_blocks(model, X, Y, wcol):
        hess[rows, cols] = block
    return hess


def _add_nll_hessian(out: np.ndarray, model: Model, X: np.ndarray,
                     Y: np.ndarray) -> None:
    """out += nll_hessian(model, X, Y), bit for bit. The mlp's blocks are
    added as the R-op makes them, so no second (d, d) array is held."""
    if model.kind != "mlp":
        out += nll_hessian(model, X, Y)
        return
    for rows, cols, block in _mlp_hessian_blocks(model, X, Y,
                                                 np.ones((X.shape[0], 1))):
        out[rows, cols] += block


def _mlp_hessian_blocks(model: Model, X: np.ndarray, Y: np.ndarray,
                        wcol: np.ndarray):
    """(rows, cols, block) of the mlp nll Hessian, each block made once:
    rows are parameter directions, cols one layer's weights or biases."""
    out, h_ins, layers = _mlp_forward_cache(model, X)
    d = model.params.dim
    layout = _mlp_layout(tuple(model.hyper["widths"]))
    for start in range(0, d, _HESSIAN_CHUNK):
        rows = slice(start, min(start + _HESSIAN_CHUNK, d))
        # rows start.. of the identity: unit parameter directions
        dlayers = _mlp_layers(model, np.eye(rows.stop - start, d, start))
        # forward: r is the tangent of each layer's input, zero at the data
        r, r_ins = np.zeros((rows.stop - start, *X.shape)), []
        for layer, ((w, _), (dw, db)) in enumerate(zip(layers, dlayers)):
            r_ins.append(r)
            r = r @ w + h_ins[layer] @ dw + db
            if layer + 1 < len(layers):
                r = r * (1.0 - h_ins[layer + 1] ** 2)
        # backward: g = d NLL / d out = out - Y, r its tangent
        g, r = wcol * (out - Y), wcol * r
        for layer in range(len(layers) - 1, -1, -1):
            (w, _), (dw, _) = layers[layer], dlayers[layer]
            h, r_h = h_ins[layer], r_ins[layer]
            _, _, s0, s1, s2 = layout[layer]
            gw = h.T @ r + np.swapaxes(r_h, 1, 2) @ g
            yield rows, slice(s0, s1), gw.reshape(gw.shape[0], -1)
            yield rows, slice(s1, s2), r.sum(axis=1)
            if layer > 0:
                back, slope = g @ w.T, 1.0 - h * h
                r = ((r @ w.T + g @ np.swapaxes(dw, 1, 2)) * slope
                     - 2.0 * back * h * r_h)
                g = back * slope


def per_example_nll_hessians(model: Model, X: np.ndarray,
                             Y: np.ndarray) -> np.ndarray:
    """nll_hessian of each example alone, (n, d, d): closed form for the
    logistic and linear kinds, one nll_hessian call per example otherwise."""
    if model.kind == "logistic":
        s = X @ model.params.data
        curv = _sigmoid(s) * _sigmoid(-s)
        return np.einsum("ni,nj->nij", curv[:, None] * X, X)
    if model.kind == "linear-regression":
        d = model.params.dim
        return np.einsum("ni,nj,kl->nikjl", X, X,
                         np.eye(model.d_out)).reshape(X.shape[0], d, d)
    return np.stack([nll_hessian(model, X[i:i + 1], Y[i:i + 1])
                     for i in range(X.shape[0])])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Optimizer settings. Defaults resolve per model kind inside train().

    steps caps the Newton iterations of the convex kinds and the SGD steps
    of the mlp. learning_rate and batch set the mlp's SGD, polish_steps caps
    its L-BFGS polish (default: steps); the convex kinds ignore all three.
    grad_tol is the mean-gradient norm that counts as converged.
    """

    steps: int = 2000
    learning_rate: float | None = None
    batch: int | None = None
    seed: int = 0
    example_weights: np.ndarray | None = None
    grad_tol: float | None = None
    polish_steps: int | None = None

    def __post_init__(self):
        if self.batch is not None and self.batch < 1:
            raise StructuralError(f"batch must be at least 1, got {self.batch}")
        if self.steps < 0 or (self.polish_steps or 0) < 0:
            raise StructuralError("step counts must be nonnegative")


@np.errstate(over="ignore", invalid="ignore")
def _loss_and_grad(model: Model, data: Dataset, weights: np.ndarray,
                   wsum: float, theta: np.ndarray):
    """The weighted NLL over wsum and its gradient at theta, (+inf, NaN)
    outside the domain: with wsum the weight sum, the mean NLL and the bits
    of -mean_loglik_grad. The mlp gradient reuses the value's forward pass."""
    if not (np.isfinite(theta).all() and (model.kind != "bernoulli-rate"
                                          or 0.0 < theta[0] < 1.0)):
        return math.inf, np.full(theta.shape, math.nan)
    X, Y = data.inputs, data.targets
    if model.kind == "mlp":
        out, h_ins, layers = _mlp_forward_cache(model, X, theta)
        ll = _gaussian_loglik(Y - out, model.d_out)
    else:
        ll = loglik(model, X, Y, theta)
    value = float(-np.einsum("n,n->", weights, ll) / wsum)
    if not math.isfinite(value):
        return math.inf, np.full(theta.shape, math.nan)
    if model.kind == "mlp":
        gout = (Y - out) * weights[:, None]
        return value, -(mlp_vjp(model, h_ins, layers, gout)[0] / wsum)
    grads = loglik_grad_batch(model, X, Y, theta)
    return value, -np.einsum("n,nd->d", weights, grads) / wsum


@np.errstate(over="ignore", invalid="ignore")
def _stacked_loss_and_grad(model: Model, data: Dataset, weights: np.ndarray,
                           thetas: np.ndarray):
    """_loss_and_grad of K weightings at once: weights (K, N) and
    parameters thetas (K, d), each row over its own weight sum. Returns the
    values (K,), +inf outside the domain, and the gradients (K, d), by
    stacked matmuls (one BLAS call per row) and einsums along each row, so
    no row depends on another; the bernoulli rate runs row by row."""
    k, X, Y = thetas.shape[0], data.inputs, data.targets
    wsums = np.einsum("kn->k", weights)
    if model.kind == "bernoulli-rate":
        values, grads = np.empty(k), np.empty(thetas.shape)
        for r in range(k):
            values[r], grads[r] = _loss_and_grad(model, data, weights[r],
                                                 float(wsums[r]), thetas[r])
        return values, grads
    if model.kind == "logistic":
        s = (X @ thetas[:, :, None])[:, :, 0]
        ll = _logistic_loglik(s, Y[:, 0])
        gout = weights * (Y[:, 0] - _sigmoid(s))
        grads = -(gout[:, None, :] @ X)[:, 0, :]
    elif model.kind == "mlp":
        out, h_ins, layers = _mlp_forward_cache(model, X, thetas)
        resid = Y - out
        grads = -mlp_vjp(model, h_ins, layers, resid * weights[..., None])[0]
    else:
        resid = Y - X @ thetas.reshape(k, model.d_in, model.d_out)
        grads = -np.einsum("kn,ni,knj->kij", weights, X, resid).reshape(k, -1)
    if model.kind != "logistic":
        ll = _gaussian_loglik(resid, model.d_out)
    values = -np.einsum("kn,kn->k", weights, ll) / wsums
    values[~(np.isfinite(values) & np.isfinite(thetas).all(axis=1))] = math.inf
    return values, grads / wsums[:, None]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sgd(model: Model, datas: Sequence[Dataset], weights: np.ndarray,
         thetas: np.ndarray, seeds: Sequence[int], cfg: TrainConfig) -> int:
    """Seeded mini-batch SGD of mlp parameter vectors thetas (k, d), row r
    on datas[r], in place and in lockstep; returns the steps. Row r orders
    each epoch by default_rng(seeds[r]) and runs the products it would run
    alone, to the bits of training alone; it skips a zero-weight batch."""
    k, n = thetas.shape[0], datas[0].n
    lr = 0.05 if cfg.learning_rate is None else cfg.learning_rate
    batch = min(32 if cfg.batch is None else cfg.batch, n)
    per_epoch = -(-n // batch)  # batches per epoch, the last one short
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # row r's example i is row r * n + i of the stacked data sets
    X = np.concatenate([data.inputs for data in datas])
    Y = np.concatenate([data.targets for data in datas])
    offsets = (np.arange(k) * n)[:, None]
    all_live = bool(np.all(weights > 0.0))
    layers = _mlp_layers(model, thetas)  # views, updated in place
    for step in range(cfg.steps):
        start = step % per_epoch * batch
        if start == 0:
            order = np.stack([rng.permutation(n) for rng in rngs])
            xs, ys = (np.take(a, order + offsets, axis=0) for a in (X, Y))
            ws = np.take(weights, order)
        rows = slice(start, start + batch)
        wsums = np.einsum("kn->k", ws[:, rows])
        out, h_ins, _ = _mlp_forward_cache(model, xs[:, rows], layers=layers)
        gout = (ys[:, rows] - out) * ws[:, rows, None]
        g = mlp_vjp(model, h_ins, layers, gout)[0] / wsums[:, None]
        if all_live:
            thetas += lr * g
        else:  # nonnegative weights: a zero sum is an all-zero batch
            thetas[wsums > 0.0] += lr * g[wsums > 0.0]
        if not np.isfinite(thetas).all():
            r = int(np.argmin(np.isfinite(thetas).all(axis=1)))
            what = "parameters" if np.isfinite(g[r]).all() else "gradient"
            member = f" of member {r}" if k > 1 else ""
            raise TrainingError(f"training{member} diverged (non-finite "
                                f"{what})", step=step)
    return cfg.steps


def train(model: Model, data: Dataset, cfg: TrainConfig | None = None) -> Model:
    """Fit the model; returns a new Model carrying convergence diagnostics.

    Convex kinds minimize the weighted mean NLL by damped Newton on the
    exact loss Hessian (util.damped_newton). The mlp runs seeded mini-batch
    SGD (_sgd, a stack of one), then a full-batch L-BFGS polish (util.lbfgs).
    Convergence is the mean-gradient norm against grad_tol, measured where
    training stops (the SGD end point when no polish step runs), never the
    step count alone. Per-example weights reweight the objective (a zero
    weight removes that point). A bernoulli rate whose weighted outcomes
    are all 1 (or all 0) peaks on the domain's boundary, which Newton steps
    only creep toward, one halving search per bit; it is set in 0 steps to
    1 - 2^-53, the float next to 1 (or to 2^-53). A saturated logistic fit
    (see _saturated_fit) is reported as not converged.
    """
    cfg = cfg or TrainConfig()
    return _train_stack([model], [data], cfg, [cfg.seed])[0]


def _saturated_fit(model: Model, data: Dataset, weights: np.ndarray,
                   theta: np.ndarray | None = None) -> bool:
    """Whether a logistic fit gives a positively weighted example a
    probability of exactly 0 or 1 on both sides, p and 1 - p as sigmoid(s)
    and sigmoid(-s): its loss, gradient and curvature terms are then
    exactly 0, so a zero gradient can mark an optimum at infinity (a
    separable fit) rather than a finite one. A p that merely rounds to 1
    (s above about 37) keeps its curvature and does not count."""
    if model.kind != "logistic":
        return False
    theta = model.params.data if theta is None else theta
    s = data.inputs[weights > 0.0] @ theta
    return bool(np.any(_sigmoid(s) * _sigmoid(-s) == 0.0))


def _train_stack(models: Sequence[Model], datas: Sequence[Dataset],
                 cfg: TrainConfig, seeds: Sequence[int]) -> list[Model]:
    """train() of each models[r] on datas[r] under cfg with seed seeds[r],
    as if alone. The models share a kind and an architecture, the data sets
    a size (checked on the first). The mlp's SGD runs the rows in lockstep
    (_sgd); the full-batch solve and its diagnostics are per row."""
    model, data = models[0], datas[0]
    if data.d_in != model.d_in or data.d_out != model.d_out:
        raise StructuralError(
            f"dataset is ({data.d_in} -> {data.d_out}) but the model is "
            f"({model.d_in} -> {model.d_out})")
    weights = (np.ones(data.n) if cfg.example_weights is None
               else np.asarray(cfg.example_weights, dtype=np.float64))
    if weights.shape != (data.n,):
        raise StructuralError("example_weights must have one entry per example")
    if np.any(weights < 0.0):
        raise StructuralError("example weights must be nonnegative")
    wsum = float(np.einsum("n->", weights))
    if wsum <= 0.0:
        raise StructuralError("example weights sum to zero")
    mlp = model.kind == "mlp"
    thetas = np.stack([model.params.data for model in models])
    step = _sgd(model, datas, weights, thetas, seeds, cfg) if mlp else 0
    grad_tol = (cfg.grad_tol if cfg.grad_tol is not None
                else 1e-3 if mlp else 1e-10)
    tol = grad_tol if mlp else max(grad_tol, 1e-6)
    polish = cfg.steps if cfg.polish_steps is None else cfg.polish_steps
    trained = []
    for model, data, theta in zip(models, datas, thetas.copy()):
        evaluate = functools.partial(_loss_and_grad, model, data, weights,
                                     wsum)

        def newton_point(x, rows):
            value, grad = evaluate(x[0])
            matrix = (nll_hessian(model.with_params(x[0]), data.inputs,
                                  data.targets, weights) / wsum
                      if math.isfinite(value) else np.full((x.shape[1],) * 2,
                                                           math.nan))
            return np.array([value]), grad[None], matrix[None]

        outcomes = (np.unique(data.targets[weights > 0.0, 0]).tolist()
                    if model.kind == "bernoulli-rate" else None)
        try:
            if outcomes in ([0.0], [1.0]):
                theta[0] = abs(outcomes[0] - 2.0 ** -53)
                value, grad = evaluate(theta)
                result = NewtonResult(theta, value, 0, False,
                                      float(np.linalg.norm(grad)))
            elif mlp:
                result = lbfgs(evaluate, theta, polish, grad_tol)
            else:
                result = damped_newton(newton_point, theta[None], cfg.steps,
                                       grad_tol).row(0)
        except NumericalError as exc:
            raise TrainingError("non-finite loss or gradient where the "
                                "full-batch solve starts", step=step) from exc
        diagnostics = {"final_grad_norm": result.grad_norm,
                       "final_loss": result.value,
                       "steps": step + result.iterations,
                       "converged": result.grad_norm <= tol and not
                       _saturated_fit(model, data, weights, result.x)}
        trained.append(replace(model, diagnostics=diagnostics,
                               params=model.params.replace_data(result.x)))
    return trained
