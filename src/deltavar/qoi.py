"""Scalar quantities of interest sharing parameters with a trained model.

Explicit kinds (power, set-product, rollout-functional) differentiate through
the computation itself, in one vectorized numpy pass over a batch of inputs;
implicit kinds (fixed points, eigenvalues) use the implicit function theorem
and eigenvector sensitivity formulas instead of unrolling a solver.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .autodiff import ParameterVector, Tape, Var
from .delta_variance import GradientDelta
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateEigenvalueError,
    NumericalError,
    StructuralError,
)
from .models import (Model, _mlp_forward_cache, _mlp_layers, _sigmoid,
                     mlp_vjp, output_jacobian, predict)

ROLLOUT_FUNCTIONALS = ("power", "mean", "max")
EXPLICIT_KINDS = ("power", "set-product", "rollout")
EIGEN_GAP_TOL = 1e-8
EIGEN_SIZE_CAP = 64
_DRAW_STACK_BYTES = 1 << 24  # mlp activations per stack of parameter draws


# ---------------------------------------------------------------------------
# problem types for the implicit kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointProblem:
    """A parameterized iteration w <- step(theta, w) expected to converge.

    `step` must accept its arguments either as floats or as tape variables
    (use the autodiff module functions for nonlinearities), so the same
    callable drives both the numeric solve and the Jacobian extraction.
    `component` selects which coordinate of the fixed point is the scalar
    quantity.
    """

    step: Callable
    params: ParameterVector
    w0: np.ndarray
    tol: float = 1e-12
    max_iters: int = 100_000
    component: int = 0

    def __post_init__(self):
        w0 = np.atleast_1d(np.asarray(self.w0, dtype=np.float64))
        if w0.ndim != 1 or not np.all(np.isfinite(w0)):
            raise StructuralError("w0 must be a finite vector")
        if self.tol <= 0.0 or self.max_iters < 1:
            raise StructuralError("tolerance and max_iters must be positive")
        if not 0 <= self.component < w0.size:
            raise StructuralError("component index outside the state vector")
        object.__setattr__(self, "w0", w0)


@dataclass(frozen=True)
class EigenProblem:
    """A chain of point masses between walls, coupled by springs.

    With n masses there are n+1 springs; the system matrix is A = M^-1 K for
    M = diag(masses) and the tridiagonal stiffness matrix K. `index` selects
    an eigenvalue of A in ascending order.
    """

    masses: np.ndarray
    stiffnesses: np.ndarray
    index: int

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        k = np.asarray(self.stiffnesses, dtype=np.float64)
        if m.ndim != 1 or k.ndim != 1 or k.size != m.size + 1:
            raise StructuralError(
                "a chain of n masses needs exactly n+1 stiffnesses")
        if m.size > EIGEN_SIZE_CAP:
            raise StructuralError(f"chains are capped at {EIGEN_SIZE_CAP} masses")
        if np.any(m <= 0.0) or np.any(k <= 0.0):
            raise StructuralError("masses and stiffnesses must be positive")
        if not 0 <= self.index < m.size:
            raise StructuralError("eigen index outside range")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "stiffnesses", k)

    @property
    def n(self) -> int:
        return self.masses.size

    def parameter_vector(self) -> ParameterVector:
        data = np.concatenate([self.masses, self.stiffnesses])
        blocks = (("masses", 0, self.n), ("stiffnesses", self.n, self.n + 1))
        return ParameterVector(data, blocks)


# ---------------------------------------------------------------------------
# the QoI container and registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantityOfInterest:
    kind: str
    model: Model | None
    config: Mapping = field(default_factory=dict)

    @functools.cached_property
    def qoi_id(self) -> str:
        """Canonical registry string: kind plus sorted scalar settings.
        Computed once per quantity (the instance is frozen)."""
        shown = {k: v for k, v in self.config.items()
                 if isinstance(v, (int, float, str))}
        if not shown:
            return self.kind
        parts = ",".join(f"{k}={shown[k]}" for k in sorted(shown))
        return f"{self.kind}:{parts}"


def make_qoi(kind: str, model: Model | None = None, **config) -> QuantityOfInterest:
    """Build and validate a quantity of interest."""
    if kind == "power":
        if model is None or model.d_out != 1:
            raise StructuralError("power quantities need a scalar-output model")
        exponent = float(config.get("exponent", 1.0))
        if not math.isfinite(exponent):
            raise StructuralError("exponent must be finite")
        return QuantityOfInterest(kind, model, {"exponent": exponent})
    if kind == "set-product":
        if model is None or model.d_out != 1:
            raise StructuralError("set products need a scalar-output model")
        return QuantityOfInterest(kind, model, {})
    if kind == "rollout":
        if model is None or model.kind != "mlp" or model.d_in != model.d_out:
            raise StructuralError(
                "rollouts need an mlp step model with matching input and "
                "output width")
        functional = config.get("functional", "power")
        if functional not in ROLLOUT_FUNCTIONALS:
            raise StructuralError(f"unknown rollout functional {functional!r}")
        horizon = int(config.get("horizon", 1))
        if horizon < 1:
            raise StructuralError("horizon must be at least 1")
        cfg = {"functional": functional, "horizon": horizon}
        if functional in ("power", "max"):
            component = int(config.get("component", 0))
            if not 0 <= component < model.d_in:
                raise StructuralError("component outside the state vector")
            cfg["component"] = component
        if functional == "power":
            cfg["exponent"] = float(config.get("exponent", 1.0))
        if functional == "max":
            window = int(config.get("window", horizon))
            if not 1 <= window <= horizon:
                raise StructuralError("window must lie in 1..horizon")
            cfg["window"] = window
        return QuantityOfInterest(kind, model, cfg)
    if kind == "fixed-point":
        problem = config.get("problem")
        if not isinstance(problem, FixedPointProblem):
            raise StructuralError("fixed-point quantities need a problem=...")
        return QuantityOfInterest(kind, model, {"problem": problem})
    if kind == "eigenvalue":
        problem = config.get("problem")
        if not isinstance(problem, EigenProblem):
            raise StructuralError("eigenvalue quantities need a problem=...")
        return QuantityOfInterest(kind, model, {"problem": problem})
    raise StructuralError(f"unknown quantity kind {kind!r}")


def parse_qoi(text: str, model: Model | None = None) -> QuantityOfInterest:
    """Parse a registry id like 'rollout:functional=power,horizon=2'."""
    text = text.strip()
    if not text:
        raise ConfigError("empty quantity id")
    kind, _, rest = text.partition(":")
    config = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConfigError(f"malformed quantity setting {item!r}")
            config[key.strip()] = _parse_scalar(value.strip())
    try:
        return make_qoi(kind.strip(), model, **config)
    except (StructuralError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid quantity id {text!r}: {exc}") from exc


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# explicit kinds: values
# ---------------------------------------------------------------------------

def input_rows(model: Model, zs) -> np.ndarray:
    """A batch of inputs as rows; a flat vector is a column of scalar inputs
    for a one-input model and one input otherwise."""
    if zs is None:
        raise StructuralError("an explicit quantity needs an input z")
    zb = np.asarray(zs, dtype=np.float64)
    if zb.ndim < 2:
        zb = zb.reshape((-1, 1) if model.d_in == 1 else (1, -1))
    if zb.ndim != 2 or zb.shape[1] != model.d_in:
        raise StructuralError(f"inputs must have width {model.d_in}")
    return zb


def _rollout(u: QuantityOfInterest, zb: np.ndarray, forward,
             with_grad: bool = False):
    """Run the trajectory zb -> forward(zb) -> ... for the horizon and apply
    the functional: the values and, with_grad, the injections
    d value / d state_t as one (horizon+1, n, width) array.

    The functionals read only the last (state) axis, so a forward that
    returns a (K, n, width) stack, one trajectory per parameter row or
    dropout pass, gives (K, n) values; the injections need a forward that
    keeps the (n, width) shape.
    """
    cfg = u.config
    horizon = cfg["horizon"]
    states = [zb]
    for _ in range(horizon):
        states.append(forward(states[-1]))
    inject = np.zeros((horizon + 1,) + zb.shape) if with_grad else None
    if cfg["functional"] == "power":
        c, p = cfg["component"], cfg["exponent"]
        base = states[horizon][..., c]
        values = _power(base, p)
        if with_grad:
            inject[horizon, :, c] = p * _power(base, p - 1.0)
    elif cfg["functional"] == "mean":
        values = states[horizon].mean(axis=-1)
        if with_grad:
            inject[horizon] = 1.0 / zb.shape[1]
    else:  # max over the trailing window
        c, w = cfg["component"], cfg["window"]
        t0 = horizon - w + 1
        window_vals = np.stack([states[t][..., c] for t in range(t0, horizon + 1)])
        best = np.argmax(window_vals, axis=0)  # first maximum on ties
        values = np.take_along_axis(window_vals, best[None], axis=0)[0]
        if with_grad:
            inject[t0 + best, np.arange(zb.shape[0]), c] = 1.0
    return values, inject


def _rollout_values_and_deltas(u: QuantityOfInterest, z_batch: np.ndarray):
    """Values and per-example deltas of a rollout by one reverse sweep: the
    forward of each step writes its layer inputs into per-layer (T, n,
    width) stacks, and one mlp_vjp call runs the steps back and forms each
    layer's gradient once over the horizon."""
    model, horizon = u.model, u.config["horizon"]
    layers = _mlp_layers(model)
    stacks = [np.empty((horizon, z_batch.shape[0], width))
              for width in model.hyper["widths"][:-1]]
    steps = iter(range(horizon))

    def forward(x):
        out, h_ins, _ = _mlp_forward_cache(model, x, layers=layers)
        t = next(steps)
        for stack, h in zip(stacks, h_ins):
            stack[t] = h
        return out

    values, inject = _rollout(u, z_batch, forward, with_grad=True)
    return values, mlp_vjp(model, stacks, layers, inject[1:],
                           per_example=True)[0]


def _power(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent, refusing negative bases under non-integer exponents
    (the power has no real value there)."""
    if not float(exponent).is_integer() and np.any(base < 0.0):
        raise NumericalError(
            f"a negative value has no real power {exponent!r}")
    return base ** exponent


def _power_values_and_deltas(u: QuantityOfInterest, xs: np.ndarray):
    """out(x)^p and p out^(p-1) d out / d theta, one row per input."""
    outs, jac = output_jacobian(u.model, xs)
    p = u.config["exponent"]
    return _power(outs, p), (p * _power(outs, p - 1.0))[:, None] * jac


def _set_product_value_and_delta(u: QuantityOfInterest, xs: np.ndarray):
    """prod_i out(x_i) over the whole set and its gradient, shapes (1,) and
    (1, d).

    d prod / d out_i = prod_{j != i} out_j comes from prefix and suffix
    products, never by division, so zero outputs stay exact.
    """
    outs, jac = output_jacobian(u.model, xs)
    prefix = np.concatenate([[1.0], np.cumprod(outs[:-1])])
    suffix = np.concatenate([np.cumprod(outs[:0:-1])[::-1], [1.0]])
    return np.prod(outs, keepdims=True), ((prefix * suffix) @ jac)[None]


def qoi_values(u: QuantityOfInterest, zs, forward=None) -> np.ndarray:
    """Values of an explicit quantity under one input-to-output map.

    One value per row of zs for power and rollouts; a set-product takes the
    rows as one set and returns one value. A flat vector is a column of
    scalar inputs for a one-input model. `forward` maps an (n, d_in) input
    matrix to the (n, d_out) outputs and defaults to the model's predict;
    the baselines pass resampled or masked networks and the scenarios the
    true system, so every path evaluates the same quantity. A forward that
    returns a stack (K, n, d_out) instead, and for a rollout also maps
    (K, n, d_in) states, gives K rows of values, one per stacked network.
    """
    if u.kind not in EXPLICIT_KINDS:
        raise StructuralError(f"{u.kind} quantities have no explicit value "
                              "under a model forward pass")
    return _values_of_rows(u, input_rows(u.model, zs), forward)


def _values_of_rows(u: QuantityOfInterest, zb: np.ndarray, forward=None):
    if forward is None:
        forward = functools.partial(predict, u.model)
    if u.kind == "rollout":
        return _rollout(u, zb, forward)[0]
    outs = forward(zb)[..., 0]
    if u.kind == "power":
        return _power(outs, u.config["exponent"])
    return np.prod(outs, axis=-1, keepdims=True)


def _stacked_forward(model: Model, thetas: np.ndarray):
    """The forward of every parameter row at once: maps inputs (n, d_in),
    or (K, n, d_in) for the mlp, to outputs (K, n, d_out) for the K rows of
    thetas. On the mlp each row has the bits of its own predict; the
    generalized linear kinds serve only the scalar quantities here, as one
    closed-form product over all rows and inputs.
    """
    if model.kind == "mlp":
        return lambda xs: _mlp_forward_cache(model, xs, thetas)[0]

    def forward(xs):
        if model.kind == "bernoulli-rate":
            return np.broadcast_to(thetas[:, None],
                                   (thetas.shape[0], xs.shape[0], 1))
        outs = thetas @ xs.T
        return (_sigmoid(outs) if model.kind == "logistic" else outs)[..., None]

    return forward


def _no_input(u: QuantityOfInterest, z) -> None:
    if u.kind == "eigenvalue" and z is not None:
        raise StructuralError(
            "eigenvalue quantities take no input; use value_batch_params or "
            "eigenvalue_delta(problem, theta) for other parameters")


def qoi_value(u: QuantityOfInterest, z=None) -> float:
    """The scalar value at the trained parameters (no gradient work): power
    and rollouts at the first row of z, set-product over all rows, with
    rows as input_rows reads them. Fixed points ignore z; eigenvalues
    refuse one."""
    _no_input(u, z)
    if u.kind in EXPLICIT_KINDS:
        zb = input_rows(u.model, z)
        return float(_values_of_rows(u, zb if u.kind == "set-product"
                                     else zb[:1])[0])
    if u.kind == "fixed-point":
        problem = u.config["problem"]
        w_star, _ = solve_fixed_point(problem)
        return float(w_star[problem.component])
    if u.kind == "eigenvalue":
        problem = u.config["problem"]
        theta = problem.parameter_vector().data
        return float(_eigen_value_batch(problem, theta[None, :])[0])
    raise StructuralError(f"unknown quantity kind {u.kind!r}")


def qoi_value_and_delta(u: QuantityOfInterest, z=None):
    """Value and parameter gradient at the model's trained parameters.

    Explicit kinds run a vectorized reverse pass: power and rollouts on the
    first row of z, set-product over all rows as one set, with rows as
    input_rows reads them. Implicit kinds use
    their dedicated formulas: fixed points ignore z, eigenvalues refuse one.
    Returns the value and a GradientDelta labeled with the quantity id.
    """
    _no_input(u, z)
    if u.kind in EXPLICIT_KINDS:
        zb = input_rows(u.model, z)
        values, deltas = _values_and_deltas_of_rows(
            u, zb if u.kind == "set-product" else zb[:1])
        return float(values[0]), GradientDelta(deltas[0], source=u.qoi_id,
                                               input_id=_input_label(z))
    if u.kind == "fixed-point":
        problem = u.config["problem"]
        w_star, _ = solve_fixed_point(problem)
        delta = implicit_delta(problem, w_star=w_star)
        return float(w_star[problem.component]), delta
    if u.kind == "eigenvalue":
        return eigenvalue_delta(u.config["problem"])
    raise StructuralError(f"unknown quantity kind {u.kind!r}")


def _input_label(z) -> str:
    arr = np.asarray(z, dtype=np.float64).ravel()
    if arr.size == 1:
        return repr(float(arr[0]))
    return ",".join(repr(float(v)) for v in arr)


def values_and_deltas(u: QuantityOfInterest, zs):
    """Batched values and gradients: one row per input for power and
    rollouts, one row for a set-product, whose rows form one set.

    Explicit kinds run a single vectorized forward/backward over the whole
    batch. The implicit kinds have no inputs to batch over and are refused;
    qoi_value_and_delta gives their one value and gradient.
    """
    if u.kind not in EXPLICIT_KINDS:
        raise StructuralError(
            f"{u.kind} quantities take no batch of inputs; use "
            "qoi_value_and_delta for their value and gradient")
    return _values_and_deltas_of_rows(u, input_rows(u.model, zs))


def _values_and_deltas_of_rows(u: QuantityOfInterest, zb: np.ndarray):
    if u.kind == "power":
        return _power_values_and_deltas(u, zb)
    if u.kind == "set-product":
        return _set_product_value_and_delta(u, zb)
    return _rollout_values_and_deltas(u, zb)


def value_batch_params(u: QuantityOfInterest, thetas: np.ndarray,
                       z=None) -> np.ndarray:
    """Quantity values at many parameter points, one per row of thetas
    (posterior draws, leave-one-out and down-weighted retrains).

    Explicit kinds run a stacked forward over the rows (_stacked_forward;
    on the mlp in chunks of rows, which bounds the activations) and read z
    as qoi_value does: power and rollouts at its first row, set-product
    over all rows. On the mlp each value has the bits of qoi_value on the
    model rebound to its row. Eigenvalue chains take one batched eigensolve
    and refuse a z; fixed points re-bind the problem per row.
    """
    _no_input(u, z)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if u.kind == "eigenvalue":
        return _eigen_value_batch(u.config["problem"], thetas)
    if u.kind == "fixed-point":
        problem = u.config["problem"]
        values = np.empty(thetas.shape[0])
        for i, theta in enumerate(thetas):
            if theta.size != problem.params.dim:
                raise StructuralError("parameter rows do not match the "
                                      "fixed-point problem")
            rebound = dataclasses.replace(
                problem, params=ParameterVector(theta, problem.params.blocks))
            values[i] = qoi_value(
                QuantityOfInterest(u.kind, None, {"problem": rebound}), z)
        return values
    if thetas.ndim != 2 or thetas.shape[1] != u.model.params.dim:
        raise StructuralError(
            f"parameter rows of shape {thetas.shape} do not fit the "
            f"{u.model.kind} model's parameters of shape "
            f"{u.model.params.data.shape}")
    zb = input_rows(u.model, z)
    if u.kind != "set-product":
        zb = zb[:1]
    step = max(len(thetas), 1)
    if u.model.kind == "mlp":
        # rows are independent in the stacked forward, so draws taken in
        # chunks keep their bits; a chunk's activations, (chunk, n, width)
        # per layer plus two temporaries of the widest layer and a
        # rollout's states, stay within _DRAW_STACK_BYTES
        widths = u.model.hyper["widths"]
        per_draw = 8 * len(zb) * (sum(widths) + 2 * max(widths)
                                  + u.config.get("horizon", 0) * widths[-1])
        step = max(1, _DRAW_STACK_BYTES // per_draw)
    values = np.empty(len(thetas))
    for start in range(0, len(thetas), step):
        rows = slice(start, start + step)
        values[rows] = _values_of_rows(
            u, zb, _stacked_forward(u.model, thetas[rows]))[:, 0]
    return values


# ---------------------------------------------------------------------------
# fixed points through the implicit function theorem
# ---------------------------------------------------------------------------

def solve_fixed_point(problem: FixedPointProblem):
    """Iterate the map to convergence; returns (w_star, iterations)."""
    theta = problem.params.data
    w = problem.w0.copy()
    for iteration in range(problem.max_iters):
        w_next = np.atleast_1d(np.asarray(problem.step(theta, w),
                                          dtype=np.float64))
        if w_next.shape != w.shape:
            raise StructuralError("step changed the state dimension")
        if not np.all(np.isfinite(w_next)):
            raise NumericalError("fixed-point iteration diverged")
        residual = float(np.max(np.abs(w_next - w)))
        w = w_next
        if residual <= problem.tol:
            return w, iteration + 1
    raise ConvergenceError(
        f"no fixed point within {problem.max_iters} iterations "
        f"(last residual {residual:.3e})")


def _step_jacobians(problem: FixedPointProblem, w_star: np.ndarray):
    """J_w and J_theta of the step map at (theta, w_star), via the tape."""
    theta_data = problem.params.data
    dim_w = w_star.size
    dim_t = theta_data.size
    tape = Tape()
    both = tape.inputs(np.concatenate([theta_data, w_star]))
    theta_vars = both[:dim_t]
    w_vars = both[dim_t:]
    out = problem.step(theta_vars, w_vars)
    out = list(np.atleast_1d(out))
    if len(out) != dim_w:
        raise StructuralError("step changed the state dimension")
    j_w = np.empty((dim_w, dim_w))
    j_t = np.empty((dim_w, dim_t))
    for row, component in enumerate(out):
        if isinstance(component, Var):
            g = tape.grad(component, both)
        else:  # a constant component has no dependence at all
            g = np.zeros(dim_t + dim_w)
        j_t[row] = g[:dim_t]
        j_w[row] = g[dim_t:]
    return j_w, j_t


def implicit_delta(problem: FixedPointProblem, w_star: np.ndarray | None = None,
                   ) -> GradientDelta:
    """d w*[component] / d theta by differentiating w* = step(theta, w*)."""
    if w_star is None:
        w_star, _ = solve_fixed_point(problem)
    j_w, j_t = _step_jacobians(problem, w_star)
    lhs = np.eye(w_star.size) - j_w
    try:
        sensitivity = np.linalg.solve(lhs, j_t)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "I - J_w is singular at the fixed point; the sensitivity is "
            "not defined there") from exc
    return GradientDelta(sensitivity[problem.component],
                         source="fixed-point",
                         input_id=f"component={problem.component}")


# ---------------------------------------------------------------------------
# eigenvalues of the mass chain
# ---------------------------------------------------------------------------

def _chain_forms(n: int, thetas: np.ndarray) -> np.ndarray:
    """The symmetric forms M^-1/2 K M^-1/2 (draws, n, n) of n-mass chains at
    many (masses, stiffnesses) rows; each is similar to A = M^-1 K, so its
    spectrum is A's, real and sorted by a symmetric eigensolve. M^-1/2 needs
    positive masses: a row with a mass <= 0 is refused.
    """
    if thetas.shape[1] != 2 * n + 1:
        raise StructuralError(
            "parameter vectors must hold n masses then n+1 stiffnesses")
    masses = thetas[:, :n]
    if not np.all(masses > 0.0):
        raise StructuralError("masses must be positive")
    stiff = thetas[:, n:]
    scale = 1.0 / np.sqrt(masses)
    sym = np.zeros((thetas.shape[0], n, n))
    idx = np.arange(n)
    sym[:, idx, idx] = (stiff[:, :-1] + stiff[:, 1:]) / masses
    if n > 1:
        coupling = -stiff[:, 1:-1] * scale[:, :-1] * scale[:, 1:]
        sym[:, idx[:-1], idx[1:]] = coupling
        sym[:, idx[1:], idx[:-1]] = coupling
    return sym


def eigenvalue_delta(problem: EigenProblem, theta: np.ndarray | None = None):
    """Selected chain eigenvalue and its gradient in (masses, stiffnesses).

    For K phi = lambda M phi with phi' M phi = 1, d lambda = phi' (dK -
    lambda dM) phi, and phi = M^-1/2 v for the unit eigenvector v of the
    symmetric form: -lambda phi_j^2 for mass j and (phi_j - phi_{j-1})^2
    for spring j, both walls at 0. An eigenvalue within EIGEN_GAP_TOL of a
    neighbor is refused: the derivative is undefined at a crossing.
    """
    n, index = problem.n, problem.index
    theta = (problem.parameter_vector().data if theta is None
             else np.asarray(theta, dtype=np.float64).ravel())
    if not np.all(theta > 0.0):
        raise StructuralError("masses and stiffnesses must be positive")
    values, vectors = np.linalg.eigh(_chain_forms(n, theta[None, :])[0])
    gap = np.diff(values[max(index - 1, 0):index + 2]).min(initial=np.inf)
    if gap < EIGEN_GAP_TOL:
        raise DegenerateEigenvalueError(
            f"eigenvalue {index} is within {gap:.3e} of its neighbor; "
            "sensitivities are undefined at a crossing")
    phi = vectors[:, index] / np.sqrt(theta[:n])
    spring_stretch = np.diff(np.concatenate([[0.0], phi, [0.0]]))
    grad = np.concatenate([-values[index] * phi ** 2, spring_stretch ** 2])
    delta = GradientDelta(grad, source="eigenvalue", input_id=f"index={index}")
    return float(values[index]), delta


def _eigen_value_batch(problem: EigenProblem, thetas: np.ndarray) -> np.ndarray:
    """Selected eigenvalue at many (masses, stiffnesses) points, vectorized."""
    return eigen_spectra(problem.n, thetas)[:, problem.index]


def eigen_spectra(n: int, thetas: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (draws, n) of n-mass chains at many
    (masses, stiffnesses) points; column i is the index-i quantity. One
    batched symmetric eigensolve of the chains' symmetric forms."""
    return np.linalg.eigvalsh(_chain_forms(n, thetas))
