"""Scalar-tape recordings of the model forward passes and the explicit
quantities: the reference the vectorized gradients are checked against.

Every operation is recorded one scalar at a time on an autodiff.Tape, so
the tape's reverse sweep gives each quantity's parameter gradient by a route
that shares no numpy code with models.mlp_vjp or qoi.values_and_deltas.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from deltavar import autodiff as ad
from deltavar.autodiff import Tape, Var
from deltavar.exceptions import StructuralError
from deltavar.models import Model
from deltavar.qoi import QuantityOfInterest, input_rows


def record_predict(model: Model, tape: Tape, theta: Sequence[Var], x) -> list[Var]:
    """Record the model's forward pass on a tape; returns d_out variables."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.d_in:
        raise StructuralError(f"expected a single input of length {model.d_in}")
    if len(theta) != model.params.dim:
        raise StructuralError("theta variable list does not match the parameter count")
    if model.kind == "bernoulli-rate":
        return [theta[0]]
    if model.kind == "linear-regression":
        d_in, d_out = model.d_in, model.d_out
        outs = []
        for j in range(d_out):
            acc = theta[j] * float(x[0])
            for i in range(1, d_in):
                acc = acc + theta[i * d_out + j] * float(x[i])
            outs.append(acc)
        return outs
    if model.kind == "logistic":
        acc = theta[0] * float(x[0])
        for i in range(1, model.d_in):
            acc = acc + theta[i] * float(x[i])
        one = tape.const(1.0)
        return [one / (one + ad.exp(-acc))]
    return record_mlp_layers(model, theta, [tape.const(float(v)) for v in x])


def record_mlp_layers(model: Model, theta: Sequence[Var], h: list) -> list[Var]:
    """Record one mlp forward pass on a tape from input variables h.

    The inputs may be constants (a single prediction) or variables produced
    by an earlier step (a rollout).
    """
    widths = model.hyper["widths"]
    cursor = 0
    n_layers = len(widths) - 1
    for layer in range(n_layers):
        n_in, n_out = widths[layer], widths[layer + 1]
        w_base, b_base = cursor, cursor + n_in * n_out
        nxt = []
        for j in range(n_out):
            acc = theta[b_base + j]
            for i in range(n_in):
                acc = acc + theta[w_base + i * n_out + j] * h[i]
            nxt.append(ad.tanh(acc) if layer < n_layers - 1 else acc)
        h = nxt
        cursor = b_base + n_out
    return h


def record_qoi(u: QuantityOfInterest, tape: Tape, theta, z) -> Var:
    """Record an explicit quantity at input z: power and rollouts on the
    first row, set-product over all rows."""
    model = u.model
    if u.kind == "power":
        x = input_rows(model, z)[0]
        out = record_predict(model, tape, theta, x)[0]
        return out ** u.config["exponent"]
    if u.kind == "set-product":
        xs = input_rows(model, z)
        prod = None
        for x in xs:
            out = record_predict(model, tape, theta, x)[0]
            prod = out if prod is None else prod * out
        return prod
    if u.kind == "rollout":
        x = input_rows(model, z)[0]
        cfg = u.config
        h = [tape.const(float(v)) for v in x]
        trajectory = []
        for _ in range(cfg["horizon"]):
            h = record_mlp_layers(model, theta, h)
            trajectory.append(h)
        if cfg["functional"] == "power":
            return trajectory[-1][cfg["component"]] ** cfg["exponent"]
        if cfg["functional"] == "mean":
            acc = trajectory[-1][0]
            for v in trajectory[-1][1:]:
                acc = acc + v
            return acc * (1.0 / model.d_in)
        t0 = cfg["horizon"] - cfg["window"]
        best = trajectory[t0][cfg["component"]]
        for step in trajectory[t0 + 1:]:
            best = ad.maximum(best, step[cfg["component"]])
        return best
    raise StructuralError(f"{u.kind} quantities have no explicit tape form")


def qoi_tape_delta(u: QuantityOfInterest, z=None) -> np.ndarray:
    """Gradient of an explicit quantity via the scalar tape."""
    tape = Tape()
    theta = tape.inputs(u.model.params.data)
    root = record_qoi(u, tape, theta, z)
    return tape.grad(root, theta)
