"""Ensemble and dropout variance baselines plus cost accounting.

Both baselines answer the same question as the quadratic-form estimator
(how much does u(z) move under plausible parameter changes) by brute force:
ensembles retrain K times, dropout perturbs activations K times. They anchor
the cost/quality comparisons.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .exceptions import StructuralError
from .models import (Dataset, Model, TrainConfig, _train_stack, make_model,
                     predict)
from .qoi import QuantityOfInterest, qoi_values

ENSEMBLE_MODES = ("init-only", "bootstrap-resample")
DEFAULT_MEMBERS = 10


@dataclass(frozen=True)
class EnsembleState:
    """K independently trained members plus the seeds that produced them."""

    members: tuple[Model, ...]
    seeds: tuple[int, ...]
    mode: str

    def __post_init__(self):
        if len(self.members) < 2:
            raise StructuralError("an ensemble needs at least two members")
        if self.mode not in ENSEMBLE_MODES:
            raise StructuralError(f"unknown ensemble mode {self.mode!r}")
        if len(self.seeds) != len(self.members):
            raise StructuralError("one seed per member")

    @property
    def k(self) -> int:
        return len(self.members)


def train_ensemble(model: Model, data: Dataset, k: int = DEFAULT_MEMBERS,
                   mode: str = "init-only", seed: int = 0,
                   train_cfg: TrainConfig | None = None) -> EnsembleState:
    """Train K members from a template model.

    init-only reinitializes parameters per member (a fresh draw for the mlp;
    deterministic inits make convex members identical, which is the honest
    degenerate case). bootstrap-resample additionally refits each member on
    an N-out-of-N with-replacement resample. The mlp members run their SGD
    in lockstep as one stack (models._train_stack), each on the bits it
    would reach trained alone; the polish stays per member.
    """
    if k < 2:
        raise StructuralError("an ensemble needs at least two members")
    if mode not in ENSEMBLE_MODES:
        raise StructuralError(f"unknown ensemble mode {mode!r}")
    cfg = train_cfg or TrainConfig()
    children = np.random.SeedSequence(seed).spawn(k)
    seeds = [int(child.generate_state(1)[0]) for child in children]
    templates = [model] * k
    if model.kind == "mlp":
        templates = [make_model(
            "mlp", d_in=model.d_in, d_out=model.d_out,
            hidden=tuple(model.hyper["widths"][1:-1]), seed=member_seed)
            for member_seed in seeds]
    datas = [data] * k
    if mode == "bootstrap-resample":
        rows = [np.random.default_rng(child).integers(0, data.n, data.n)
                for child in children]
        datas = [Dataset(data.inputs[idx], data.targets[idx]) for idx in rows]
    members = _train_stack(templates, datas, cfg, seeds)
    return EnsembleState(members=tuple(members), seeds=tuple(seeds),
                         mode=mode)


def ensemble_variance_batch(ens: EnsembleState, u: QuantityOfInterest,
                            zs) -> np.ndarray:
    """Unbiased variance of u across members, one entry per z row (one for
    a whole set-product set)."""
    for member in ens.members:
        if member.diagnostics is None:
            raise StructuralError("ensemble member was never trained")
    values = np.stack([qoi_values(u, zs, forward=partial(predict, member))
                       for member in ens.members])
    return np.var(values, axis=0, ddof=1)


def _dropout_passes(model: Model, u: QuantityOfInterest, zs,
                    k: int, rate: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Values under k stochastic passes, shape (k, queries), or (k, 1) for
    a set-product, whose rows are one set per pass.

    The k passes share one tiled forward: dropout masks are independent per
    row, so k copies of the (n, d_in) query batch, or the (k, n, d_in)
    states of a rollout, run as one (k n, d_in) masked pass whose outputs
    split back into the k passes.
    """
    def masked(x):
        rows = np.tile(x, (k, 1)) if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        return predict(model, rows, rng=rng,
                       dropout_rate=rate).reshape(k, -1, model.d_out)

    return qoi_values(u, zs, forward=masked)


def dropout_variance_batch(model: Model, u: QuantityOfInterest, zs,
                           k: int = DEFAULT_MEMBERS, rate: float = 0.1,
                           seed: int = 0) -> np.ndarray:
    """Variance of u over k stochastic dropout passes, per z row."""
    if model.kind != "mlp":
        raise StructuralError("dropout needs an mlp (masks are inserted "
                              "post-hoc at evaluation time)")
    if not 0.0 < rate < 1.0:
        raise StructuralError("dropout rate must lie strictly in (0, 1)")
    if k < 2:
        raise StructuralError("need at least two dropout passes")
    rng = np.random.default_rng(seed)
    values = _dropout_passes(model, u, zs, k, rate, rng)
    return np.var(values, axis=0, ddof=1)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def cost_accounting(method: str, workload: Callable[[], object] | None = None,
                    k: int = DEFAULT_MEMBERS, repeats: int = 5) -> dict:
    """Counted primitives per variance query, plus measured wall-clock.

    The counts follow from what each method must do: one gradient pass for
    the quadratic form, K forward evaluations for the resampling baselines,
    K retained parameter sets for an ensemble. `workload`, when given, is a
    zero-argument callable running one full batch of variance queries; its
    median wall-clock over `repeats` runs lands in the "seconds" key.
    """
    if method in ("delta", "delta-finetuned"):
        profile = {"method": method, "train_overhead": 1.0,
                   "inference_evals": 0, "inference_grads": 1,
                   "memory_factor": 1.0}
    elif method == "ensemble":
        profile = {"method": method, "train_overhead": float(k),
                   "inference_evals": k, "inference_grads": 0,
                   "memory_factor": float(k)}
    elif method == "dropout":
        profile = {"method": method, "train_overhead": 1.0,
                   "inference_evals": k, "inference_grads": 0,
                   "memory_factor": 1.0}
    else:
        raise StructuralError(f"unknown method {method!r}")
    if workload is not None:
        if repeats < 1:
            raise StructuralError("repeats must be positive")
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            workload()
            times.append(time.perf_counter() - start)
        profile["seconds"] = statistics.median(times)
    return profile
