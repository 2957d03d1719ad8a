"""Benchmark scenarios: generators, method sweeps, deterministic reports.

Three desk-scale scenarios exercise the estimator family end to end. The
survival scenario tracks a tenth-power rate quantity against its exact
posterior variance over a grid of sample sizes. The dynamics scenario trains
a one-step network on a damped driven oscillator and sweeps rollout
quantities across horizons and methods. The eigen scenario perturbs a
mass-spring chain and compares the quadratic form against Monte Carlo.

Every run is seed-deterministic: rerunning a scenario with the same seed
writes byte-identical report files, regardless of the worker pool size.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__
from .baselines import (EnsembleState, cost_accounting,
                        dropout_variance_batch, ensemble_variance_batch,
                        train_ensemble)
from .covariance import CovarianceEstimate, canonical_sigma, empirical_fisher
from .delta_variance import block_variances, delta_variance, finetune_scales
from .evaluation import (error_correlation, fit_laplace_calibration,
                         improvement, laplace_logp, retention_auc,
                         retention_curve, standard_error)
from .exceptions import ConfigError, StructuralError
from .models import Dataset, Model, TrainConfig, make_model, train
from .oracles import variance_standard_error
from .qoi import (EigenProblem, eigen_spectra, eigenvalue_delta,
                  make_qoi, qoi_value_and_delta, qoi_values,
                  values_and_deltas)
from .util import (format_float, ordered_parallel_map, spawn_seeds,
                   stable_json_dumps)

SCENARIO_KINDS = ("survival", "dynamics", "eigen")
REG_GRID = tuple(10.0 ** k for k in range(-15, 10))
TRAJ_STEPS = 10
INTEGRATION_STEP = 0.1
REPORT_COLUMNS = ("scenario", "input_id", "qoi_id", "method", "sigma_kind",
                  "oracle_kind", "reg", "value", "error")
_COST_KEYS = ("train_overhead", "inference_evals", "inference_grads",
              "memory_factor")

_DEFAULTS = {
    "survival": {
        "n_grid": (10, 100, 1000, 10_000, 100_000),
        "rate": 0.9,
        "exponent": 10.0,
        "members": 10,
        "train_steps": 2000,
    },
    "dynamics": {
        "n_pairs": 1500,
        "noise": 0.01,
        "hidden": (24,),
        "train_steps": 3000,
        "horizons": (1, 2, 3, 4, 5),
        "exponent": 3.0,
        "component": 0,
        "members": 10,
        "dropout_rate": 0.1,
        "dropout_passes": 10,
        "calibration_steps": 2000,
        "selection_steps": 300,
    },
    "eigen": {
        "masses": (1.0, 1.0, 1.0, 1.0, 1.0),
        "stiffnesses": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        "perturb_var": 1e-2,
        "mc_samples": 100_000,
    },
}


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------

def true_step(x: np.ndarray) -> np.ndarray:
    """One Euler step of a damped driven oscillator with quadratic coupling.

    State (position, velocity, auxiliary mode). The coupling terms are skew
    (x1*x3 into the velocity, -x1*x2 into the mode), so they move energy
    between components without creating any; damping on velocity and mode
    keeps every trajectory bounded. The constant drive puts the rest point
    away from the origin.
    """
    x = np.asarray(x, dtype=np.float64)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    d = np.stack([
        x2,
        -1.2 * x1 - 0.6 * x2 + 0.3 * x1 * x3 + 0.5,
        -0.4 * x3 - 0.3 * x1 * x2,
    ], axis=-1)
    return x + INTEGRATION_STEP * d


def simulate(x0: np.ndarray, steps: int) -> np.ndarray:
    """Trajectory of the true system: (steps+1, ...) states, x0 first."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.empty((steps + 1,) + x0.shape)
    out[0] = x0
    for t in range(steps):
        out[t + 1] = true_step(out[t])
    return out


@dataclass(frozen=True)
class SplitData:
    """Disjoint train/validation/evaluation datasets, split by trajectory."""

    train: Dataset
    validation: Dataset
    evaluation: Dataset


def _dynamics_raw(seed: int, n: int, noise: float):
    """Trajectory tensor, noisy targets and the split permutation."""
    if n < 100:
        raise StructuralError(f"need at least 100 pairs, got {n}")
    if n % TRAJ_STEPS != 0:
        raise StructuralError(
            f"pair count must be a multiple of {TRAJ_STEPS} "
            f"(whole trajectories), got {n}")
    if not noise >= 0.0:
        raise StructuralError("observation noise must be nonnegative")
    n_traj = n // TRAJ_STEPS
    rng = np.random.default_rng(seed)
    inits = 0.5 * rng.standard_normal((n_traj, 3))
    # states: (TRAJ_STEPS+1, n_traj, 3); pairs are (x_t -> x_{t+1})
    states = simulate(inits, TRAJ_STEPS)
    inputs = np.swapaxes(states[:-1], 0, 1)          # (n_traj, TRAJ_STEPS, 3)
    targets = np.swapaxes(states[1:], 0, 1).copy()
    targets += noise * rng.standard_normal(targets.shape)
    perm = rng.permutation(n_traj)
    return inputs, targets, perm


def gen_dynamics(seed: int, n: int, noise: float = 0.01) -> Dataset:
    """n one-step pairs from the oscillator, observation noise on targets only."""
    inputs, targets, _ = _dynamics_raw(seed, n, noise)
    return Dataset(inputs.reshape(-1, 3), targets.reshape(-1, 3))


def gen_dynamics_splits(seed: int, n: int, noise: float = 0.01) -> SplitData:
    """The same pairs as gen_dynamics, split 70/15/15 by whole trajectory."""
    inputs, targets, perm = _dynamics_raw(seed, n, noise)
    n_traj = inputs.shape[0]
    n_val = max(1, round(0.15 * n_traj))
    n_eval = n_val
    n_train = n_traj - n_val - n_eval
    if n_train < 1:
        raise StructuralError(f"{n_traj} trajectories leave no training split")
    groups = (perm[:n_train], perm[n_train:n_train + n_val],
              perm[n_train + n_val:])
    parts = [Dataset(inputs[g].reshape(-1, 3), targets[g].reshape(-1, 3))
             for g in groups]
    return SplitData(*parts)


def survival_dataset(n: int, rate: float = 0.9) -> Dataset:
    """n binary outcomes with exactly round(rate*n) ones, inputs all zero."""
    if n < 2:
        raise StructuralError("need at least two outcomes")
    k = round(rate * n)
    if not 0 < k < n:
        raise StructuralError(f"rate {rate} rounds to a degenerate count at n={n}")
    y = np.zeros((n, 1))
    y[:k, 0] = 1.0
    return Dataset(np.zeros((n, 1)), y)


def survival_analytic_variance(n: int, rate: float = 0.9,
                               exponent: float = 10.0) -> float:
    """First-order variance of rate**exponent under the estimator's spread."""
    return rate * (1.0 - rate) / n * (exponent * rate ** (exponent - 1.0)) ** 2


def beta_posterior_variance(n: int, k: int, exponent: int = 10) -> float:
    """Exact posterior variance of theta**exponent under a flat prior.

    With k successes in n trials the posterior is Beta(k+1, n-k+1) and
    moments of integer powers telescope: E[theta^a] = prod_j (k+1+j)/(n+2+j).
    """
    if not 0 <= k <= n:
        raise StructuralError("success count must lie in [0, n]")
    if exponent < 1 or exponent != int(exponent):
        raise StructuralError("the closed form needs a positive integer exponent")
    p = int(exponent)

    def moment(a: int) -> float:
        num = np.arange(k + 1, k + 1 + a, dtype=np.float64)
        den = np.arange(n + 2, n + 2 + a, dtype=np.float64)
        return float(np.prod(num / den))

    return moment(2 * p) - moment(p) ** 2


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named benchmark configuration: kind, seed and resolved parameters."""

    kind: str
    seed: int
    params: Mapping

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; "
                              f"choose one of {SCENARIO_KINDS}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("scenario seed must be a nonnegative integer")
        object.__setattr__(self, "params", dict(self.params))


def make_scenario(kind: str, seed: int = 0, **overrides) -> Scenario:
    """Resolve a scenario from defaults plus keyword overrides."""
    if not isinstance(kind, str) or kind not in _DEFAULTS:
        raise ConfigError(f"unknown scenario kind {kind!r}; "
                          f"choose one of {SCENARIO_KINDS}")
    params = dict(_DEFAULTS[kind])
    unknown = set(overrides) - set(params)
    if unknown:
        raise ConfigError(
            f"unknown {kind} parameters {sorted(unknown)}; "
            f"valid keys are {sorted(params)}")
    for key, value in overrides.items():
        # the runners convert each value like its default; one that does not
        # convert, or is a string or a non-finite number, is a configuration
        # problem, found before anything runs
        default = params[key]
        many = isinstance(default, tuple)
        convert = type(default[0] if many else default)
        try:
            for v in (value if many else (value,)):
                if isinstance(v, str) or not math.isfinite(convert(v)):
                    raise ValueError("not a finite number")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{kind} parameter {key}={value!r} is not "
                              f"valid: {exc}") from exc
    params.update(overrides)
    for key in ("n_grid", "horizons", "hidden", "masses", "stiffnesses"):
        if key in params:
            params[key] = tuple(params[key])
    return Scenario(kind=kind, seed=seed, params=params)


# ---------------------------------------------------------------------------
# survival scenario
# ---------------------------------------------------------------------------

def _run_survival(scenario: Scenario):
    p = scenario.params
    exponent = float(p["exponent"])
    seeds = spawn_seeds(scenario.seed, 2 * len(p["n_grid"]))
    rows = []
    per_n = {}
    z = np.zeros(1)
    for i, n in enumerate(p["n_grid"]):
        n = int(n)
        data = survival_dataset(n, p["rate"])
        cfg = TrainConfig(steps=int(p["train_steps"]), seed=seeds[2 * i],
                          grad_tol=1e-12)
        model = train(make_model("bernoulli-rate"), data, cfg)
        u = make_qoi("power", model, exponent=exponent)
        _, delta = qoi_value_and_delta(u, z)
        sigma = canonical_sigma(model, data, mode="full")
        nu = delta_variance(delta, sigma)
        true_var = beta_posterior_variance(n, round(p["rate"] * n),
                                           int(exponent))
        ens = train_ensemble(model, data, k=int(p["members"]),
                             mode="bootstrap-resample", seed=seeds[2 * i + 1],
                             train_cfg=cfg)
        ens_var = float(ensemble_variance_batch(ens, u, z[None, :])[0])
        input_id = f"N={n}"
        rows.append((scenario.kind, input_id, u.qoi_id, "delta",
                     sigma.kind, "", sigma.reg, nu, None))
        rows.append((scenario.kind, input_id, u.qoi_id, "ensemble",
                     "", "", None, ens_var, None))
        rows.append((scenario.kind, input_id, u.qoi_id, "oracle",
                     "", "beta-posterior", None, true_var, None))
        per_n[input_id] = {
            "n": n,
            "delta_var": nu,
            "ensemble_var": ens_var,
            "true_var": true_var,
            "analytic_var": survival_analytic_variance(n, p["rate"], exponent),
            "delta_over_true": nu / true_var,
            "ensemble_over_true": ens_var / true_var,
        }
    metrics = {"per_n": per_n}
    return rows, metrics, {"sigma_kind": "fisher-full", "sigma_reg": 0.0}


# ---------------------------------------------------------------------------
# eigen scenario
# ---------------------------------------------------------------------------

_EIGEN_CHUNK = 8192  # Monte Carlo draws per batched eigensolve


def _run_eigen(scenario: Scenario):
    p = scenario.params
    masses = np.asarray(p["masses"], dtype=np.float64)
    stiff = np.asarray(p["stiffnesses"], dtype=np.float64)
    var = float(p["perturb_var"])
    if not var > 0.0:
        raise ConfigError("perturbation variance must be positive")
    samples = int(p["mc_samples"])
    if samples < 2:
        raise ConfigError("need at least two Monte Carlo samples")
    dim = masses.size + stiff.size
    base = np.concatenate([masses, stiff])
    rng = np.random.default_rng(spawn_seeds(scenario.seed, 1)[0])
    # base + sqrt(var) * z, the same products and sums, made in place
    thetas = rng.standard_normal((samples, dim))
    thetas *= math.sqrt(var)
    thetas += base
    # each chain is solved alone, so row chunks bound the forms' memory
    spectra = np.empty((samples, masses.size))
    for start in range(0, samples, _EIGEN_CHUNK):
        rows = slice(start, start + _EIGEN_CHUNK)
        spectra[rows] = eigen_spectra(masses.size, thetas[rows])
    sigma = CovarianceEstimate(
        kind="learned", values=np.full(dim, var), n_points=1, inverted=True,
        blocks=(("masses", 0, masses.size),
                ("stiffnesses", masses.size, stiff.size)))
    nus = sigma.quadratic_forms(np.stack([
        eigenvalue_delta(EigenProblem(masses, stiff, index))[1].vector
        for index in range(masses.size)]))
    rows, per_index = [], {}
    for index, nu in enumerate(nus.tolist()):
        draws = spectra[:, index]
        mc = float(np.var(draws, ddof=1))
        mc_se = variance_standard_error(draws)
        input_id = f"lambda{index}"
        qoi_id = f"eigenvalue:index={index}"
        rows.append((scenario.kind, input_id, qoi_id, "delta",
                     "learned", "", None, nu, None))
        rows.append((scenario.kind, input_id, qoi_id, "oracle",
                     "", "perturbation-mc", None, mc, None))
        per_index[input_id] = {
            "delta_var": nu, "mc_var": mc, "mc_se": mc_se,
            "rel_gap": abs(nu - mc) / mc,
        }
    metrics = {"per_index": per_index}
    return rows, metrics, {"sigma_kind": "learned",
                           "perturb_var": var, "mc_samples": samples}


# ---------------------------------------------------------------------------
# dynamics scenario
# ---------------------------------------------------------------------------

def _dynamics_qois(model: Model, params: Mapping):
    qois = []
    c = int(params["component"])
    for h in params["horizons"]:
        h = int(h)
        qois.append(make_qoi("rollout", model, functional="power",
                             component=c, exponent=float(params["exponent"]),
                             horizon=h))
        qois.append(make_qoi("rollout", model, functional="mean", horizon=h))
        qois.append(make_qoi("rollout", model, functional="max",
                             component=c, window=h, horizon=h))
    return qois


def true_functional(u, zs: np.ndarray) -> np.ndarray:
    """Ground-truth rollout quantity: the model-side functional with states
    advanced by the noiseless true_step instead of the learned network."""
    return qoi_values(u, zs, forward=true_step)


def _jackknife_se(metric, errors: np.ndarray, variances: np.ndarray) -> float:
    """Leave-one-point-out standard error of a (errors, variances) metric."""
    n = errors.size
    idx = np.arange(n)
    reps = np.array([metric(errors[idx != i], variances[idx != i])
                     for i in range(n)])
    return float(math.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2)))


def _select_regularizer(fisher_diag: np.ndarray, n_train: int,
                        val_deltas: list, val_targets: list,
                        val_values: list, steps: int):
    """Pick the ridge term by total validation log-likelihood.

    For each grid point the diagonal posterior surrogate is
    1 / ((fisher + reg) * N); a calibration is fit per quantity (at most
    `steps` iterations, every grid point and quantity in one stack) and the
    summed validation score decides. Ties keep the smallest ridge. Returns
    the chosen ridge and the score curve, one [reg, score] pair per grid
    point.
    """
    sigmas = [CovarianceEstimate(
        kind="fisher-diag", values=1.0 / ((fisher_diag + reg) * n_train),
        n_points=n_train, reg=reg, inverted=True) for reg in REG_GRID]
    nus = np.array([sigma.quadratic_forms(deltas) for sigma in sigmas
                    for deltas in val_deltas])
    ys, mus = np.array(val_targets), np.array(val_values)
    stack = len(REG_GRID)
    calibs = fit_laplace_calibration(np.tile(ys, (stack, 1)),
                                     np.tile(mus, (stack, 1)), nus,
                                     steps=steps)
    curve = []
    for g, reg in enumerate(REG_GRID):
        total = 0.0
        for q, (y, mu) in enumerate(zip(ys, mus)):
            j = g * len(ys) + q
            total += float(np.mean(laplace_logp(np.abs(y - mu), nus[j],
                                                calibs[j])))
        curve.append([reg, total])
    return max(curve, key=lambda pair: pair[1])[0], curve


@dataclass(frozen=True)
class _DynamicsHead:
    """Shared state of the dynamics scenario before any method sweep."""

    splits: SplitData
    model: Model
    train_cfg: TrainConfig
    qois: list
    sides: list
    y_val: list
    y_eval: list
    sigma: CovarianceEstimate
    reg: float
    reg_curve: list
    ensemble_seed: int
    dropout_seed: int


def _dynamics_head(scenario: Scenario) -> _DynamicsHead:
    p = scenario.params
    splits = gen_dynamics_splits(scenario.seed, int(p["n_pairs"]),
                                 float(p["noise"]))
    init_seed, train_seed, ens_seed, drop_seed = spawn_seeds(scenario.seed, 4)
    model = make_model("mlp", d_in=3, d_out=3, hidden=p["hidden"],
                       seed=init_seed)
    cfg = TrainConfig(steps=int(p["train_steps"]), seed=train_seed)
    model = train(model, splits.train, cfg)
    qois = _dynamics_qois(model, p)

    z_val = splits.validation.inputs
    z_eval = splits.evaluation.inputs

    def model_side(u):
        return (*values_and_deltas(u, z_val), *values_and_deltas(u, z_eval))

    sides = ordered_parallel_map(model_side, qois)
    y_val = [true_functional(u, z_val) for u in qois]
    y_eval = [true_functional(u, z_eval) for u in qois]

    fisher = empirical_fisher(model, splits.train, mode="diag")
    reg, reg_curve = _select_regularizer(
        fisher.values, splits.train.n,
        [s[1] for s in sides], y_val, [s[0] for s in sides],
        steps=int(p["selection_steps"]))
    sigma = canonical_sigma(model, splits.train, mode="diag", reg=reg)
    return _DynamicsHead(splits=splits, model=model, train_cfg=cfg,
                         qois=qois, sides=sides, y_val=y_val, y_eval=y_eval,
                         sigma=sigma, reg=reg, reg_curve=reg_curve,
                         ensemble_seed=ens_seed,
                         dropout_seed=drop_seed)


def finetune_report(scenario: Scenario) -> dict:
    """Per-quantity block scales fit on the validation split.

    Runs the dynamics head (train, gradients, ridge selection) and the
    accept-only scale fit, skipping the baseline sweeps. Keyed by quantity
    id; each entry carries the fitted scales and both objective values.
    """
    if scenario.kind != "dynamics":
        raise ConfigError("finetune reports exist for the dynamics scenario")
    head = _dynamics_head(scenario)
    return {u.qoi_id: {**_finetune(head, qi)[2], "sigma_reg": head.reg}
            for qi, u in enumerate(head.qois)}


def _dynamics_ensemble(head: _DynamicsHead, params: Mapping) -> EnsembleState:
    """The init-only ensemble that the dynamics methods are compared with."""
    return train_ensemble(head.model, head.splits.train,
                          k=int(params["members"]), mode="init-only",
                          seed=head.ensemble_seed, train_cfg=head.train_cfg)


def cost_report(scenario: Scenario, repeats: int) -> dict:
    """Measured cost profiles of the delta, dropout and ensemble methods.

    Runs the dynamics head and trains its ensemble, then times each method's
    variances (delta: gradients and forms on the head's sigma) for the last
    quantity on up to 32 evaluation inputs (cost_accounting, the median of
    `repeats` runs). Returns the batch size, the quantity id, one profile
    per method and a note on the timings.
    """
    if scenario.kind != "dynamics":
        raise ConfigError("cost profiles are measured on the dynamics scenario")
    if repeats < 1:
        raise ConfigError("repeats must be positive")
    p = scenario.params
    head = _dynamics_head(scenario)
    ens = _dynamics_ensemble(head, p)
    u = head.qois[-1]
    batch = min(32, head.splits.evaluation.n)
    z = head.splits.evaluation.inputs[:batch]
    passes = int(p["dropout_passes"])
    workloads = {
        "delta": (lambda: head.sigma.quadratic_forms(
            values_and_deltas(u, z)[1]), passes),
        "dropout": (lambda: dropout_variance_batch(
            head.model, u, z, k=passes, rate=float(p["dropout_rate"]),
            seed=0), passes),
        "ensemble": (lambda: ensemble_variance_batch(ens, u, z),
                     int(p["members"])),
    }
    profiles = {method: cost_accounting(method, workload=work, k=k,
                                        repeats=repeats)
                for method, (work, k) in workloads.items()}
    return {"batch": batch, "qoi": u.qoi_id, "profiles": profiles,
            "note": "seconds are wall-clock medians and vary between runs"}


def _finetune(head: _DynamicsHead, qi: int):
    """Log-likelihood block scales of quantity qi on the validation split:
    the per-block contributions, the scales and their report entry."""
    v_val, d_val = head.sides[qi][0], head.sides[qi][1]
    contrib = block_variances(d_val, head.sigma)
    scales = finetune_scales(contrib, [b[0] for b in head.sigma.blocks],
                             np.abs(head.y_val[qi] - v_val))
    return contrib, scales, {
        "scales": scales.as_dict(),
        "objective_value": scales.objective_value,
        "objective_at_init": scales.objective_at_init,
        "steps_taken": scales.steps_taken,
        "converged": scales.converged,
    }


def _run_dynamics(scenario: Scenario):
    p = scenario.params
    head = _dynamics_head(scenario)
    model, splits, sigma = head.model, head.splits, head.sigma
    qois, sides = head.qois, head.sides
    y_val, y_eval = head.y_val, head.y_eval
    n_qois = len(qois)
    drop_seeds = spawn_seeds(head.dropout_seed, 2 * n_qois)
    z_val = splits.validation.inputs
    z_eval = splits.evaluation.inputs

    ens = _dynamics_ensemble(head, p)

    methods = ("delta", "delta-finetuned", "ensemble", "dropout")
    calib_steps = int(p["calibration_steps"])

    def per_qoi(qi: int):
        u = qois[qi]
        v_val, d_val, v_eval, d_eval = sides[qi]
        err_eval = np.abs(y_eval[qi] - v_eval)
        variances = {"delta": (sigma.quadratic_forms(d_val),
                               sigma.quadratic_forms(d_eval))}
        contrib_val, scales, finetune_info = _finetune(head, qi)
        contrib_eval = block_variances(d_eval, sigma)
        scale_vec = np.array(list(scales.as_dict().values()))
        variances["delta-finetuned"] = (contrib_val @ scale_vec,
                                        contrib_eval @ scale_vec)
        variances["ensemble"] = (ensemble_variance_batch(ens, u, z_val),
                                 ensemble_variance_batch(ens, u, z_eval))
        variances["dropout"] = tuple(
            dropout_variance_batch(model, u, zs, k=int(p["dropout_passes"]),
                                   rate=float(p["dropout_rate"]),
                                   seed=drop_seeds[2 * qi + j])
            for j, zs in enumerate((z_val, z_eval)))

        scores = {}
        logp = {}
        calibration = {}
        calibs = fit_laplace_calibration(
            np.tile(y_val[qi], (len(methods), 1)),
            np.tile(v_val, (len(methods), 1)),
            np.array([variances[method][0] for method in methods]),
            steps=calib_steps)
        for method, calib in zip(methods, calibs):
            nu_eval = variances[method][1]
            calibration[method] = {"iterations": calib.iterations,
                                   "cap_hit": not calib.converged}
            pts = laplace_logp(err_eval, nu_eval, calib)
            logp[method] = pts
            scores[method] = {
                "auc": retention_auc(err_eval, nu_eval),
                "corr": error_correlation(err_eval, np.sqrt(nu_eval)),
                "loglik": float(np.mean(pts)),
            }
        nu_ens = variances["ensemble"][1]
        scores["ensemble"]["auc_se"] = _jackknife_se(
            retention_auc, err_eval, nu_ens)
        scores["ensemble"]["corr_se"] = _jackknife_se(
            lambda e, n: error_correlation(e, np.sqrt(n)), err_eval, nu_ens)
        for method in methods:
            s, ref = scores[method], scores["ensemble"]
            diff = logp[method] - logp["ensemble"]
            s["improvement_auc"] = improvement(s["auc"], ref["auc"],
                                               higher_is_better=False)
            s["improvement_corr"] = improvement(s["corr"], ref["corr"])
            s["improvement_loglik"] = improvement(s["loglik"], ref["loglik"])
            s["loglik_gap_se"] = (0.0 if method == "ensemble"
                                  else standard_error(diff))
        return variances, err_eval, scores, finetune_info, calibration

    results = ordered_parallel_map(per_qoi, range(n_qois))

    rows = []
    per_qoi_metrics = {}
    finetune_metrics = {}
    calibration_metrics = {}
    for qi, u in enumerate(qois):
        variances, err_eval, scores, finetune_info, calibration = results[qi]
        per_qoi_metrics[u.qoi_id] = scores
        finetune_metrics[u.qoi_id] = finetune_info
        calibration_metrics[u.qoi_id] = calibration
        for method in methods:
            nu_eval = variances[method][1]
            s_kind = sigma.kind if method.startswith("delta") else ""
            s_reg = sigma.reg if method.startswith("delta") else None
            for i in range(nu_eval.size):
                rows.append((scenario.kind, str(i), u.qoi_id, method,
                             s_kind, "", s_reg, float(nu_eval[i]),
                             float(err_eval[i])))

    aggregate = {}
    for method in methods:
        entry = {}
        for key in ("improvement_auc", "improvement_corr",
                    "improvement_loglik"):
            vals = [per_qoi_metrics[u.qoi_id][method][key] for u in qois]
            entry[key + "_mean"] = float(np.mean(vals))
            entry[key + "_stderr"] = standard_error(vals)
        counted = cost_accounting(
            "delta" if method.startswith("delta") else method,
            k=int(p["members"]) if method == "ensemble"
            else int(p["dropout_passes"]))
        entry.update({f"cost_{key}": counted[key] for key in _COST_KEYS})
        aggregate[method] = entry

    metrics = {"per_qoi": per_qoi_metrics, "aggregate": aggregate,
               "finetune": finetune_metrics,
               "calibration": calibration_metrics,
               "regularizer": {"selected": head.reg,
                               "score_curve": head.reg_curve}}
    extra = {"sigma_kind": sigma.kind, "sigma_reg": head.reg,
             "train_diagnostics": {k: float(v) if isinstance(v, float)
                                   else v
                                   for k, v in model.diagnostics.items()}}
    return rows, metrics, extra


# ---------------------------------------------------------------------------
# orchestration and report files
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> Path:
    """One CSV table: floats in shortest round-trip decimals, None empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if x is None else format_float(x)
                             if isinstance(x, float) else str(x)
                             for x in row])
    return path


def write_report(out_dir, rows, metrics, provenance) -> list:
    """Write report.csv, metrics.json and provenance.json under out_dir;
    returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [_write_csv(out / "report.csv", REPORT_COLUMNS, rows)]
    for name, payload in (("metrics.json", metrics),
                          ("provenance.json", provenance)):
        path = out / name
        path.write_text(stable_json_dumps(payload) + "\n")
        paths.append(path)
    return paths


def emit_plotdata(result, out_dir) -> list:
    """Tidy plot-ready CSVs from a run_scenario result, written to out_dir.

    Dynamics runs yield retention.csv (error-retention curves per quantity
    and method, from the report rows) and cost_quality.csv (counted costs
    against improvements vs the ensemble, with standard errors). Survival
    runs yield convergence.csv. Returns the list of written paths.
    """
    out, metrics = Path(out_dir), result["metrics"]
    scenario = result["provenance"]["scenario"]
    if scenario == "dynamics":
        groups: dict = {}
        for row in result["rows"]:  # REPORT_COLUMNS order
            groups.setdefault((row[2], row[3]), []).append(row[7:9])
        retention = []
        for (qoi_id, method), pairs in sorted(groups.items()):
            values, errors = zip(*pairs)
            tail_means = retention_curve(errors, values)
            retention += [(qoi_id, method, i / len(pairs), mean)
                          for i, mean in enumerate(tail_means)]
        costs = [(method, metric,
                  *(float(entry[f"cost_{key}"]) for key in _COST_KEYS),
                  float(entry[f"improvement_{metric}_mean"]),
                  float(entry[f"improvement_{metric}_stderr"]))
                 for method, entry in sorted(metrics["aggregate"].items())
                 for metric in ("auc", "corr", "loglik")]
        return [
            _write_csv(out / "retention.csv", ("qoi_id", "method",
                       "fraction_removed", "mean_abs_error"), retention),
            _write_csv(out / "cost_quality.csv", ("method", "metric",
                       *_COST_KEYS, "improvement", "stderr"), costs)]
    if scenario == "survival":
        points = [(entry["n"], *(float(entry[key]) for key in (
                      "analytic_var", "true_var", "delta_var",
                      "ensemble_var")))
                  for entry in sorted(metrics["per_n"].values(),
                                      key=lambda e: e["n"])]
        return [_write_csv(out / "convergence.csv", (
            "n", "analytic_var", "true_var", "delta_var", "ensemble_var"),
            points)]
    return []


def _provenance(scenario: Scenario, extra: Mapping) -> dict:
    import platform

    info = {
        "scenario": scenario.kind,
        "seed": scenario.seed,
        "params": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in scenario.params.items()},
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    info.update(extra)
    return info


_RUNNERS = {"survival": _run_survival, "dynamics": _run_dynamics,
            "eigen": _run_eigen}


def run_scenario(scenario: Scenario, out_dir=None) -> dict:
    """Run one scenario; optionally write its deterministic report files
    (report.csv, metrics.json, provenance.json; the plot tables of
    emit_plotdata are left to the caller).

    Returns {"rows", "metrics", "provenance"}. The report rows always follow
    REPORT_COLUMNS order and float cells use shortest round-trip decimals, so
    a rerun with the same seed reproduces the files byte for byte.
    """
    runner = _RUNNERS[scenario.kind]
    rows, metrics, extra = runner(scenario)
    provenance = _provenance(scenario, extra)
    result = {"rows": rows, "metrics": metrics, "provenance": provenance}
    if out_dir is not None:
        write_report(out_dir, rows, metrics, provenance)
    return result
