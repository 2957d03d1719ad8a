"""Command line front end: train, sigma, deltavar, oracle, finetune, bench, cost.

Exit codes: 0 on success, 1 for a structured runtime failure (message on
stderr), 2 for a malformed config or command line (nothing is written).
Output directories are staged in a sibling ".partial" directory and renamed
into place on success, so a failed run never leaves a half-written report.
Floats are printed and serialized with shortest round-trip decimals. The
package reads one environment variable, DELTAVAR_THREADS (pool size, no
computed value changes; not a positive integer: exit 2 before any command).
numpy's BLAS reads its own thread settings, which can move last bits of nu
and a dense sigma (README, Determinism).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (Scenario, cost_report, emit_plotdata, finetune_report,
                    gen_dynamics, make_scenario, run_scenario,
                    survival_dataset, write_report)
from .covariance import (canonical_sigma, laplace_sigma, load_covariance,
                         sandwich, save_covariance)
from .autodiff import ParameterVector
from .exceptions import ConfigError, DeltaVarError, StructuralError
from .models import (Dataset, Model, TrainConfig, _saturated_fit, make_model,
                     train)
from .oracles import (adversarial_shift, eps_loo_variance,
                      gaussian_posterior_mc, loo_variance,
                      mahalanobis_gradient_distance, richardson_eps_loo)
from .qoi import make_qoi, parse_qoi, values_and_deltas
from .util import format_float, stable_json_dumps, thread_count

_POWER_ALIAS = re.compile(r"^power(\d+)$")
_SIGMA_KINDS = ("fisher-full", "fisher-diag", "hessian", "sandwich")
_ORACLE_KINDS = ("posterior-mc", "loo", "eps-loo", "richardson",
                 "adversarial", "mahalanobis")


# ---------------------------------------------------------------------------
# config and option plumbing
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    cfg: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            cfg = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for raw in getattr(args, "set", None) or []:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {raw!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = parsed
    return cfg


def _pop_section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return dict(section)


def _as(convert, value, key: str):
    """convert(value); a value that does not convert is a config problem."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"setting {key}={value!r} is not valid: {exc}") from exc


def _as_optional(convert, value, key: str):
    """_as, with None (an unset option) passed through."""
    return None if value is None else _as(convert, value, key)


def _take(section: dict, allowed: dict, where: str) -> dict:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}; "
                          f"valid keys are {sorted(allowed)}")
    out = dict(allowed)
    out.update(section)
    return out


class _OutputDir:
    """Stage writes next to the target and rename into place on success."""

    def __init__(self, out, force: bool):
        self.final = Path(out)
        if self.final.exists() and not self.final.is_dir():
            raise StructuralError(f"{self.final} exists and is not a directory")
        if self.final.is_dir() and any(self.final.iterdir()) and not force:
            raise StructuralError(f"output directory {self.final} is not "
                                  "empty; pass --force to replace it")
        self.staging = self.final.with_name(self.final.name + ".partial")

    def __enter__(self) -> Path:
        if self.staging.exists():
            shutil.rmtree(self.staging)
        self.staging.mkdir(parents=True)
        return self.staging

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
            return False
        if self.final.exists():
            shutil.rmtree(self.final)
        os.replace(self.staging, self.final)
        return False


# ---------------------------------------------------------------------------
# model and dataset files
# ---------------------------------------------------------------------------

# what json, np.load and zipfile raise on a damaged file (RuntimeError and
# NotImplementedError for a flipped encryption flag or compression method)
_FILE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError,
                EOFError, RuntimeError, NotImplementedError, zipfile.BadZipFile)


def save_model_dir(directory, model: Model, data: Dataset) -> None:
    """Write model.json (exact float params) and data.npz into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    hyper = {k: list(v) if isinstance(v, tuple) else v
             for k, v in model.hyper.items()}
    payload = {
        "kind": model.kind,
        "hyper": hyper,
        "blocks": [[n, s, l] for n, s, l in model.params.blocks],
        "params": [float(x) for x in model.params.data],
        "diagnostics": model.diagnostics,
    }
    (directory / "model.json").write_text(stable_json_dumps(payload) + "\n")
    np.savez(directory / "data.npz", inputs=data.inputs, targets=data.targets)


def load_model_dir(path):
    """Model and training data back from a directory written by `train`."""
    directory = Path(path)
    model_file = directory / "model.json"
    data_file = directory / "data.npz"
    if not model_file.exists():
        raise ConfigError(f"{directory} has no model.json (run `train` first)")
    if not data_file.exists():
        raise ConfigError(f"{directory} has no data.npz (run `train` first)")
    try:
        obj = json.loads(model_file.read_text())
        hyper = obj["hyper"]
        if "widths" in hyper or obj["kind"] == "mlp":
            hyper["widths"] = tuple(int(w) for w in hyper["widths"])
        params = ParameterVector(
            np.asarray(obj["params"], dtype=np.float64),
            tuple((str(n), int(s), int(l)) for n, s, l in obj["blocks"]))
        model = Model(kind=obj["kind"], params=params, hyper=hyper,
                      diagnostics=obj.get("diagnostics"))
        model.d_in, model.d_out  # every kind needs both sizes
        with np.load(data_file) as npz:
            data = Dataset(npz["inputs"], npz["targets"])
    except _FILE_ERRORS as exc:
        raise StructuralError(f"{directory} holds a corrupt model: "
                              f"{type(exc).__name__}: {exc}") from exc
    return model, data


def _build_dataset(spec) -> Dataset:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError('config needs a data object with a "kind"')
    spec = dict(spec)
    kind = spec.pop("kind")
    try:  # a generator's argument error is a configuration problem
        if kind == "dynamics":
            opts = _take(spec, {"seed": 0, "n": 1500, "noise": 0.01}, "data")
            return gen_dynamics(int(opts["seed"]), int(opts["n"]),
                                float(opts["noise"]))
        if kind == "survival":
            opts = _take(spec, {"n": 1000, "rate": 0.9}, "data")
            return survival_dataset(int(opts["n"]), float(opts["rate"]))
        if kind == "file":
            opts = _take(spec, {"path": None}, "data")
            if not opts["path"]:
                raise ConfigError('file datasets need a "path"')
            with np.load(opts["path"]) as npz:
                return Dataset(npz["inputs"], npz["targets"])
    except (StructuralError, OverflowError, *_FILE_ERRORS) as exc:
        raise ConfigError(f"cannot build the {kind} dataset: {exc}") from exc
    raise ConfigError(f"unknown data kind {kind!r}; "
                      "choose dynamics, survival or file")


def _build_model(spec) -> Model:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError('config needs a model object with a "kind"')
    spec = dict(spec)
    kind = spec.pop("kind")
    opts = _take(spec, {"d_in": 1, "d_out": 1, "hidden": [32, 32],
                        "seed": 0}, "model")
    try:  # an unknown kind or a bad width is a configuration problem
        return make_model(
            kind, d_in=_as(int, opts["d_in"], "model.d_in"),
            d_out=_as(int, opts["d_out"], "model.d_out"),
            hidden=_as(lambda ws: tuple(int(w) for w in ws), opts["hidden"],
                       "model.hidden"),
            seed=_as(int, opts["seed"], "model.seed"))
    except (StructuralError, ValueError) as exc:
        raise ConfigError(f"cannot build the {kind} model: {exc}") from exc


def _train_config(section: dict, seed_override) -> TrainConfig:
    opts = _take(section, {"steps": 2000, "learning_rate": None,
                           "batch": None, "seed": 0, "grad_tol": None,
                           "polish_steps": None}, "train")
    if seed_override is not None:
        opts["seed"] = seed_override
    optional = (("learning_rate", float), ("batch", int), ("grad_tol", float),
                ("polish_steps", int))
    try:
        return TrainConfig(
            steps=_as(int, opts["steps"], "train.steps"),
            seed=_as(int, opts["seed"], "train.seed"),
            **{key: _as_optional(convert, opts[key], f"train.{key}")
               for key, convert in optional})
    except StructuralError as exc:
        raise ConfigError(f"bad train settings: {exc}") from exc


# ---------------------------------------------------------------------------
# shared argument helpers
# ---------------------------------------------------------------------------

def _qoi_from_text(text: str, model: Model):
    short = _POWER_ALIAS.match(text.strip())
    if short:
        return make_qoi("power", model, exponent=float(short.group(1)))
    return parse_qoi(text, model)


def _parse_input(text: str, model: Model) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--input expects comma-separated floats, "
                          f"got {text!r}") from exc
    z = np.asarray(values)
    if z.size != model.d_in:
        raise ConfigError(f"--input has {z.size} components but the model "
                          f"takes {model.d_in}")
    return z


def _resolve_sigma(spec: str, model: Model, data: Dataset, reg: float):
    if Path(spec).is_file():
        return load_covariance(spec)
    if spec in ("fisher-full", "fisher-diag"):
        return canonical_sigma(model, data, spec.removeprefix("fisher-"), reg)
    if spec == "hessian":
        return laplace_sigma(model, data, reg=reg)
    if spec == "sandwich":
        return sandwich(model, data, reg=reg)
    raise ConfigError(f"--sigma must be a saved covariance file or one of "
                      f"{_SIGMA_KINDS}, got {spec!r}")


def _scenario_from(cfg: dict, args) -> Scenario:
    kind = cfg.get("scenario", "dynamics")
    params = _pop_section(cfg, "params")
    seed = _as(int, cfg.get("seed", 0), "seed")
    if args.seed is not None:
        seed = args.seed
    return make_scenario(kind, seed=seed, **params)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_train(args, cfg) -> int:
    model = _build_model(_pop_section(cfg, "model"))
    data = _build_dataset(_pop_section(cfg, "data"))
    train_cfg = _train_config(_pop_section(cfg, "train"), args.seed)
    leftover = set(cfg) - {"model", "data", "train"}
    if leftover:
        raise ConfigError(f"unknown config sections {sorted(leftover)}")
    with _OutputDir(args.out, args.force) as out:
        fitted = train(model, data, train_cfg)
        save_model_dir(out, fitted, data)
    diag = fitted.diagnostics
    saturated = (", saturated: a fitted probability is exactly 0 or 1 with "
                 "zero curvature, not converged"
                 if _saturated_fit(fitted, data, np.ones(data.n)) else "")
    print(f"trained {fitted.kind} on {data.n} points: "
          f"final grad norm {format_float(diag['final_grad_norm'])}, "
          f"loss {format_float(diag['final_loss'])}, "
          f"steps {diag['steps']}{saturated}")
    return 0


def _cmd_sigma(args, cfg) -> int:
    if cfg:
        raise ConfigError("sigma takes no config; use --model/--kind/--reg")
    model, data = load_model_dir(args.model)
    sigma = _resolve_sigma(args.kind, model, data, args.reg)
    with _OutputDir(args.out, args.force) as out:
        save_covariance(out / "sigma.bin", sigma)
    print(f"wrote {sigma.kind} covariance: dim {sigma.dim}, "
          f"reg {format_float(sigma.reg)}")
    return 0


def _cmd_deltavar(args, cfg) -> int:
    if cfg:
        raise ConfigError("deltavar takes no config; use flags")
    model, data = load_model_dir(args.model)
    u = _qoi_from_text(args.qoi, model)
    sigma = _resolve_sigma(args.sigma, model, data, args.reg)
    zs = np.stack([_parse_input(text, model) for text in args.input])
    _, deltas = values_and_deltas(u, zs)
    for nu in sigma.quadratic_forms(deltas):
        print(format_float(nu))
    return 0


def _cmd_oracle(args, cfg) -> int:
    model, data = load_model_dir(args.model)
    u = _qoi_from_text(args.qoi, model)
    z = _parse_input(args.input, model)
    kind = args.kind
    seed = 0 if args.seed is None else args.seed
    if kind == "posterior-mc":
        opts = _take(cfg, {"samples": 100_000, "sigma": "fisher-full",
                           "reg": 0.0}, "posterior-mc")
        samples = _as(int, opts["samples"], "samples")
        cov = _resolve_sigma(str(opts["sigma"]), model, data,
                             _as(float, opts["reg"], "reg"))
        report = gaussian_posterior_mc(u, model.params.data, cov, z,
                                       samples=samples, seed=seed)
    elif kind in ("loo", "eps-loo", "richardson"):
        opts = _take(cfg, {"eps": 1e-2, "max_points": 500, "grad_tol": None},
                     kind)
        common = dict(max_points=_as(int, opts["max_points"], "max_points"),
                      train_cfg=TrainConfig(steps=2000, grad_tol=_as_optional(
                          float, opts["grad_tol"], "grad_tol")))
        eps = _as(float, opts["eps"], "eps")
        if kind == "loo":
            report = loo_variance(model, data, u, z, **common)
        elif kind == "eps-loo":
            report = eps_loo_variance(model, data, u, z, eps=eps, **common)
        else:
            report = richardson_eps_loo(model, data, u, z, eps=eps, **common)
    elif kind == "adversarial":
        opts = _take(cfg, {"eps": 1e-2, "mode": "offset", "delta": None,
                           "noise": None, "draws": 1000}, "adversarial")
        report = adversarial_shift(
            model, data, u, z, eps=_as(float, opts["eps"], "eps"),
            mode=str(opts["mode"]),
            delta=_as_optional(float, opts["delta"], "delta"),
            sigma=_as_optional(float, opts["noise"], "noise"),
            draws=_as(int, opts["draws"], "draws"), seed=seed)
    elif kind == "mahalanobis":
        if cfg:
            raise ConfigError("mahalanobis takes no options")
        report = mahalanobis_gradient_distance(model, data, u, z)
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}; "
                          f"choose one of {_ORACLE_KINDS}")
    payload = {
        "kind": report.kind,
        "estimate": report.estimate,
        "spread": report.spread,
        "count": report.count,
        "seed": report.seed,
        "reg": report.reg,
        "grad_norm": (None if math.isnan(report.grad_norm)
                      else report.grad_norm),
    }
    print(stable_json_dumps(payload))
    return 0


def _cmd_finetune(args, cfg) -> int:
    scenario = _scenario_from(cfg, args)
    report = finetune_report(scenario)
    if args.out is not None:
        with _OutputDir(args.out, args.force) as out:
            (out / "scales.json").write_text(stable_json_dumps(report) + "\n")
    for qoi_id, entry in report.items():
        print(f"{qoi_id}: objective {format_float(entry['objective_at_init'])}"
              f" -> {format_float(entry['objective_value'])}")
    return 0


def _cmd_bench(args, cfg) -> int:
    scenario = _scenario_from(cfg, args)
    with _OutputDir(args.out, args.force) as out:
        result = run_scenario(scenario)
        written = write_report(out, result["rows"], result["metrics"],
                               result["provenance"])
        written += emit_plotdata(result, out)
    for path in written:
        print(Path(args.out) / path.name)
    return 0


def _cmd_cost(args, cfg) -> int:
    report = cost_report(_scenario_from(cfg, args), args.repeats)
    for method, prof in report["profiles"].items():
        print(f"{method}: {format_float(prof['seconds'])} s on "
              f"{report['batch']} inputs"
              f" (train x{format_float(float(prof['train_overhead']))},"
              f" evals {prof['inference_evals']},"
              f" grads {prof['inference_grads']})")
    if args.out is not None:
        with _OutputDir(args.out, args.force) as out:
            (out / "cost.json").write_text(stable_json_dumps(report) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Built on the first call to main, not at import, and reused: parse_args
# keeps no state in the parser, so calls do not leak into one another.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltavar",
        description="Gradient-based epistemic variance estimators, "
                    "oracles and benchmarks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False, with_out=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, repeatable)")
        p.add_argument("--seed", type=int, help="master seed override")
        if with_out:
            p.add_argument("--out", required=out_required,
                           help="output directory")
            p.add_argument("--force", action="store_true",
                           help="replace a non-empty output directory")

    p = sub.add_parser("train", help="fit a model and save it with its data")
    common(p, out_required=True)

    p = sub.add_parser("sigma", help="build and save a parameter covariance")
    common(p, out_required=True)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--kind", default="fisher-diag",
                   help=f"one of {_SIGMA_KINDS}")
    p.add_argument("--reg", type=float, default=0.0, help="ridge term")

    p = sub.add_parser("deltavar",
                       help="print the delta variance of a quantity")
    common(p, with_out=False)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--sigma", default="fisher-diag",
                   help="covariance kind or saved sigma.bin path")
    p.add_argument("--reg", type=float, default=0.0, help="ridge term")
    p.add_argument("--qoi", required=True,
                   help='quantity id, e.g. "power10" or '
                        '"rollout:functional=mean,horizon=3"')
    p.add_argument("--input", action="append", required=True,
                   help="evaluation point (comma-separated floats, repeatable)")

    p = sub.add_parser("oracle", help="run a ground-truth oracle")
    common(p, with_out=False)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--kind", required=True, help=f"one of {_ORACLE_KINDS}")
    p.add_argument("--qoi", required=True, help="quantity id")
    p.add_argument("--input", required=True, help="evaluation point")

    p = sub.add_parser("finetune",
                       help="fit per-block scale factors on validation data")
    common(p)

    p = sub.add_parser("bench", help="run a benchmark scenario")
    common(p, out_required=True)

    p = sub.add_parser("cost", help="measure method cost profiles")
    common(p)
    p.add_argument("--repeats", type=int, default=7,
                   help="timing repetitions (median is reported)")
    return parser


_HANDLERS = {
    "train": _cmd_train,
    "sigma": _cmd_sigma,
    "deltavar": _cmd_deltavar,
    "oracle": _cmd_oracle,
    "finetune": _cmd_finetune,
    "bench": _cmd_bench,
    "cost": _cmd_cost,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        thread_count()  # a bad DELTAVAR_THREADS fails before any work
        cfg = _load_config(args)
        return _HANDLERS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DeltaVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
