"""The two benchmark workloads, driven through deltavar's public entry points.

Each workload has a ``setup`` (what a user pays before the first answer:
training and covariance builds), a ``run_pass`` (one pass of the workload's
fixed work, every public call timed as one request) and its correctness
checks. ``queries`` answers nu queries; ``batch`` runs three jobs,
``dynamics``, ``curvature`` and ``oracles``, with their steps interleaved.
A job's ``steps`` is a generator that yields before each step. Every call
goes through a module attribute (``bench.run_scenario``,
``qoi.values_and_deltas``, ``cli.main``, ...) so the tracer's wrappers are
seen. All inputs derive from the seed given on the command line.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deltavar import bench, cli, covariance, models, oracles, qoi
from deltavar.exceptions import DeltaVarError
from deltavar.util import format_float

# `deltavar.delta_variance` is shadowed by the function of the same name on
# the package, so the module is fetched by its full name.
dv = importlib.import_module("deltavar.delta_variance")

LOGISTIC_WEIGHTS = np.array([1.0, -0.75, 0.5, -0.25])


def child_seeds(seed: int, n: int) -> list[int]:
    """n independent seeds derived from the command-line seed.

    Kept apart from deltavar.util.spawn_seeds so that a change to the
    package cannot change the benchmark's inputs.
    """
    return [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(n)]


def logistic_data(seed: int, n: int) -> models.Dataset:
    """Bernoulli labels from a fixed 4-input logistic law, inputs seeded."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, LOGISTIC_WEIGHTS.size))
    p = 1.0 / (1.0 + np.exp(-x @ LOGISTIC_WEIGHTS))
    y = (rng.random(n) < p).astype(np.float64)[:, None]
    return models.Dataset(x, y)


@dataclass
class Recorder:
    """Request latencies, returned variance values and check outcomes.

    Every operation gets exactly one check; a DeltaVarError, a nonzero CLI
    exit or a wrong answer makes it a failed one.
    """

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    values: int = 0
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)
    deferred: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    job_seconds: dict = field(default_factory=dict)

    def request(self, kind: str, fn, *args, **kwargs):
        """Time one public call. Returns None after a DeltaVarError."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except DeltaVarError as exc:
            self._timed(kind, start)
            self.check(False, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self._timed(kind, start)
        return result

    def _timed(self, kind, start):
        self.latencies.append(time.perf_counter() - start)
        self.kinds.append(kind)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)

    def later(self, fn) -> None:
        """Queue a check that calls the package; it runs after the pass,
        outside any traced region. fn returns (ok, description)."""
        self.deferred.append(fn)

    def run_deferred(self) -> None:
        pending, self.deferred = self.deferred, []
        for fn in pending:
            try:
                ok, what = fn()
            except DeltaVarError as exc:
                ok, what = False, f"check raised {type(exc).__name__}: {exc}"
            self.check(ok, what)


class CheckStore:
    """Answers that must not change while the code does not.

    A JSON file maps a code fingerprint (a hash of the package sources and
    the Python, numpy and scipy versions) to the answers first seen under
    it. Another version of the package gets a namespace of its own, so runs
    of two commits in one checkout are each compared only with themselves.
    """

    def __init__(self, path: Path, fingerprint: str):
        self.path, self.fingerprint = path, fingerprint
        self._all = json.loads(path.read_text()) if path.is_file() else {}
        self._known = self._all.setdefault(fingerprint, {})

    def get(self, key: str):
        return self._known.get(key)

    def first(self, key: str, value):
        """The answer first stored under key for this code; value if none."""
        return self._known.setdefault(key, value)

    def save(self) -> None:
        self.path.write_text(json.dumps(self._all, sort_keys=True, indent=1)
                             + "\n")


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# dynamics: the bench scenario, as `deltavar bench` runs it
# ---------------------------------------------------------------------------

class Dynamics:
    """Several seeded runs of the dynamics scenario, reports written.
    A job of the batch workload; each scenario is one step."""

    name = "dynamics"
    FULL = {"n_pairs": 300, "horizons": (1,), "train_steps": 500,
            "members": 5}
    TINY = {"n_pairs": 100, "horizons": (1,), "train_steps": 40,
            "members": 2, "dropout_passes": 2, "selection_steps": 5,
            "calibration_steps": 20}
    SCENARIOS = {"full": 3, "tiny": 1}

    def setup(self, seed: int, work: Path, size: str):
        return {"seeds": child_seeds(seed, self.SCENARIOS[size]),
                "params": self.FULL if size == "full" else self.TINY,
                "full": size == "full", "work": work, "digests": {},
                "bands": {}}

    def steps(self, state, rec: Recorder):
        for s in state["seeds"]:
            yield
            scenario = bench.make_scenario("dynamics", seed=s,
                                           **state["params"])
            out_dir = state["work"] / f"report-{s}"
            result = rec.request("bench.run_scenario", bench.run_scenario,
                                 scenario, out_dir=out_dir)
            if result is None:
                continue
            rec.values += len(result["rows"])
            digest = report_digest(out_dir)
            first = state["digests"].setdefault(s, digest)
            finetune = result["metrics"]["finetune"].values()
            accept_only = all(v["objective_value"] >= v["objective_at_init"]
                              for v in finetune)
            state["bands"][s] = band_count(result["metrics"]["per_qoi"])
            rec.check(accept_only and digest == first,
                      f"dynamics seed {s}: accept-only {accept_only}, "
                      f"digest {digest[:12]} vs first {first[:12]}")

    def finish(self, state, rec: Recorder, store: CheckStore) -> None:
        """The digest of each scenario must match every earlier run of the
        same scenario on the same code in this checkout. Then the check-08
        band, counted where check 08 asserts it."""
        key = json.dumps(state["params"], sort_keys=True)
        for s, digest in state["digests"].items():
            prev = store.first(f"digest|{key}|{s}", digest)
            rec.check(prev == digest, f"dynamics seed {s}: digest {digest[:12]}"
                                      f" differs from an earlier run {prev[:12]}")
        rec.notes["report_digests"] = {str(s): d
                                       for s, d in state["digests"].items()}
        rec.notes["check08_band"] = {str(s): b
                                     for s, b in state["bands"].items()}
        band = self.seed0_band(state, store)
        rec.notes["check08_band_seed0"] = band
        if state["full"]:
            rec.check(band[0] >= band[2], f"check-08 band at seed 0: "
                                          f"{band[0]}/{band[1]} quantities, "
                                          f"{band[2]} needed")

    def seed0_band(self, state, store: CheckStore) -> list:
        """Check 08 (b) on the scenario check 08 runs: seed 0 at the
        default size (TINY sizes on a tiny run, recorded only). Untimed and
        outside any traced pass. The scenario is deterministic, so it runs
        once per code version and checkout and the store keeps the answer."""
        params = {} if state["full"] else self.TINY
        key = f"check08-band|seed0|{json.dumps(params, sort_keys=True)}"
        band = store.get(key)
        if band is None:
            try:
                result = bench.run_scenario(
                    bench.make_scenario("dynamics", seed=0, **params))
            except DeltaVarError:
                return [0, 0, 1]
            band = store.first(key, band_count(result["metrics"]["per_qoi"]))
        return band


def report_digest(out_dir: Path) -> str:
    """sha256 over the report files, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def band_count(per_qoi: dict) -> list:
    """Check 08 (b): quantities whose delta AUC and correlation sit inside
    the ensemble's 2-SE band, and how many are needed (a majority)."""
    achieved = 0
    for entry in per_qoi.values():
        d, e = entry["delta"], entry["ensemble"]
        achieved += bool(d["auc"] <= e["auc"] + 2.0 * e["auc_se"]
                         and d["corr"] >= e["corr"] - 2.0 * e["corr_se"])
    return [achieved, len(per_qoi), math.ceil(len(per_qoi) / 2)]


# ---------------------------------------------------------------------------
# queries: nu queries against ready models, one closed-loop client
# ---------------------------------------------------------------------------

class Queries:
    """Seeded request mix over three trained models and their Fisher sigmas.

    A request is one quantity over one input batch: values_and_deltas, then
    one delta_variance call per row. Each kind gets a fixed log-uniform grid
    of batch sizes, so every seed does the same amount of work; the seed
    trains the models, draws the inputs and orders the cycle, which is
    replayed for the whole run.
    """

    name = "queries"
    REG = 1e-3
    # requests per cycle by kind, each over a log-uniform grid of batch sizes
    FULL = {"mlp-power": 8, "logistic-power": 24, "rollout-power": 200,
            "rollout-mean": 200, "rollout-max": 200}
    TINY = {"mlp-power": 1, "logistic-power": 2, "rollout-power": 2,
            "rollout-mean": 2, "rollout-max": 2}
    PATH = {"mlp-power": "tape", "logistic-power": "tape",
            "rollout-power": "vectorized", "rollout-mean": "vectorized",
            "rollout-max": "vectorized"}

    def setup(self, seed: int, work: Path, size: str):
        full = size == "full"
        s = child_seeds(seed, 8)
        n_dyn = 500 if full else 100
        steps = 1000 if full else 20
        dyn = bench.gen_dynamics(s[0], n_dyn)
        scalar = models.Dataset(dyn.inputs, dyn.targets[:, :1])
        mlp = models.train(
            models.make_model("mlp", d_in=3, d_out=1, hidden=(32, 32),
                              seed=s[1]),
            scalar, models.TrainConfig(steps=steps, seed=s[2]))
        step = models.train(
            models.make_model("mlp", d_in=3, d_out=3, hidden=(24,), seed=s[3]),
            dyn, models.TrainConfig(steps=steps, seed=s[4]))
        logit_data = logistic_data(s[5], 200)
        logit = models.train(models.make_model("logistic", d_in=4),
                             logit_data, models.TrainConfig(steps=2000))
        sigmas = {name: covariance.canonical_sigma(m, d, mode="full",
                                                   reg=self.REG)
                  for name, m, d in (("mlp", mlp, scalar), ("step", step, dyn),
                                     ("logistic", logit, logit_data))}
        quantities = {
            "mlp-power": (qoi.make_qoi("power", mlp, exponent=2.0), "mlp"),
            "logistic-power": (qoi.make_qoi("power", logit, exponent=2.0),
                               "logistic"),
            "rollout-power": (qoi.make_qoi("rollout", step, functional="power",
                                           component=0, exponent=3.0,
                                           horizon=5), "step"),
            "rollout-mean": (qoi.make_qoi("rollout", step, functional="mean",
                                          horizon=5), "step"),
            "rollout-max": (qoi.make_qoi("rollout", step, functional="max",
                                         component=0, window=5, horizon=5),
                            "step"),
        }
        rng = np.random.default_rng(s[6])
        schedule = []
        for kind, count in (self.FULL if full else self.TINY).items():
            u, sig = quantities[kind]
            for b in batch_sizes(count):
                scale = 1.0 if kind == "logistic-power" else 0.5
                zs = scale * rng.standard_normal((int(b), u.model.d_in))
                schedule.append((kind, u, sigmas[sig], zs))
        order = rng.permutation(len(schedule))
        return {"schedule": [schedule[i] for i in order]}

    def run_pass(self, state, rec: Recorder) -> None:
        for kind, u, sigma, zs in state["schedule"]:
            result = rec.request(kind, answer, u, sigma, zs)
            if result is None:
                continue
            deltas, nus = result
            rec.values += len(nus)
            dense = np.einsum("bi,ij,bj->b", deltas, sigma.matrix(), deltas)
            ok = all(math.isfinite(v) and v >= 0.0 and _close(v, w, 1e-12)
                     for v, w in zip(nus, dense))
            rec.check(ok, f"{kind}: nu disagrees with dense delta'Sigma delta"
                          f" or is negative")

    def finish(self, state, rec: Recorder, store: CheckStore) -> None:
        """Untimed: the first request of each kind, its first input, against
        central differences of the quantity's value (limit 1e-5, as check 01)."""
        seen = set()
        for kind, u, _, zs in state["schedule"]:
            if kind in seen:
                continue
            seen.add(kind)
            rel = fd_gap(u, zs[0])
            rec.check(rel <= 1e-5, f"{kind}: delta vs central differences "
                                   f"rel {rel:.2e} > 1e-5")
        busy = {}
        for kind, lat in zip(rec.kinds, rec.latencies):
            busy[self.PATH[kind]] = busy.get(self.PATH[kind], 0.0) + lat
        total = sum(busy.values()) or 1.0
        rec.notes["path_share"] = {k: v / total for k, v in busy.items()}


def batch_sizes(count: int) -> np.ndarray:
    """count batch sizes in 1..64 at the midpoints of a log-uniform grid."""
    grid = (np.arange(count) + 0.5) / count
    return np.clip(np.floor(65.0 ** grid), 1, 64).astype(int)


def answer(u, sigma, zs):
    """One request: deltas for a batch, then nu per row."""
    _, deltas = qoi.values_and_deltas(u, zs)
    nus = [dv.delta_variance(dv.GradientDelta(row, source=u.qoi_id), sigma)
           for row in deltas]
    return deltas, nus


def fd_gap(u, z, h: float = 1e-6) -> float:
    """Norm-relative gap between the delta and central differences."""
    _, delta = qoi.qoi_value_and_delta(u, z)
    base = u.model.params.data
    steps = h * np.maximum(1.0, np.abs(base))
    thetas = np.repeat(base[None, :], 2 * base.size, axis=0)
    idx = np.arange(base.size)
    thetas[2 * idx, idx] += steps
    thetas[2 * idx + 1, idx] -= steps
    values = qoi.value_batch_params(u, thetas, z)
    fd = (values[0::2] - values[1::2]) / (2.0 * steps)
    return float(np.linalg.norm(delta.vector - fd)
                 / max(np.linalg.norm(fd), 1e-12))


# ---------------------------------------------------------------------------
# curvature: the CLI round trip train -> sigma -> deltavar, in process
# ---------------------------------------------------------------------------

class Curvature:
    """cli.main round trips on the dynamics mlp and on a logistic model.
    A job of the batch workload; train plus the first covariance kind is
    one step, each further kind another."""

    name = "curvature"
    KINDS = ("fisher-full", "fisher-diag", "hessian", "sandwich")
    # The mlp loss Hessian is indefinite (min eigenvalue -0.08 to -0.15 over
    # seeds at n=100), so its hessian and sandwich kinds need a ridge above
    # that; the Fisher kinds need a small one because d=171 > n.
    MLP_REG = {"fisher-full": 1e-3, "fisher-diag": 1e-3, "hessian": 1.0,
               "sandwich": 1.0}
    LOGISTIC_REG = {k: 0.0 for k in KINDS}

    def setup(self, seed: int, work: Path, size: str):
        full = size == "full"
        s = child_seeds(seed, 4)
        work.mkdir(parents=True, exist_ok=True)
        data = logistic_data(s[0], 200 if full else 40)
        npz = work / "logistic.npz"
        np.savez(npz, inputs=data.inputs, targets=data.targets)
        rng = np.random.default_rng(s[1])
        hidden = 24 if full else 4
        mlp_train = ["--set", "model.kind=mlp", "--set", "model.d_in=3",
                     "--set", "model.d_out=3",
                     "--set", f"model.hidden=[{hidden}]",
                     "--set", f"model.seed={s[2]}",
                     "--set", "data.kind=dynamics",
                     "--set", "data.n=100",
                     "--set", f"data.seed={s[3]}",
                     "--set", "train.steps=1000"]
        logit_train = ["--set", "model.kind=logistic", "--set", "model.d_in=4",
                       "--set", "data.kind=file",
                       "--set", f"data.path={npz}",
                       "--set", f"train.steps={2000 if full else 200}"]
        return {
            "work": work,
            "models": (
                ("mlp", mlp_train, self.MLP_REG,
                 "rollout:functional=power,component=0,exponent=3.0,horizon=3",
                 0.5 * rng.standard_normal((4, 3))),
                ("logistic", logit_train, self.LOGISTIC_REG, "power:exponent=2.0",
                 rng.standard_normal((4, 4))),
            ),
        }

    def steps(self, state, rec: Recorder):
        work = state["work"]
        for label, train_args, regs, qoi_text, zs in state["models"]:
            yield
            model_dir = work / label / "model"
            code, _ = self._cli(rec, "cli.train", ["train", *train_args,
                                                   "--out", str(model_dir),
                                                   "--force"])
            rec.check(code == 0, f"{label} train exit {code}")
            if code != 0:
                continue
            for n, kind in enumerate(self.KINDS):
                if n:
                    yield
                sigma_dir = work / label / f"sigma-{kind}"
                code, _ = self._cli(rec, "cli.sigma", [
                    "sigma", "--model", str(model_dir), "--kind", kind,
                    "--reg", repr(regs[kind]), "--out", str(sigma_dir),
                    "--force"])
                rec.check(code == 0, f"{label} sigma {kind} exit {code}")
                if code != 0:
                    continue
                # one command per input, as a user asks for one nu at a time
                for i, z in enumerate(zs):
                    text = ",".join(repr(float(v)) for v in z)
                    # --input=... keeps a leading minus sign from reading
                    # as a flag
                    code, printed = self._cli(rec, "cli.deltavar", [
                        "deltavar", "--model", str(model_dir),
                        "--sigma", str(sigma_dir / "sigma.bin"),
                        "--qoi", qoi_text, f"--input={text}"])
                    if code == 0:
                        rec.values += 1
                    rec.later(functools.partial(
                        _library_match, code, printed, model_dir,
                        sigma_dir / "sigma.bin", qoi_text, zs[i:i + 1],
                        f"{label} deltavar {kind} input {i}"))

    @staticmethod
    def _cli(rec: Recorder, kind: str, argv: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rec.request(kind, _cli_main, argv)
        return code, out.getvalue()

    def finish(self, state, rec: Recorder, store: CheckStore) -> None:
        rec.notes["reg"] = {"mlp": self.MLP_REG,
                            "logistic": self.LOGISTIC_REG}


def _cli_main(argv: list) -> int:
    """cli.main, with argparse's exit turned into its exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _library_match(code, printed, model_dir, sigma_path, qoi_text, zs, what):
    """The CLI's printed nu against the library, byte for byte."""
    if code != 0:
        return False, f"{what}: exit {code}"
    model, _ = cli.load_model_dir(model_dir)
    sigma = covariance.load_covariance(sigma_path)
    u = qoi.parse_qoi(qoi_text, model)
    _, deltas = qoi.values_and_deltas(u, zs)
    expected = "".join(
        format_float(dv.delta_variance(dv.GradientDelta(row, source=u.qoi_id),
                                       sigma)) + "\n"
        for row in deltas)
    return printed == expected, f"{what}: printed nu differs from the library"


# ---------------------------------------------------------------------------
# oracles: the reference estimators and the two checked scenarios
# ---------------------------------------------------------------------------

class Oracles:
    """Richardson eps-LOO, adversarial offset, posterior MC and Mahalanobis
    on one fixed logistic problem, then the survival and eigen scenarios.
    A job of the batch workload; each call is one step.

    The logistic problem and its query point are fixed rather than seeded:
    the retraining oracles' step counts swing by more than 10x between
    seeded datasets and query points, which no run length averages out. The
    seed drives the posterior draws and the two scenarios.
    """

    name = "oracles"
    DATA_SEED = 0
    Z = np.array([0.5, -1.0, 0.25, 0.75])
    EPS, OFFSET = 1e-4, 0.5

    def setup(self, seed: int, work: Path, size: str):
        full = size == "full"
        s = child_seeds(seed, 2)
        data = logistic_data(self.DATA_SEED, 200 if full else 50)
        model = models.train(models.make_model("logistic", d_in=4), data,
                             models.TrainConfig(steps=4000, grad_tol=1e-12))
        u = qoi.make_qoi("power", model, exponent=2.0)
        _, delta = qoi.qoi_value_and_delta(u, self.Z)
        nu_sandwich = dv.delta_variance(delta, covariance.sandwich(model, data))
        nu_hessian = dv.delta_variance(delta,
                                       covariance.laplace_sigma(model, data))
        survival = {} if full else {"n_grid": (10, 100, 1000),
                                    "train_steps": 200}
        eigen = {} if full else {"mc_samples": 2000}
        return {"model": model, "data": data, "u": u,
                "fisher": covariance.canonical_sigma(model, data, mode="full"),
                "nu_sandwich": nu_sandwich, "nu_hessian": nu_hessian,
                "mc_seed": s[0], "scenario_seed": s[1],
                "mc_samples": 100_000 if full else 1000,
                "survival": survival, "eigen": eigen}

    def steps(self, state, rec: Recorder):
        m, data, u, z = state["model"], state["data"], state["u"], self.Z
        yield
        rich = rec.request("oracles.richardson_eps_loo",
                           oracles.richardson_eps_loo, m, data, u, z)
        if rich is not None:
            rel = abs(rich.estimate - state["nu_sandwich"]) / state["nu_sandwich"]
            rec.check(rel <= 1e-2, f"richardson vs sandwich rel {rel:.2e}")
            rec.values += 1
        yield
        adv = rec.request("oracles.adversarial_shift", oracles.adversarial_shift,
                          m, data, u, z, eps=self.EPS, mode="offset",
                          delta=self.OFFSET)
        if adv is not None:
            ratio = adv.estimate / (self.EPS * self.OFFSET * state["nu_hessian"])
            rec.check(abs(ratio - 1.0) <= 0.05,
                      f"adversarial offset ratio {ratio:.6f}")
            rec.values += 1
        yield
        mc = rec.request("oracles.gaussian_posterior_mc",
                         oracles.gaussian_posterior_mc, u, m.params.data,
                         state["fisher"], z, samples=state["mc_samples"],
                         seed=state["mc_seed"])
        if mc is not None:
            rec.check(math.isfinite(mc.estimate) and mc.estimate >= 0.0,
                      f"posterior MC estimate {mc.estimate}")
            rec.values += 1
        yield
        mah = rec.request("oracles.mahalanobis_gradient_distance",
                          oracles.mahalanobis_gradient_distance, m, data, u, z)
        if mah is not None:
            rec.check(math.isfinite(mah.estimate) and mah.estimate >= 0.0,
                      f"Mahalanobis estimate {mah.estimate}")
            rec.values += 1
        seed = state["scenario_seed"]
        yield
        surv = rec.request("bench.run_scenario", bench.run_scenario,
                           bench.make_scenario("survival", seed=seed,
                                               **state["survival"]))
        if surv is not None:
            rec.values += len(surv["rows"])
            ok, what = survival_band(surv["metrics"])
            rec.check(ok, what)
        yield
        eig = rec.request("bench.run_scenario", bench.run_scenario,
                          bench.make_scenario("eigen", seed=seed,
                                              **state["eigen"]))
        if eig is not None:
            rec.values += len(eig["rows"])
            worst = max(v["rel_gap"]
                        for v in eig["metrics"]["per_index"].values())
            rec.check(worst <= 0.15, f"eigen worst MC gap {worst:.3f} > 0.15")

    def finish(self, state, rec: Recorder, store: CheckStore) -> None:
        """Every oracle answer is checked inside the pass."""


def survival_band(metrics: dict):
    """Check 06: delta within 10% of the analytic variance for N >= 100, a
    nonnegative bootstrap, and a median bootstrap ratio in [1/3, 3]."""
    rows = [r for r in metrics["per_n"].values() if r["n"] >= 100]
    delta_rel = max(abs(r["delta_var"] / r["analytic_var"] - 1.0) for r in rows)
    nonneg = all(r["ensemble_var"] >= 0.0 for r in rows)
    med = float(np.median([r["ensemble_var"] / r["true_var"] for r in rows]))
    ok = delta_rel <= 0.10 and nonneg and 1.0 / 3.0 <= med <= 3.0
    return ok, (f"survival band: delta rel {delta_rel:.1e}, nonnegative "
                f"{nonneg}, median ratio {med:.2f}")


# ---------------------------------------------------------------------------
# batch: the three jobs above, their steps interleaved
# ---------------------------------------------------------------------------

class Batch:
    """One pass runs every step of the dynamics, curvature and oracles jobs,
    taking one step of each job in turn. Interleaved, the short CLI calls
    fall throughout the pass instead of into one stretch of it. Each job's
    request seconds per pass go to rec.job_seconds."""

    name = "batch"
    JOBS = (Dynamics(), Curvature(), Oracles())

    def setup(self, seed: int, work: Path, size: str):
        seeds = child_seeds(seed, len(self.JOBS))
        return [job.setup(s, work / job.name, size)
                for job, s in zip(self.JOBS, seeds)]

    def run_pass(self, state, rec: Recorder) -> None:
        running = []
        for job, job_state in zip(self.JOBS, state):
            steps = job.steps(job_state, rec)
            next(steps)  # runs up to the first step
            running.append((job.name, steps))
        seconds = {name: 0.0 for name, _ in running}
        while running:
            for entry in list(running):
                name, steps = entry
                first = len(rec.latencies)
                try:
                    next(steps)
                except StopIteration:
                    running.remove(entry)
                seconds[name] += sum(rec.latencies[first:])
        for name, value in seconds.items():
            rec.job_seconds.setdefault(name, []).append(value)

    def finish(self, state, rec: Recorder, store: CheckStore) -> None:
        for job, job_state in zip(self.JOBS, state):
            job.finish(job_state, rec, store)


WORKLOADS = {w.name: w for w in (Queries(), Batch())}
