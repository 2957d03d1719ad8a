"""Release gate: ten checks, one printed verdict line each.

Every check pins a number the package advertises: gradient exactness, the
delta-method convergence rate, retraining and adversarial agreement, the
Mahalanobis identity, scenario-level accuracy bands, cost ordering, metric
formulas, and byte-level determinism. Each test prints a single
"[check NN] ... PASS/FAIL" line (through the capture so it is visible in
normal runs) and then asserts, so a red test and its verdict line agree.
"""
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import scipy.stats

from deltavar.baselines import (cost_accounting, dropout_variance_batch,
                                ensemble_variance_batch, train_ensemble)
from deltavar.bench import (_dynamics_head, make_scenario, run_scenario,
                            survival_dataset)
from deltavar.covariance import (canonical_sigma, empirical_fisher,
                                 laplace_sigma, sandwich)
from deltavar.delta_variance import delta_variance, finetune_scales
from deltavar.evaluation import (LaplaceCalibration, error_correlation,
                                 laplace_loglik, retention_auc)
from deltavar.models import (Dataset, TrainConfig, loglik_grad_batch,
                             make_model, train)
from deltavar.oracles import (adversarial_shift, mahalanobis_gradient_distance,
                              richardson_eps_loo)
from deltavar.qoi import (EigenProblem, FixedPointProblem, make_qoi,
                          qoi_value_and_delta, value_batch_params,
                          values_and_deltas)


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")


def _trained_linear(seed=7, n=50, d=3, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    coef = rng.standard_normal(d)
    y = (x @ coef + noise * rng.standard_normal(n))[:, None]
    data = Dataset(inputs=x, targets=y)
    model = train(make_model("linear-regression", d_in=d, d_out=1, seed=0),
                  data, TrainConfig(steps=4000, grad_tol=1e-13))
    return model, data


def _trained_bernoulli(n=200, rate=0.9):
    data = survival_dataset(n, rate)
    model = train(make_model("bernoulli-rate", d_in=1, d_out=1, seed=0),
                  data, TrainConfig(steps=2000, grad_tol=1e-13))
    return model, data


def _fd_delta(u, z, base, h=1e-6):
    """Central differences over the quantity's own parameter vector."""
    steps = h * np.maximum(1.0, np.abs(base))
    thetas = np.repeat(base[None, :], 2 * base.size, axis=0)
    for i in range(base.size):
        thetas[2 * i, i] += steps[i]
        thetas[2 * i + 1, i] -= steps[i]
    values = value_batch_params(u, thetas, z)
    return (values[0::2] - values[1::2]) / (2.0 * steps)


def test_check_01_gradients_match_central_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(416)
    cases = []

    for i in range(30):
        kind = ("bernoulli-rate", "linear-regression", "logistic")[i % 3]
        exponent = (1.0, 2.0, 3.0, 10.0)[i % 4]
        if kind == "bernoulli-rate":
            model = make_model(kind).with_params([0.2 + 0.6 * rng.random()])
            z = np.array([0.0])
        else:
            d = int(rng.integers(2, 5))
            model = make_model(kind, d_in=d, d_out=1, seed=i)
            model = model.with_params(0.5 * rng.standard_normal(d))
            z = rng.standard_normal(d)
        cases.append((make_qoi("power", model, exponent=exponent), z))

    for i in range(12):
        kind = ("linear-regression", "logistic")[i % 2]
        d = int(rng.integers(2, 4))
        model = make_model(kind, d_in=d, d_out=1, seed=100 + i)
        model = model.with_params(0.5 * rng.standard_normal(d))
        cases.append((make_qoi("set-product", model), rng.standard_normal((3, d))))

    for i in range(36):
        d = int(rng.integers(2, 4))
        model = make_model("mlp", d_in=d, d_out=d, hidden=(4,), seed=200 + i)
        model = model.with_params(0.4 * rng.standard_normal(model.params.dim))
        functional = ("power", "mean", "max")[i % 3]
        horizon = 1 + i % 4
        cfg = {"functional": functional, "horizon": horizon}
        if functional in ("power", "max"):
            cfg["component"] = int(rng.integers(0, d))
        if functional == "power":
            cfg["exponent"] = float(rng.integers(1, 4))
        if functional == "max":
            cfg["window"] = int(rng.integers(1, horizon + 1))
        cases.append((make_qoi("rollout", model, **cfg), rng.standard_normal(d)))

    from deltavar.autodiff import ParameterVector
    for i in range(12):
        a = 0.2 * rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        params = ParameterVector(np.concatenate([a.ravel(), b]),
                                 (("A", 0, 9), ("b", 9, 3)))

        def step(th, w):
            return [th[3 * r + 0] * w[0] + th[3 * r + 1] * w[1]
                    + th[3 * r + 2] * w[2] + th[9 + r] for r in range(3)]

        problem = FixedPointProblem(step=step, params=params, w0=np.zeros(3),
                                    component=int(rng.integers(0, 3)))
        cases.append((make_qoi("fixed-point", problem=problem), None))

    for i in range(12):
        masses = 0.5 + 1.5 * rng.random(4)
        stiffnesses = 0.5 + 2.5 * rng.random(5)
        problem = EigenProblem(masses=masses, stiffnesses=stiffnesses,
                               index=int(rng.integers(0, 4)))
        cases.append((make_qoi("eigenvalue", problem=problem), None))

    worst = 0.0
    for u, z in cases:
        _, delta = qoi_value_and_delta(u, z)
        if u.kind in ("fixed-point", "eigenvalue"):
            base = u.config["problem"].params.data.copy() \
                if u.kind == "fixed-point" \
                else u.config["problem"].parameter_vector().data.copy()
        else:
            base = u.model.params.data.copy()
        fd = _fd_delta(u, z, base)
        rel = float(np.linalg.norm(delta.vector - fd)
                    / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)

    elapsed = time.perf_counter() - start
    ok = len(cases) >= 100 and worst <= 1e-5 and elapsed < 10.0
    _verdict(capsys, "check 01", ok,
             f"gradients vs central differences: {len(cases)} cases, "
             f"worst rel {worst:.2e} (limit 1e-5), {elapsed:.1f}s")
    assert ok


def test_check_02_posterior_gap_slope(capsys):
    """The gap to the exact-posterior MC variance shrinks like N^-1.5.

    The MC estimate uses 1e6 draws from the conjugate Beta posterior of the
    survival rate; the fitted log-log slope over four decades of N must land
    in -1.5 +/- 0.3.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ns = (100, 1000, 10_000, 100_000)
    gaps = []
    for n in ns:
        model, data = _trained_bernoulli(n=n)
        u = make_qoi("power", model, exponent=10.0)
        _, delta = qoi_value_and_delta(u, np.array([0.0]))
        nu = delta_variance(delta, canonical_sigma(model, data, mode="full"))
        k = round(0.9 * n)
        draws = rng.beta(k + 1, n - k + 1, 1_000_000) ** 10
        gaps.append(abs(float(np.var(draws)) - nu))
    slope = float(np.polyfit(np.log10(ns), np.log10(gaps), 1)[0])
    elapsed = time.perf_counter() - start
    ok = -1.8 <= slope <= -1.2 and elapsed < 120.0
    _verdict(capsys, "check 02", ok,
             f"posterior MC gap slope {slope:.3f} over N=1e2..1e5 "
             f"(target -1.5 +/- 0.3), {elapsed:.1f}s")
    assert ok


def test_check_03_sandwich_matches_richardson_loo(capsys):
    start = time.perf_counter()
    model, data = _trained_linear(n=50, d=3)
    z = np.array([0.5, -1.0, 0.25])
    u = make_qoi("power", model, exponent=1.0)
    _, delta = qoi_value_and_delta(u, z)
    nu = delta_variance(delta, sandwich(model, data))
    oracle = richardson_eps_loo(model, data, u, z)
    rel = abs(oracle.estimate - nu) / nu
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-2 and elapsed < 5.0
    _verdict(capsys, "check 03", ok,
             f"sandwich vs Richardson eps-LOO on linear N=50 d=3: "
             f"rel {rel:.2e} (limit 1e-2), {elapsed:.1f}s")
    assert ok


def test_check_04_adversarial_shift_matches_prediction(capsys):
    start = time.perf_counter()
    model, data = _trained_linear(n=50, d=3)
    z = np.array([0.5, -1.0, 0.25])
    u = make_qoi("power", model, exponent=1.0)
    _, delta = qoi_value_and_delta(u, z)
    nu = delta_variance(delta, laplace_sigma(model, data))
    eps, offset, sigma = 1e-4, 0.5, 0.3

    report = adversarial_shift(model, data, u, z, eps=eps, mode="offset",
                               delta=offset)
    ratio = report.estimate / (eps * abs(offset) * nu)

    noise = adversarial_shift(model, data, u, z, eps=eps, mode="noise",
                              sigma=sigma, draws=1000, seed=0)
    predicted = eps ** 2 * sigma ** 2 * nu ** 2
    zscore = abs(noise.estimate - predicted) / noise.spread

    elapsed = time.perf_counter() - start
    ok = abs(ratio - 1.0) <= 0.05 and zscore <= 2.0 and elapsed < 30.0
    _verdict(capsys, "check 04", ok,
             f"adversarial offset ratio {ratio:.6f} (within 5% of 1), "
             f"noise-mode z {zscore:.2f} (within 2 SE of eps^2 sigma^2 nu^2), "
             f"{elapsed:.1f}s")
    assert ok


def test_check_05_mahalanobis_equals_fisher_form(capsys):
    start = time.perf_counter()
    bern = _trained_bernoulli()
    lin = _trained_linear()
    results = {}
    for label, (model, data), z, cfg in (
        ("bernoulli", bern, np.array([0.0]), {"exponent": 10.0}),
        ("linear", lin, np.array([0.5, -1.0, 0.25]), {"exponent": 1.0}),
    ):
        grads = loglik_grad_batch(model, data.inputs, data.targets)
        grad_norm = float(np.linalg.norm(grads.mean(axis=0)))
        u = make_qoi("power", model, **cfg)
        _, delta = qoi_value_and_delta(u, z)
        fisher = empirical_fisher(model, data, mode="full").values
        direct = float(delta.vector @ np.linalg.solve(fisher, delta.vector))
        report = mahalanobis_gradient_distance(model, data, u, z)
        results[label] = (grad_norm, abs(report.estimate - direct) / direct)
    elapsed = time.perf_counter() - start
    ok = all(gn <= 1e-6 and rel <= 1e-8 for gn, rel in results.values()) \
        and elapsed < 5.0
    detail = ", ".join(f"{k}: grad norm {gn:.1e}, rel {rel:.1e}"
                       for k, (gn, rel) in results.items())
    _verdict(capsys, "check 05", ok,
             f"Mahalanobis vs delta'F^-1 delta at convergence: {detail}, "
             f"limit 1e-8, {elapsed:.1f}s")
    assert ok


def test_check_06_survival_scenario_bands(capsys):
    start = time.perf_counter()
    out = run_scenario(make_scenario("survival", seed=0))
    rows = [r for r in out["metrics"]["per_n"].values() if r["n"] >= 100]
    delta_rel = max(abs(r["delta_var"] / r["analytic_var"] - 1.0)
                    for r in rows)
    nonneg = all(r["ensemble_var"] >= 0.0 for r in rows)
    ratios = [r["ensemble_var"] / r["true_var"] for r in rows]
    med = float(np.median(ratios))
    elapsed = time.perf_counter() - start
    ok = (delta_rel <= 0.10 and nonneg and 1.0 / 3.0 <= med <= 3.0
          and elapsed < 120.0)
    _verdict(capsys, "check 06", ok,
             f"survival N>=100: delta vs analytic rel {delta_rel:.1e} "
             f"(limit 0.1), bootstrap nonnegative {nonneg}, median ratio "
             f"{med:.2f} in [1/3, 3], {elapsed:.1f}s")
    assert ok


def test_check_07_eigen_scenario_mc_band(capsys):
    start = time.perf_counter()
    out = run_scenario(make_scenario("eigen", seed=0))
    gaps = {k: v["rel_gap"] for k, v in out["metrics"]["per_index"].items()}
    worst = max(gaps.values())
    elapsed = time.perf_counter() - start
    ok = worst <= 0.15 and elapsed < 120.0
    _verdict(capsys, "check 07", ok,
             f"eigenvalue variances vs 1e5-sample MC: worst rel gap "
             f"{worst:.3f} (limit 0.15), {elapsed:.1f}s")
    assert ok


def test_check_08_dynamics_cost_and_quality(capsys):
    start = time.perf_counter()
    scenario = make_scenario("dynamics", seed=0)
    out = run_scenario(scenario)

    # (a) measured inference cost ordering on a 32-input slice
    head = _dynamics_head(scenario)
    members = int(scenario.params["members"])
    ensemble = train_ensemble(head.model, head.splits.train, k=members,
                              mode="init-only", seed=head.ensemble_seed,
                              train_cfg=head.train_cfg)
    u = head.qois[-1]
    z = head.splits.evaluation.inputs[:32]
    model = head.model
    rate = float(scenario.params["dropout_rate"])
    passes = int(scenario.params["dropout_passes"])
    seconds = {}
    for method, workload, k in (
        ("delta", lambda: values_and_deltas(u, z), 1),
        ("dropout", lambda: dropout_variance_batch(model, u, z, k=passes,
                                                   rate=rate, seed=0), passes),
        ("ensemble", lambda: ensemble_variance_batch(ensemble, u, z), members),
    ):
        seconds[method] = cost_accounting(method, workload=workload, k=k,
                                          repeats=7)["seconds"]
    cost_ok = seconds["delta"] < seconds["dropout"] < seconds["ensemble"]

    # (b) retention AUC and correlation inside the ensemble's 2-SE band
    achieved = 0
    per_qoi = out["metrics"]["per_qoi"]
    for entry in per_qoi.values():
        d, e = entry["delta"], entry["ensemble"]
        auc_ok = d["auc"] <= e["auc"] + 2.0 * e["auc_se"]
        corr_ok = d["corr"] >= e["corr"] - 2.0 * e["corr_se"]
        achieved += auc_ok and corr_ok
    band_ok = achieved >= math.ceil(len(per_qoi) / 2)

    # (c) accept-only fine-tuning, plus strict gain when one block is noise
    ft = out["metrics"]["finetune"]
    accept_ok = all(v["objective_value"] >= v["objective_at_init"]
                    for v in ft.values())
    rng = np.random.default_rng(2)
    informative = rng.exponential(scale=1.0, size=400)
    junk = rng.exponential(scale=1.0, size=400)
    targets = rng.laplace(scale=np.sqrt((0.1 + informative) / 2.0))
    scales = finetune_scales(np.column_stack([informative, junk]),
                             ("signal", "junk"), targets, objective="loglik")
    synth_ok = (scales.objective_value > scales.objective_at_init
                and scales.as_dict()["junk"] < 0.1)

    elapsed = time.perf_counter() - start
    ok = cost_ok and band_ok and accept_ok and synth_ok and elapsed < 900.0
    _verdict(capsys, "check 08", ok,
             f"dynamics: cost delta {seconds['delta'] * 1e3:.2f}ms < dropout "
             f"{seconds['dropout'] * 1e3:.2f}ms < ensemble "
             f"{seconds['ensemble'] * 1e3:.2f}ms is {cost_ok}; band "
             f"{achieved}/{len(per_qoi)} QoIs; fine-tune accept-only "
             f"{accept_ok}, noisy-block strict gain {synth_ok}, {elapsed:.0f}s")
    assert ok


def test_check_09_metric_formulas(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    errors = rng.exponential(scale=1.0, size=6) + 0.05
    weights = np.ones(6)
    weights[0] = weights[-1] = 0.5
    aucs = []
    for perm in itertools.permutations(range(6)):
        order = np.array(perm)
        means = [errors[order[k:]].mean() for k in range(6)]
        aucs.append(float(np.dot(weights, means) / 6.0))
    best = retention_auc(errors, errors)
    worst = retention_auc(errors, -errors)
    extremes_ok = (abs(best - min(aucs)) <= 1e-12
                   and abs(worst - max(aucs)) <= 1e-12)

    e = rng.standard_normal(64)
    s = np.abs(rng.standard_normal(64)) + 0.1
    pearson_gap = abs(error_correlation(e, s)
                      - scipy.stats.pearsonr(np.abs(e), s).statistic)

    y = rng.standard_normal(64)
    mu = rng.standard_normal(64)
    nu = rng.exponential(scale=0.5, size=64)
    calib = LaplaceCalibration(alpha=0.3, beta=1.7)
    scale = np.sqrt((calib.alpha + calib.beta * nu) / 2.0)
    direct = float(np.mean(scipy.stats.laplace.logpdf(y, loc=mu, scale=scale)))
    laplace_gap = abs(laplace_loglik(y, mu, nu, calib) - direct)

    elapsed = time.perf_counter() - start
    ok = (extremes_ok and pearson_gap <= 1e-12 and laplace_gap <= 1e-12
          and elapsed < 5.0)
    _verdict(capsys, "check 09", ok,
             f"retention extremes over 720 orderings {extremes_ok}, Pearson "
             f"gap {pearson_gap:.1e}, Laplace loglik gap {laplace_gap:.1e} "
             f"(limits 1e-12), {elapsed:.1f}s")
    assert ok


def test_check_10_reports_deterministic_across_threads(capsys, tmp_path):
    start = time.perf_counter()
    outs = {}
    for label, threads in (("one", "1"), ("three", "3"), ("default", None)):
        env = dict(os.environ)
        env.pop("DELTAVAR_THREADS", None)
        if threads is not None:
            env["DELTAVAR_THREADS"] = threads
        out = tmp_path / label
        cmd = [sys.executable, "-m", "deltavar.cli", "bench",
               "--set", "scenario=dynamics",
               "--set", "params.n_pairs=500",
               "--set", "params.train_steps=600",
               "--set", "params.horizons=[1,2]",
               "--set", "params.members=4",
               "--set", "params.selection_steps=60",
               "--set", "params.calibration_steps=300",
               "--seed", "5", "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[label] = out

    names = sorted(p.name for p in outs["one"].iterdir())
    same = all(
        (outs["one"] / name).read_bytes() == (other / name).read_bytes()
        for name in names for other in (outs["three"], outs["default"]))
    elapsed = time.perf_counter() - start
    ok = same and len(names) >= 5
    _verdict(capsys, "check 10", ok,
             f"byte-identical reports across thread settings (1, 3, default) "
             f"over {len(names)} files: {same}, {elapsed:.0f}s")
    assert ok
