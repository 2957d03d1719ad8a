"""Benchmark scenario tests: generators, runners, deterministic reports."""
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from deltavar.bench import (REG_GRID, REPORT_COLUMNS, TRAJ_STEPS, Scenario,
                            beta_posterior_variance, gen_dynamics,
                            gen_dynamics_splits, make_scenario, run_scenario,
                            simulate, survival_analytic_variance,
                            survival_dataset, true_functional, true_step,
                            _jackknife_se)
from deltavar.exceptions import ConfigError, StructuralError
from deltavar.qoi import make_qoi
from deltavar.models import make_model
from deltavar.util import stable_json_dumps


class TestTrueSystem:
    def test_long_rollouts_stay_bounded(self):
        """No trajectory escapes a norm-10 ball over ten thousand steps."""
        rng = np.random.default_rng(0)
        x = 2.0 * rng.standard_normal((64, 3))
        worst = 0.0
        for _ in range(10_000):
            x = true_step(x)
            worst = max(worst, float(np.linalg.norm(x, axis=1).max()))
        assert worst <= 10.0

    def test_rest_point_is_stationary(self):
        x = np.zeros((1, 3))
        for _ in range(20_000):
            x = true_step(x)
        assert np.allclose(true_step(x), x, atol=1e-13)

    def test_simulate_matches_repeated_steps(self):
        rng = np.random.default_rng(1)
        x0 = 0.5 * rng.standard_normal((4, 3))
        states = simulate(x0, 7)
        x = x0
        for t in range(7):
            x = true_step(x)
            assert np.array_equal(states[t + 1], x)


class TestGenDynamics:
    def test_shapes_and_reproducibility(self):
        a = gen_dynamics(3, 200)
        b = gen_dynamics(3, 200)
        assert a.inputs.shape == (200, 3) and a.targets.shape == (200, 3)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()
        c = gen_dynamics(4, 200)
        assert a.targets.tobytes() != c.targets.tobytes()

    def test_zero_noise_pairs_satisfy_the_generator(self):
        data = gen_dynamics(7, 150, noise=0.0)
        assert np.allclose(true_step(data.inputs), data.targets, atol=1e-12)

    def test_noise_perturbs_targets_only(self):
        clean = gen_dynamics(7, 150, noise=0.0)
        noisy = gen_dynamics(7, 150, noise=0.01)
        assert np.array_equal(clean.inputs, noisy.inputs)
        gap = noisy.targets - clean.targets
        assert 0.0 < np.abs(gap).max() < 0.1
        assert np.std(gap) == pytest.approx(0.01, rel=0.15)

    def test_pair_count_validation(self):
        with pytest.raises(StructuralError):
            gen_dynamics(0, 90)
        with pytest.raises(StructuralError):
            gen_dynamics(0, 205)
        with pytest.raises(StructuralError):
            gen_dynamics(0, 200, noise=-0.1)
        with pytest.raises(StructuralError, match="nonnegative"):
            gen_dynamics(0, 200, noise=math.nan)


class TestSplits:
    def test_split_sizes_and_disjoint_inputs(self):
        s = gen_dynamics_splits(5, 1000)
        n_traj = 1000 // TRAJ_STEPS
        assert s.validation.n == s.evaluation.n == round(0.15 * n_traj) * TRAJ_STEPS
        assert s.train.n + s.validation.n + s.evaluation.n == 1000
        seen = [set(map(tuple, part.inputs))
                for part in (s.train, s.validation, s.evaluation)]
        assert not (seen[0] & seen[1]) and not (seen[0] & seen[2])
        assert not (seen[1] & seen[2])

    def test_splits_cover_the_same_pairs(self):
        """The union of the three splits is the full generated pair set."""
        s = gen_dynamics_splits(5, 300, noise=0.0)
        full = gen_dynamics(5, 300, noise=0.0)
        stacked = np.concatenate(
            [s.train.inputs, s.validation.inputs, s.evaluation.inputs])
        a = np.sort(stacked.view([("", np.float64)] * 3).ravel())
        b = np.sort(full.inputs.view([("", np.float64)] * 3).ravel())
        assert np.array_equal(a, b)

    def test_whole_trajectories_stay_together(self):
        """Consecutive rows of a split chain through the true map."""
        s = gen_dynamics_splits(9, 500, noise=0.0)
        x = s.evaluation.inputs
        for t in range(1, TRAJ_STEPS):
            assert np.allclose(true_step(x[t - 1]), x[t], atol=1e-12)


class TestSurvivalPieces:
    def test_dataset_is_exact_counts(self):
        data = survival_dataset(200, rate=0.9)
        assert data.targets.sum() == 180.0
        assert np.all(data.inputs == 0.0)
        with pytest.raises(StructuralError):
            survival_dataset(100, rate=1.0)

    def test_beta_posterior_variance_matches_scipy_moments(self):
        n, k, p = 40, 36, 10
        dist = scipy.stats.beta(k + 1, n - k + 1)
        expected = dist.moment(2 * p) - dist.moment(p) ** 2
        assert beta_posterior_variance(n, k, p) == pytest.approx(expected,
                                                                 rel=1e-10)

    def test_beta_posterior_variance_validation(self):
        with pytest.raises(StructuralError):
            beta_posterior_variance(10, 11)
        with pytest.raises(StructuralError):
            beta_posterior_variance(10, 5, exponent=2.5)

    def test_analytic_variance_formula(self):
        expected = 0.9 * 0.1 / 500 * (10 * 0.9 ** 9) ** 2
        assert survival_analytic_variance(500) == pytest.approx(expected)


class TestScenarioConfig:
    def test_defaults_resolve(self):
        sc = make_scenario("survival")
        assert sc.kind == "survival" and sc.params["rate"] == 0.9

    def test_overrides_and_tuple_coercion(self):
        sc = make_scenario("dynamics", seed=3, horizons=[1, 2])
        assert sc.params["horizons"] == (1, 2)
        assert sc.seed == 3

    def test_unknown_keys_are_config_errors(self):
        with pytest.raises(ConfigError):
            make_scenario("survival", horizon=3)
        with pytest.raises(ConfigError):
            make_scenario("weather")
        with pytest.raises(ConfigError):
            make_scenario("eigen", seed=-1)


class TestTrueFunctional:
    """The ground-truth rollout head mirrors the model-side semantics."""

    def setup_method(self):
        self.model = make_model("mlp", d_in=3, d_out=3, hidden=(4,), seed=0)
        rng = np.random.default_rng(2)
        self.z = 0.5 * rng.standard_normal((6, 3))

    def test_power(self):
        u = make_qoi("rollout", self.model, functional="power", component=1,
                     exponent=3.0, horizon=4)
        states = simulate(self.z, 4)
        assert np.allclose(true_functional(u, self.z),
                           states[4][:, 1] ** 3, atol=1e-14)

    def test_mean(self):
        u = make_qoi("rollout", self.model, functional="mean", horizon=2)
        states = simulate(self.z, 2)
        assert np.allclose(true_functional(u, self.z),
                           states[2].mean(axis=1), atol=1e-14)

    def test_max_window(self):
        u = make_qoi("rollout", self.model, functional="max", component=0,
                     window=3, horizon=5)
        states = simulate(self.z, 5)
        stacked = np.stack([states[t][:, 0] for t in (3, 4, 5)])
        assert np.allclose(true_functional(u, self.z),
                           stacked.max(axis=0), atol=1e-14)


def test_jackknife_se_of_the_mean_matches_the_classic_formula():
    rng = np.random.default_rng(8)
    e = rng.standard_normal(40)
    v = rng.random(40)
    se = _jackknife_se(lambda err, var: float(err.mean()), e, v)
    assert se == pytest.approx(e.std(ddof=1) / math.sqrt(e.size), rel=1e-10)


@pytest.fixture(scope="module")
def survival_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("survival")
    sc = make_scenario("survival", seed=2, n_grid=(100, 1000), members=8)
    return run_scenario(sc, out_dir=out), out


class TestSurvivalScenario:
    def test_delta_matches_the_analytic_variance(self, survival_run):
        result, _ = survival_run
        for entry in result["metrics"]["per_n"].values():
            analytic = entry["analytic_var"]
            assert entry["delta_var"] == pytest.approx(analytic, rel=1e-6)

    def test_ratio_to_posterior_tightens_with_n(self, survival_run):
        result, _ = survival_run
        per_n = result["metrics"]["per_n"]
        r100 = per_n["N=100"]["delta_over_true"]
        r1000 = per_n["N=1000"]["delta_over_true"]
        assert abs(r1000 - 1.0) < abs(r100 - 1.0)
        assert r1000 == pytest.approx(1.0, abs=0.05)

    def test_bootstrap_is_nonnegative_and_in_band(self, survival_run):
        result, _ = survival_run
        for entry in result["metrics"]["per_n"].values():
            assert entry["ensemble_var"] >= 0.0
            ratio = entry["ensemble_var"] / entry["analytic_var"]
            assert 1 / 3 <= ratio <= 3.0

    def test_report_rows_and_files(self, survival_run):
        result, out = survival_run
        assert len(result["rows"]) == 3 * 2
        with open(Path(out) / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == REPORT_COLUMNS
        assert len(rows) == 1 + len(result["rows"])
        methods = {r[3] for r in rows[1:]}
        assert methods == {"delta", "ensemble", "oracle"}
        prov = json.loads((Path(out) / "provenance.json").read_text())
        assert prov["scenario"] == "survival" and prov["seed"] == 2


class TestEigenScenario:
    def test_quadratic_form_tracks_monte_carlo(self):
        sc = make_scenario("eigen", seed=1, mc_samples=20_000)
        result = run_scenario(sc)
        per_index = result["metrics"]["per_index"]
        assert len(per_index) == 5
        for entry in per_index.values():
            assert entry["rel_gap"] < 0.15
            assert entry["mc_se"] > 0.0

    def test_rerun_is_identical(self):
        sc = make_scenario("eigen", seed=4, mc_samples=5000)
        a = run_scenario(sc)["metrics"]
        b = run_scenario(sc)["metrics"]
        assert a == b

    def test_report_digest_is_pinned(self, tmp_path):
        """The report bytes at seed 5 with the default 1e5 draws, as they
        were when every index recomputed the spectra of the draws; the
        eigen gradients come from the eigenvectors of the chain's symmetric
        form (eigh), and the Monte Carlo spectra from eigvalsh on that form.

        The pin holds for one Python, numpy and BLAS environment:
        provenance.json records the versions, and the eigen solver's last
        bits depend on the LAPACK build."""
        run_scenario(make_scenario("eigen", seed=5), out_dir=tmp_path)
        digest = hashlib.sha256()
        for name in ("report.csv", "metrics.json", "provenance.json"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == (
            "b2716a130329b3fda9dd1d4f65d12afa4e2ac4a7fc597b485d6fb23e640da755")

    def test_sample_count_validation(self):
        with pytest.raises(ConfigError):
            run_scenario(make_scenario("eigen", mc_samples=1))
        with pytest.raises(ConfigError):
            run_scenario(make_scenario("eigen", perturb_var=0.0))

    def test_nan_variance_is_refused_by_the_runner_too(self):
        """A Scenario built without make_scenario still meets the runner's
        check, not the eigensolver's "masses must be positive"."""
        params = dict(make_scenario("eigen").params, perturb_var=math.nan)
        with pytest.raises(ConfigError, match="variance must be positive"):
            run_scenario(Scenario(kind="eigen", seed=0, params=params))

    @pytest.mark.parametrize("key, value", [
        ("perturb_var", math.nan), ("perturb_var", "0.01"),
        ("masses", (1.0, math.inf)), ("mc_samples", math.nan),
    ])
    def test_make_scenario_refuses_strings_and_non_finite_values(self, key,
                                                                 value):
        with pytest.raises(ConfigError, match=f"eigen parameter {key}="):
            make_scenario("eigen", **{key: value})


def test_dynamics_report_digest_is_pinned(tmp_path):
    """The report bytes of a benchmark-size dynamics scenario at seed 0,
    with every mlp training (model, ensemble members) ending in the L-BFGS
    polish. Every training and every fit behind the report feeds these
    bytes.

    The pin holds for one Python, numpy and BLAS environment:
    provenance.json records the versions, and the trained bits depend on
    the BLAS build."""
    run_scenario(make_scenario("dynamics", seed=0, n_pairs=300,
                               horizons=(1,), train_steps=500, members=5),
                 out_dir=tmp_path)
    digest = hashlib.sha256()
    for name in ("report.csv", "metrics.json", "provenance.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == (
        "50e680f38aa977eee19dd93a876945cdfcc49fc4093d0b73b2ceddb97c8d4daa")


@pytest.fixture(scope="module")
def dynamics_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dynamics")
    sc = make_scenario("dynamics", seed=5, n_pairs=500, train_steps=1000,
                       horizons=(1, 2), members=4, selection_steps=100,
                       calibration_steps=500)
    return run_scenario(sc, out_dir=out), out, sc


class TestDynamicsScenario:
    def test_metrics_cover_every_qoi_and_method(self, dynamics_run):
        result, _, _ = dynamics_run
        per_qoi = result["metrics"]["per_qoi"]
        assert len(per_qoi) == 6
        for scores in per_qoi.values():
            assert set(scores) == {"delta", "delta-finetuned", "ensemble",
                                   "dropout"}
            for method, s in scores.items():
                assert math.isfinite(s["auc"]) and s["auc"] >= 0.0
                assert -1.0 <= s["corr"] <= 1.0
            assert scores["ensemble"]["improvement_loglik"] == 0.0
            assert scores["ensemble"]["auc_se"] > 0.0
            assert scores["ensemble"]["corr_se"] > 0.0

    def test_finetune_never_scores_below_its_start(self, dynamics_run):
        result, _, _ = dynamics_run
        for entry in result["metrics"]["finetune"].values():
            assert entry["objective_value"] >= entry["objective_at_init"]
            assert all(v > 0.0 for v in entry["scales"].values())

    def test_chosen_reg_comes_from_the_grid(self, dynamics_run):
        result, _, _ = dynamics_run
        assert result["provenance"]["sigma_reg"] in REG_GRID

    def test_report_rows_are_complete_and_finite(self, dynamics_run):
        result, _, _ = dynamics_run
        rows = result["rows"]
        eval_points = round(0.15 * (500 // TRAJ_STEPS)) * TRAJ_STEPS
        assert len(rows) == 6 * 4 * eval_points
        for row in rows[:200]:
            assert row[7] >= 0.0 and math.isfinite(row[7])
            assert row[8] >= 0.0

    def test_aggregate_carries_costs_and_stderr(self, dynamics_run):
        result, _, _ = dynamics_run
        agg = result["metrics"]["aggregate"]
        assert agg["ensemble"]["cost_train_overhead"] == 4.0
        assert agg["dropout"]["cost_inference_evals"] == 10
        assert agg["delta"]["cost_inference_grads"] == 1
        for entry in agg.values():
            assert entry["improvement_loglik_stderr"] >= 0.0

    def test_rerun_writes_identical_bytes(self, dynamics_run, tmp_path):
        _, out, sc = dynamics_run
        again = tmp_path / "again"
        run_scenario(sc, out_dir=again)
        for name in ("report.csv", "metrics.json", "provenance.json"):
            assert (Path(out) / name).read_bytes() == (again / name).read_bytes()


def test_solver_diagnostics_are_reported_and_thread_independent(monkeypatch):
    """metrics.json carries the calibration iteration counts and cap hits,
    each fine-tune's steps and convergence and the whole ridge score curve,
    and none of it depends on the worker pool size."""
    texts = []
    for threads in ("1", "3"):
        monkeypatch.setenv("DELTAVAR_THREADS", threads)
        metrics = run_scenario(make_scenario(
            "dynamics", seed=3, n_pairs=100, horizons=(1,), train_steps=40,
            members=2, dropout_passes=2, selection_steps=20,
            calibration_steps=50))["metrics"]
        curve = metrics["regularizer"]["score_curve"]
        assert [reg for reg, _ in curve] == list(REG_GRID)
        best = max(score for _, score in curve)
        assert metrics["regularizer"]["selected"] == next(
            reg for reg, score in curve if score == best)
        assert set(metrics["calibration"]) == set(metrics["per_qoi"])
        for per_method in metrics["calibration"].values():
            assert set(per_method) == {"delta", "delta-finetuned",
                                       "ensemble", "dropout"}
            for diag in per_method.values():
                assert 0 <= diag["iterations"] <= 50
                assert diag["cap_hit"] == (diag["iterations"] == 50)
        for entry in metrics["finetune"].values():
            assert entry["steps_taken"] >= 1
            assert isinstance(entry["converged"], bool)
        texts.append(stable_json_dumps(
            {key: metrics[key]
             for key in ("calibration", "finetune", "regularizer")}))
    assert texts[0] == texts[1]
