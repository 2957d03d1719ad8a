"""Tests of the benchmark itself: the schema and names it promises, a
tiny-size run of every workload through the same code path, the refusal to
run without the package sources, and the tracer's bookkeeping. Timings are
never asserted.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("queries", "batch")
END_TO_END = ("setup_s", "run_s", "queries_per_s", "request_p50_ms",
              "request_p90_ms", "peak_rss_mb")
PER_LAYER = (
    "autodiff.Tape.grad.calls", "autodiff.Tape.grad.self_s",
    "autodiff.Tape.hessian.calls", "autodiff.Tape.hessian.self_s",
    "models.train.calls", "models.train.self_s", "models.train.steps",
    "models.mean_loglik_grad.calls",
    "models.loglik_grad_batch.calls", "models.loglik_grad_batch.self_s",
    *(f"covariance.{f}.{m}" for f in ("empirical_fisher", "loss_hessian",
                                      "invert", "sandwich")
      for m in ("calls", "self_s")),
    *(f"covariance.{f}.{m}" for f in ("save_covariance", "load_covariance")
      for m in ("self_s", "bytes")),
    *(f"qoi.{f}.{m}" for f in ("values_and_deltas", "qoi_value_and_delta",
                               "value_batch_params", "_eigen_value_batch")
      for m in ("calls", "self_s")),
    "delta_variance.delta_variance.calls",
    "delta_variance.delta_variance.self_s",
    "delta_variance.finetune_scales.calls",
    "delta_variance.finetune_scales.self_s",
    "delta_variance.finetune_scales.steps",
    "evaluation.fit_laplace_calibration.calls",
    "evaluation.fit_laplace_calibration.self_s",
    "evaluation.retention_auc.calls", "evaluation.retention_auc.self_s",
    *(f"baselines.{f}.self_s" for f in ("train_ensemble",
                                        "ensemble_variance_batch",
                                        "dropout_variance_batch")),
    *(f"oracles.{f}.self_s" for f in ("richardson_eps_loo",
                                      "adversarial_shift",
                                      "gaussian_posterior_mc",
                                      "mahalanobis_gradient_distance")),
    "bench._select_regularizer.self_s",
    "bench._select_regularizer.calibration_fits", "bench.run_scenario.self_s",
    *(f"cli.{f}.self_s" for f in ("train", "sigma", "deltavar",
                                  "load_model_dir")),
    "util.ordered_parallel_map.calls", "util.ordered_parallel_map.wall_s",
    "util.ordered_parallel_map.efficiency",
    "share.evaluation", "share.delta_variance.finetune_scales",
    "share.baselines.train_ensemble", "job.dynamics.run_s",
    "job.curvature.run_s", "job.oracles.run_s", "trace.run_s",
    "trace.overhead_s",
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_match_the_spec_and_run_py(spec):
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def _checkout(tmp_path: Path) -> Path:
    """A throwaway checkout: the package sources and BENCHMARK.json."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_promised_result(tmp_path, workload, trace):
    proc = _run(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = run.per_layer_metrics() if trace else list(run.END_TO_END)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads((tmp_path / ".perfbench" / "results" /
                         f"{workload}-seed3-trace{trace}.json").read_text())
    if workload == "batch":
        assert sorted(record["job_seconds"]) == sorted(run.JOBS)
        assert all(record["job_seconds"][job] for job in run.JOBS)
    assert not (tmp_path / ".perfbench" / "work").exists() or not any(
        (tmp_path / ".perfbench" / "work").iterdir())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_check_store_compares_each_code_version_only_with_itself(tmp_path):
    path = tmp_path / "checks.json"
    store = workloads.CheckStore(path, "version-a")
    assert store.first("digest|x|1", "aaa") == "aaa"
    store.save()
    other = workloads.CheckStore(path, "version-b")
    assert other.first("digest|x|1", "bbb") == "bbb"
    other.save()
    again = workloads.CheckStore(path, "version-a")
    assert again.first("digest|x|1", "bbb") == "aaa"


def test_dynamics_digest_differing_under_another_version_is_no_failure(
        tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Dynamics, "seed0_band",
                        lambda self, state, store: [1, 1, 1])
    dynamics = workloads.Dynamics()
    path = tmp_path / "checks.json"

    def finish(fingerprint, digest):
        state = {"params": dynamics.FULL, "full": True, "bands": {},
                 "digests": {7: digest}}
        rec = workloads.Recorder()
        store = workloads.CheckStore(path, fingerprint)
        dynamics.finish(state, rec, store)
        store.save()
        return rec

    assert finish("version-a", "a" * 64).failed == 0
    assert finish("version-b", "b" * 64).failed == 0
    rec = finish("version-a", "c" * 64)
    assert rec.failed == 1 and rec.attempted == 2


def test_queries_batch_sizes_are_one_log_uniform_grid_for_every_seed():
    assert workloads.batch_sizes(8).tolist() == [1, 2, 3, 6, 10, 17, 29, 50]
    sizes = workloads.batch_sizes(200)
    assert sizes.min() == 1 and sizes.max() == 64
    assert (sizes[1:] >= sizes[:-1]).all()


def test_slot_percentiles_do_not_depend_on_the_pass_count():
    one_pass = [[0.004, 0.005, 0.3, 3.0]]
    assert run.slot_latencies(one_pass * 3) == run.slot_latencies(one_pass)
    assert run.slot_latencies([[1.0, 2.0], [3.0, 4.0], [2.0]]) == [2.5, 3.5]


def test_tracer_wraps_every_binding_and_restores_them():
    import deltavar.bench
    import deltavar.cli
    import deltavar.evaluation

    original = deltavar.evaluation.fit_laplace_calibration
    handler = deltavar.cli._HANDLERS["train"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert deltavar.bench.fit_laplace_calibration is not original
        assert deltavar.evaluation.fit_laplace_calibration is \
            deltavar.bench.fit_laplace_calibration
        assert deltavar.cli._HANDLERS["train"] is not handler
    finally:
        tracer.remove()
    assert deltavar.bench.fit_laplace_calibration is original
    assert deltavar.evaluation.fit_laplace_calibration is original
    assert deltavar.cli._HANDLERS["train"] is handler


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, None, "a", 1, 0.0, 10.0, 9.0),
        (2, 1, "b", 1, 1.0, 4.0, 3.0),
        (3, 1, "b", 2, 3.0, 6.0, 2.0),   # overlaps span 2 from another thread
        (4, 3, "c", 2, 3.5, 4.5, 1.0),
    ]
    summary = tracer.summary()
    assert summary["cpu_total"] == pytest.approx(9.0 + 2.0)
    layers = summary["layers"]
    assert layers["a"]["self_s"] == pytest.approx(5.0)
    assert layers["b"]["calls"] == 2
    assert layers["b"]["self_s"] == pytest.approx(3.0 + 2.0)
    assert layers["c"]["total_s"] == pytest.approx(1.0)
