"""Command line tests: subcommands, exit codes, files and determinism."""
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from deltavar import cli
from deltavar.bench import make_scenario, run_scenario
from deltavar.cli import load_model_dir, main
from deltavar.covariance import canonical_sigma, load_covariance
from deltavar.delta_variance import GradientDelta, delta_variance
from deltavar.evaluation import retention_curve
from deltavar.models import TrainConfig, mean_loglik_grad, predict
from deltavar.qoi import (make_qoi, parse_qoi, qoi_value_and_delta,
                          values_and_deltas)
from deltavar.util import format_float


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A trained bernoulli model directory shared across CLI tests."""
    tmp = tmp_path_factory.mktemp("cli-model")
    cfg = tmp / "train.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "bernoulli-rate"},
        "data": {"kind": "survival", "n": 120, "rate": 0.9},
        "train": {"grad_tol": 1e-13},
    }))
    out = tmp / "bern"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_writes_model_and_data(self, model_dir, capsys):
        assert (model_dir / "model.json").exists()
        assert (model_dir / "data.npz").exists()
        model, data = load_model_dir(model_dir)
        assert model.kind == "bernoulli-rate"
        assert data.n == 120
        assert model.params.data[0] == pytest.approx(0.9, abs=1e-10)

    def test_params_round_trip_exactly(self, model_dir):
        model, _ = load_model_dir(model_dir)
        stored = json.loads((model_dir / "model.json").read_text())["params"]
        assert [repr(float(x)) for x in model.params.data] \
            == [repr(float(x)) for x in stored]

    def test_a_saturated_logistic_fit_says_so(self, tmp_path, capsys):
        """A separable fit ends with probabilities of exactly 0 or 1 and
        zero curvature: the line says it saturated and the model is not
        converged. With one label flipped the data are not separable: the
        fit converges, although some probabilities round to exactly 1."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 2))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0) * 1.0
        flipped = y.copy()
        flipped[0] = 1.0 - flipped[0]
        for name, labels in (("separable", y), ("overlapping", flipped)):
            np.savez(tmp_path / f"{name}.npz", inputs=X,
                     targets=labels[:, None])
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({
                "model": {"kind": "logistic", "d_in": 2},
                "data": {"kind": "file",
                         "path": str(tmp_path / f"{name}.npz")}}))
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out",
                         str(out)]) == 0
            line = capsys.readouterr().out
            saturated = name == "separable"
            assert ("saturated: a fitted probability is exactly 0 or 1 "
                    "with zero curvature" in line) == saturated, line
            assert load_model_dir(out)[0].diagnostics["converged"] \
                is not saturated

    def test_malformed_config_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "never"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_data_generator_argument_error_exits_2(self, tmp_path, capsys):
        """A pair count that is not whole trajectories is a config problem."""
        out = tmp_path / "never"
        code = main(["train", "--set", "model.kind=mlp", "--set", "model.d_in=3",
                     "--set", "model.d_out=3", "--set", "data.kind=dynamics",
                     "--set", "data.n=105", "--out", str(out)])
        assert code == 2
        assert not out.exists() and not (tmp_path / "never.partial").exists()
        assert "multiple of 10" in capsys.readouterr().err

    def test_unknown_config_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"kind": "bernoulli-rate"},
                                   "data": {"kind": "survival"},
                                   "extra": {}}))
        out = tmp_path / "never"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


class TestDeltavarCommand:
    def test_matches_the_library_bit_for_bit(self, model_dir, capsys):
        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", "fisher-diag", "--qoi", "power10",
                     "--input", "0.9"])
        assert code == 0
        printed = capsys.readouterr().out.strip()

        model, data = load_model_dir(model_dir)
        u = make_qoi("power", model, exponent=10.0)
        _, delta = qoi_value_and_delta(u, np.array([0.9]))
        nu = delta_variance(delta, canonical_sigma(model, data, mode="diag"))
        assert printed == repr(nu)
        assert float(printed) == nu

    def test_one_line_per_input(self, model_dir, capsys):
        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", "fisher-full", "--qoi", "power2",
                     "--input", "0.9", "--input", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]  # bernoulli quantities ignore the input

    def test_set_product_prints_one_line_for_the_set(self, model_dir, capsys):
        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", "fisher-full", "--qoi", "set-product",
                     "--input", "0.9", "--input", "0.5", "--input", "0.1"])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()

        model, data = load_model_dir(model_dir)
        u = make_qoi("set-product", model)
        _, delta = qoi_value_and_delta(u, np.array([[0.9], [0.5], [0.1]]))
        nu = delta_variance(delta, canonical_sigma(model, data, mode="full"))
        assert printed == [repr(nu)]

    def test_input_dimension_mismatch_exits_2(self, model_dir, capsys):
        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", "fisher-diag", "--qoi", "power10",
                     "--input", "0.9,0.1"])
        assert code == 2

    def test_bad_qoi_and_bad_sigma_exit_2(self, model_dir, capsys):
        assert main(["deltavar", "--model", str(model_dir),
                     "--sigma", "fisher-diag", "--qoi", "power:exponent=ten",
                     "--input", "0.9"]) == 2
        assert main(["deltavar", "--model", str(model_dir),
                     "--sigma", "frobnicate", "--qoi", "power10",
                     "--input", "0.9"]) == 2


class TestRepeatedCalls:
    """`main` builds its parser once per process; no call leaks into the
    next."""

    @staticmethod
    def deltavar(model_dir, *inputs):
        return ["deltavar", "--model", str(model_dir), "--sigma", "fisher-diag",
                "--qoi", "power10", *(a for z in inputs for a in ("--input", z))]

    def test_a_set_does_not_carry_into_the_next_call(self, model_dir, capsys):
        argv = self.deltavar(model_dir, "0.9")
        assert main(argv + ["--set", "reg=1"]) == 2
        assert "takes no config" in capsys.readouterr().err
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and err == ""

    def test_inputs_do_not_carry_into_the_next_call(self, model_dir, capsys):
        assert main(self.deltavar(model_dir, "0.9", "0.5")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(self.deltavar(model_dir, "0.9")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_a_usage_error_leaves_the_next_call_working(self, model_dir,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.deltavar(model_dir))  # --input is required
        assert exc.value.code == 2
        assert "--input" in capsys.readouterr().err
        assert main(self.deltavar(model_dir, "0.9")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_the_same_call_twice_prints_the_same_bytes(self, model_dir,
                                                       capsys):
        argv = self.deltavar(model_dir, "0.9", "0.5")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_importing_the_cli_builds_no_parser(self):
        script = ("import deltavar.cli as cli\n"
                  "print(cli._build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("text", ["{not json", "[]", '{"kind": "mlp"}',
                                  "no d_in"])
def test_corrupt_model_json_exits_1_with_a_message(model_dir, tmp_path,
                                                   capsys, text):
    if text == "no d_in":
        obj = json.loads((model_dir / "model.json").read_text())
        del obj["hyper"]["d_in"]
        text = json.dumps(obj)
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "model.json").write_text(text)
    (broken / "data.npz").write_bytes((model_dir / "data.npz").read_bytes())
    code = main(["deltavar", "--model", str(broken), "--sigma", "fisher-diag",
                 "--qoi", "power2", "--input", "0.9"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "corrupt model" in captured.err


def test_malformed_sigma_header_exits_1_with_a_message(model_dir, tmp_path,
                                                       capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"{}\n")
    code = main(["deltavar", "--model", str(model_dir), "--sigma", str(bad),
                 "--qoi", "power2", "--input", "0.9"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "header" in captured.err


def test_undefined_power_exits_1_with_a_message(tmp_path, capsys):
    """A negative output has no real 2.5th power: exit 1, no traceback."""
    x = np.linspace(0.5, 1.5, 20)[:, None]
    np.savez(tmp_path / "line.npz", inputs=x, targets=-2.0 * x)
    out = tmp_path / "line"
    assert main(["train", "--set", "model.kind=linear-regression",
                 "--set", "data.kind=file",
                 "--set", f"data.path={tmp_path / 'line.npz'}",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["deltavar", "--model", str(out), "--sigma", "fisher-full",
                 "--qoi", "power:exponent=2.5", "--input", "1.0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.fixture(scope="module")
def wave_mlp(tmp_path_factory):
    """An mlp trained below the default mlp retrain tolerance of 1e-3."""
    tmp = tmp_path_factory.mktemp("wave")
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(100, 1))
    np.savez(tmp / "wave.npz", inputs=x,
             targets=np.sin(3.0 * x) + 0.1 * rng.normal(size=(100, 1)))
    out = tmp / "wave"
    assert main(["train", "--set", "model.kind=mlp",
                 "--set", "model.hidden=[8]", "--set", "data.kind=file",
                 "--set", f"data.path={tmp / 'wave.npz'}",
                 "--set", "train.steps=200", "--set", "train.grad_tol=1e-6",
                 "--out", str(out)]) == 0
    return out


def test_eps_loo_that_measures_nothing_exits_1(wave_mlp, capsys):
    """No eps-LOO retrain takes a step at the default mlp tolerance, and the
    oracle refuses instead of printing 0, naming the key that tightens it."""
    capsys.readouterr()
    code = main(["oracle", "--model", str(wave_mlp), "--kind", "eps-loo",
                 "--qoi", "power1", "--input", "0.0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "grad_tol" in captured.err


def test_eps_loo_with_a_tighter_grad_tol_measures(wave_mlp, capsys,
                                                  monkeypatch):
    """--set grad_tol reaches the retrains as TrainConfig(steps=2000,
    grad_tol=...). On this model they run to that cap without meeting
    1e-10 (about 70 s), so the test records the settings and caps the
    retrains at 20 steps."""
    seen = []

    def capped(**settings):
        seen.append(settings)
        return TrainConfig(**{**settings, "steps": 20})

    monkeypatch.setattr(cli, "TrainConfig", capped)
    capsys.readouterr()
    code = main(["oracle", "--model", str(wave_mlp), "--kind", "eps-loo",
                 "--qoi", "power1", "--input", "0.0",
                 "--set", "grad_tol=1e-10"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "eps-loo"
    assert report["estimate"] > 0.0
    assert seen == [{"steps": 2000, "grad_tol": 1e-10}]
    assert main(["oracle", "--model", str(wave_mlp), "--kind", "eps-loo",
                 "--qoi", "power1", "--input", "0.0",
                 "--set", "grad_tol=tight"]) == 2


MLP_TRAIN = ["train", "--set", "model.kind=mlp", "--set", "model.d_in=3",
             "--set", "model.d_out=3", "--set", "model.hidden=[3]",
             "--set", "data.kind=dynamics", "--set", "data.n=100",
             "--set", "train.steps=5"]


@pytest.mark.parametrize("argv", [
    MLP_TRAIN + ["--set", "train.steps=many"],
    MLP_TRAIN + ["--set", "train.batch=0"],
    MLP_TRAIN + ["--set", "train.batch=-4"],
    MLP_TRAIN + ["--set", "train.steps=-2"],
    ["bench", "--set", "scenario=eigen", "--set", "params.mc_samples=lots"],
    ["bench", "--set", "scenario=eigen", "--set", "params.masses=5"],
    ["bench", "--set", "scenario=[]"],
    MLP_TRAIN + ["--set", "model.dropout_rate=0.1"],
], ids=["steps", "batch-zero", "batch-negative", "steps-negative", "samples",
        "masses", "scenario", "dropout-rate"])
def test_unconvertible_settings_exit_2_before_writing(tmp_path, capsys, argv):
    """Values that raised a raw ValueError or TypeError, a negative batch
    (which looped forever) and a negative step count (which trained
    nothing and exited 0) are configuration errors."""
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error:")


def test_model_json_with_a_stored_dropout_rate_predicts_the_same(tmp_path,
                                                                  capsys):
    """Model files once stored an unused mlp dropout_rate in hyper; such a
    file still loads, and its model predicts and answers the same bits."""
    new = tmp_path / "new"
    assert main(MLP_TRAIN + ["--out", str(new)]) == 0
    old = tmp_path / "old"
    old.mkdir()
    obj = json.loads((new / "model.json").read_text())
    assert "dropout_rate" not in obj["hyper"]
    obj["hyper"]["dropout_rate"] = 0.1
    (old / "model.json").write_text(json.dumps(obj))
    (old / "data.npz").write_bytes((new / "data.npz").read_bytes())
    zs = np.random.default_rng(0).standard_normal((5, 3))
    outs = {}
    for name, directory in (("new", new), ("old", old)):
        model, _ = load_model_dir(directory)
        outs[name] = predict(model, zs).tobytes()
        # an rng without a rate masks nothing
        assert predict(model, zs, rng=np.random.default_rng(1)).tobytes() \
            == outs[name]
        capsys.readouterr()
        assert main(["deltavar", "--model", str(directory), "--sigma",
                     "fisher-diag", "--qoi", "rollout:functional=mean,horizon=2",
                     "--input", "0.1,0.2,0.3"]) == 0
        outs[name + " nu"] = capsys.readouterr().out
    assert outs["old"] == outs["new"]
    assert outs["old nu"] == outs["new nu"]


@pytest.mark.parametrize("sets", [
    ["scenario=survival", "params.rate=NaN", "params.n_grid=[10]"],
    ["scenario=survival", "params.rate=nan", "params.n_grid=[10]"],
    ["scenario=eigen", "params.perturb_var=nan"],
    ["scenario=dynamics", "params.noise=NaN"],
], ids=["rate-NaN", "rate-string", "perturb-var-nan", "noise-NaN"])
def test_non_finite_or_string_scenario_values_exit_2(tmp_path, capsys, sets):
    """A NaN or a string for a numeric scenario parameter raised a raw
    ValueError or TypeError in the runner, or failed later naming the wrong
    input; make_scenario refuses it by key before anything is written."""
    out = tmp_path / "never"
    argv = ["bench"] + [arg for s in sets for arg in ("--set", s)]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert sets[1].split("=")[0].removeprefix("params.") + "=" in err


def test_oracle_option_that_does_not_convert_exits_2(model_dir, capsys):
    assert main(["oracle", "--model", str(model_dir), "--kind", "posterior-mc",
                 "--qoi", "power2", "--input", "0.9",
                 "--set", "samples=some"]) == 2


def test_gradient_norm_without_a_polish_is_measured(tmp_path, capsys):
    """No polish step still measures the final gradient norm, at the SGD end
    point: model.json holds the norm of the mean gradient there."""
    out = tmp_path / "mlp"
    assert main(MLP_TRAIN + ["--set", "train.polish_steps=0",
                             "--out", str(out)]) == 0
    diagnostics = json.loads((out / "model.json").read_text())["diagnostics"]
    model, data = load_model_dir(out)
    expected = np.linalg.norm(mean_loglik_grad(model, data.inputs,
                                               data.targets))
    assert math.isfinite(diagnostics["final_grad_norm"])
    assert diagnostics["final_grad_norm"] == pytest.approx(expected,
                                                           rel=1e-12)
    assert model.diagnostics == diagnostics


@pytest.mark.parametrize("damage", ["empty data", "no block_scales"])
def test_damaged_files_exit_1_with_a_message(model_dir, tmp_path, capsys,
                                             damage):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "model.json").write_bytes((model_dir / "model.json").read_bytes())
    (broken / "data.npz").write_bytes(
        b"" if damage == "empty data" else (model_dir / "data.npz").read_bytes())
    sigma = tmp_path / "sigma"
    assert main(["sigma", "--model", str(model_dir), "--out", str(sigma)]) == 0
    raw = (sigma / "sigma.bin").read_bytes()
    if damage == "no block_scales":
        raw = raw.replace(b'"block_scales"', b'"block_scalez"', 1)
    (sigma / "sigma.bin").write_bytes(raw)
    capsys.readouterr()
    code = main(["deltavar", "--model", str(broken),
                 "--sigma", str(sigma / "sigma.bin"), "--qoi", "power2",
                 "--input", "0.9"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


class TestSigmaCommand:
    def test_saved_sigma_reloads_and_reuses(self, model_dir, tmp_path, capsys):
        out = tmp_path / "sig"
        assert main(["sigma", "--model", str(model_dir), "--kind", "sandwich",
                     "--out", str(out)]) == 0
        sigma = load_covariance(out / "sigma.bin")
        assert sigma.kind == "sandwich" and sigma.inverted
        capsys.readouterr()

        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", str(out / "sigma.bin"), "--qoi", "power10",
                     "--input", "0.9"])
        assert code == 0
        from_file = float(capsys.readouterr().out.strip())

        code = main(["deltavar", "--model", str(model_dir),
                     "--sigma", "sandwich", "--qoi", "power10",
                     "--input", "0.9"])
        assert code == 0
        on_the_fly = float(capsys.readouterr().out.strip())
        assert from_file == on_the_fly

    def test_refuses_then_forces_overwrite(self, model_dir, tmp_path, capsys):
        out = tmp_path / "sig"
        args = ["sigma", "--model", str(model_dir), "--kind", "fisher-diag",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 1
        assert "not empty" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0
        assert not out.with_name(out.name + ".partial").exists()


@pytest.fixture(scope="module")
def wide_mlp_dir(tmp_path_factory):
    """A dynamics mlp of d = 171 trained on 100 pairs: fewer examples than
    parameters."""
    out = tmp_path_factory.mktemp("cli-wide-mlp") / "model"
    assert main(["train", "--set", "model.kind=mlp", "--set", "model.d_in=3",
                 "--set", "model.d_out=3", "--set", "model.hidden=[24]",
                 "--set", "data.kind=dynamics", "--set", "data.n=100",
                 "--set", "train.steps=200", "--out", str(out)]) == 0
    return out


def test_wide_mlp_fisher_full_round_trip(wide_mlp_dir, tmp_path, capsys):
    """`sigma --kind fisher-full` on an mlp with N < d writes a Woodbury
    file, `deltavar` prints the library's nu for it byte for byte, and the
    posterior-mc oracle accepts it; a factor row too many exits 1."""
    sigma_dir, qoi_text = tmp_path / "sigma", "rollout:horizon=2"
    assert main(["sigma", "--model", str(wide_mlp_dir), "--kind",
                 "fisher-full", "--reg", "1e-3", "--out", str(sigma_dir)]) == 0
    path = sigma_dir / "sigma.bin"
    model, data = load_model_dir(wide_mlp_dir)
    sigma = load_covariance(path)
    built = canonical_sigma(model, data, mode="full", reg=1e-3)
    assert sigma.woodbury and sigma.values.shape == (data.n, model.params.dim)
    assert sigma.values.tobytes() == built.values.tobytes()
    capsys.readouterr()
    inputs = ["0.1,-0.2,0.3", "0.5,0.4,-0.6"]
    assert main(["deltavar", "--model", str(wide_mlp_dir), "--sigma",
                 str(path), "--qoi", qoi_text,
                 *(f"--input={z}" for z in inputs)]) == 0
    u = parse_qoi(qoi_text, model)
    _, deltas = values_and_deltas(
        u, np.array([[float(x) for x in z.split(",")] for z in inputs]))
    assert capsys.readouterr().out == "".join(
        format_float(delta_variance(GradientDelta(row), sigma)) + "\n"
        for row in deltas)
    assert main(["oracle", "--model", str(wide_mlp_dir), "--kind",
                 "posterior-mc", "--qoi", qoi_text, "--input=0.1,-0.2,0.3",
                 "--set", "samples=200", "--set", f"sigma={path}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 200 and math.isfinite(report["estimate"])
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header.replace(b'"rank": 100', b'"rank": 171') + b"\n"
                     + payload)
    assert main(["deltavar", "--model", str(wide_mlp_dir), "--sigma",
                 str(path), "--qoi", qoi_text, "--input=0.1,-0.2,0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'rank' is 171" in err
    assert "Traceback" not in err


class TestOracleCommand:
    def test_posterior_mc_json_and_seed_reproducibility(self, model_dir,
                                                        capsys):
        args = ["oracle", "--model", str(model_dir), "--kind", "posterior-mc",
                "--qoi", "power10", "--input", "0.9", "--seed", "3",
                "--set", "samples=5000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        report = json.loads(first)
        assert report["kind"] == "gaussian-posterior-mc"
        assert report["count"] == 5000 and report["spread"] > 0.0
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_mahalanobis_reports_grad_norm(self, model_dir, capsys):
        assert main(["oracle", "--model", str(model_dir),
                     "--kind", "mahalanobis", "--qoi", "power10",
                     "--input", "0.9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grad_norm"] is not None
        assert report["grad_norm"] < 1e-8

    def test_unknown_kind_exits_2(self, model_dir, capsys):
        assert main(["oracle", "--model", str(model_dir), "--kind", "tarot",
                     "--qoi", "power10", "--input", "0.9"]) == 2

    def test_unknown_option_exits_2(self, model_dir, capsys):
        assert main(["oracle", "--model", str(model_dir), "--kind", "loo",
                     "--qoi", "power10", "--input", "0.9",
                     "--set", "bogus=1"]) == 2


@pytest.fixture(scope="module")
def linear_dirs(tmp_path_factory):
    """Trained linear-regression directories with 3 and 4 parameters."""
    tmp = tmp_path_factory.mktemp("cli-linear")
    rng = np.random.default_rng(4)
    dirs = {}
    for d in (3, 4):
        x = rng.standard_normal((40, d))
        np.savez(tmp / f"data{d}.npz", inputs=x,
                 targets=x @ np.ones(d) + 0.1 * rng.standard_normal(40))
        dirs[d] = tmp / f"linear{d}"
        assert main(["train", "--set", "model.kind=linear-regression",
                     "--set", f"model.d_in={d}", "--set", "data.kind=file",
                     "--set", f"data.path={tmp / f'data{d}.npz'}",
                     "--out", str(dirs[d])]) == 0
    return dirs


@pytest.mark.parametrize("kind", ["fisher-full", "fisher-diag"])
@pytest.mark.parametrize("other", ["bernoulli", "linear4"])
def test_posterior_mc_with_another_models_sigma_exits_1(
        model_dir, linear_dirs, tmp_path, capsys, kind, other):
    """A saved covariance of another dimension (1 or 4 against the model's
    3) is refused with a message: a full one raised a raw ValueError, and a
    one-parameter diagonal was broadcast over all three parameters."""
    sigma = tmp_path / "sigma"
    source = model_dir if other == "bernoulli" else linear_dirs[4]
    assert main(["sigma", "--model", str(source), "--kind", kind,
                 "--out", str(sigma)]) == 0
    capsys.readouterr()
    code = main(["oracle", "--model", str(linear_dirs[3]),
                 "--kind", "posterior-mc", "--qoi", "power2",
                 "--input", "0.1,0.2,0.3", "--set", "samples=100",
                 "--set", f"sigma={sigma / 'sigma.bin'}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "does not fit a mean of 3" in err
    assert "Traceback" not in err
    assert main(["oracle", "--model", str(linear_dirs[3]),
                 "--kind", "posterior-mc", "--qoi", "power2",
                 "--input", "0.1,0.2,0.3", "--set", "samples=100",
                 "--set", f"sigma={kind}"]) == 0


@pytest.mark.parametrize("kind", ["fisher-full", "fisher-diag"])
@pytest.mark.parametrize("text", ["inf,0.1,0.2", "0.1,nan,0.2"])
def test_non_finite_input_exits_1_without_a_warning(linear_dirs, capsys,
                                                    kind, text):
    """An input whose gradient holds an inf or NaN is refused before any
    form is computed: exit 1 with a message, and no numpy RuntimeWarning,
    which warnings set to errors would turn into a traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["deltavar", "--model", str(linear_dirs[3]), "--sigma",
                     kind, "--qoi", "power1", f"--input={text}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "non-finite" in captured.err


class TestBenchCommand:
    def test_survival_writes_reports_and_plotdata(self, tmp_path, capsys):
        out = tmp_path / "surv"
        code = main(["bench", "--set", "scenario=survival",
                     "--set", "params.n_grid=[100,1000]",
                     "--set", "params.members=5",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        for name in ("report.csv", "metrics.json", "provenance.json",
                     "convergence.csv"):
            assert (out / name).exists()
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["params"]["n_grid"] == [100, 1000]
        assert prov["seed"] == 2
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,analytic_var,true_var,delta_var,ensemble_var"
        n, analytic, true, delta, ens = lines[1].split(",")
        assert int(n) == 100
        assert float(delta) == pytest.approx(float(analytic), rel=1e-6)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["bench", "--set", "scenario=eigen",
                "--set", "params.mc_samples=4000", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("report.csv", "metrics.json", "provenance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_scenario_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "nope"
        assert main(["bench", "--set", "scenario=weather",
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestFinetuneCommand:
    def test_writes_scales_and_accept_only_holds(self, tmp_path, capsys):
        out = tmp_path / "ft"
        code = main(["finetune", "--set", "scenario=dynamics",
                     "--set", "params.n_pairs=500",
                     "--set", "params.train_steps=600",
                     "--set", "params.horizons=[1]",
                     "--set", "params.selection_steps=60",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        scales = json.loads((out / "scales.json").read_text())
        assert len(scales) == 3
        for entry in scales.values():
            assert entry["objective_value"] >= entry["objective_at_init"]
            assert all(v > 0.0 for v in entry["scales"].values())
        assert "objective" in capsys.readouterr().out


class TestCostCommand:
    def test_prints_three_profiles(self, capsys):
        code = main(["cost", "--set", "scenario=dynamics",
                     "--set", "params.n_pairs=500",
                     "--set", "params.train_steps=400",
                     "--set", "params.horizons=[1]",
                     "--seed", "0", "--repeats", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] \
            == ["delta", "dropout", "ensemble"]

    def test_nonpositive_repeats_exit_2_before_training(self, tmp_path):
        out = tmp_path / "cost"
        code = main(["cost", "--set", "scenario=dynamics", "--repeats", "0",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()


def _plot_tables_read_back(report_dir) -> dict:
    """The plot CSVs rebuilt by parsing a written report directory's
    report.csv and metrics.json, the way the tables were once derived:
    {file name: text}."""
    def table(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(x) if isinstance(x, float) else str(x)
                          for x in row] for row in rows)
        return buf.getvalue()

    metrics = json.loads((report_dir / "metrics.json").read_text())
    if "per_n" in metrics:
        return {"convergence.csv": table(
            ("n", "analytic_var", "true_var", "delta_var", "ensemble_var"),
            [(e["n"], float(e["analytic_var"]), float(e["true_var"]),
              float(e["delta_var"]), float(e["ensemble_var"]))
             for e in sorted(metrics["per_n"].values(),
                             key=lambda e: e["n"])])}
    groups: dict = {}
    with open(report_dir / "report.csv") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["qoi_id"], row["method"]), []).append(
                (float(row["value"]), float(row["error"])))
    retention = []
    for key in sorted(groups):
        pairs = groups[key]
        tail = retention_curve([p[1] for p in pairs], [p[0] for p in pairs])
        retention += [(*key, i / len(pairs), float(tail[i]))
                      for i in range(len(pairs))]
    costs = []
    for method in sorted(metrics["aggregate"]):
        entry = metrics["aggregate"][method]
        for metric in ("auc", "corr", "loglik"):
            costs.append((method, metric,
                          float(entry["cost_train_overhead"]),
                          float(entry["cost_inference_evals"]),
                          float(entry["cost_inference_grads"]),
                          float(entry["cost_memory_factor"]),
                          float(entry[f"improvement_{metric}_mean"]),
                          float(entry[f"improvement_{metric}_stderr"])))
    return {
        "retention.csv": table(("qoi_id", "method", "fraction_removed",
                                "mean_abs_error"), retention),
        "cost_quality.csv": table(
            ("method", "metric", "train_overhead", "inference_evals",
             "inference_grads", "memory_factor", "improvement", "stderr"),
            costs)}


@pytest.fixture(scope="module")
def dynamics_bench(tmp_path_factory):
    """A small dynamics bench directory shared by the plot-data tests."""
    out = tmp_path_factory.mktemp("plot") / "dyn"
    code = main(["bench", "--set", "scenario=dynamics",
                 "--set", "params.n_pairs=500",
                 "--set", "params.train_steps=600",
                 "--set", "params.horizons=[1]",
                 "--set", "params.members=4",
                 "--set", "params.selection_steps=60",
                 "--set", "params.calibration_steps=300",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


class TestPlotdata:
    def test_tables_equal_the_report_read_back(self, dynamics_bench,
                                               tmp_path, capsys):
        """The plot CSVs, built from the run's own rows and metrics, have
        the bytes of the tables parsed back from the written report, and
        bench prints every file it wrote."""
        capsys.readouterr()
        survival = tmp_path / "surv"
        assert main(["bench", "--set", "scenario=survival",
                     "--set", "params.n_grid=[10,100]",
                     "--set", "params.members=3",
                     "--seed", "2", "--out", str(survival)]) == 0
        printed = capsys.readouterr().out.split()
        for out in (dynamics_bench, survival):
            expected = _plot_tables_read_back(out)
            for name, text in expected.items():
                # a bool, so a failure skips pytest's slow diff of the text
                same = (out / name).read_text() == text
                assert same, name
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["report.csv", "metrics.json", "provenance.json", *expected])
        assert printed == [str(survival / name) for name in (
            "report.csv", "metrics.json", "provenance.json",
            "convergence.csv")]

    def test_retention_starts_at_the_overall_mean(self, dynamics_bench):
        out = dynamics_bench
        with open(out / "report.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] == "delta"]
        qoi = rows[0]["qoi_id"]
        errors = [float(r["error"]) for r in rows if r["qoi_id"] == qoi]
        with open(out / "retention.csv") as fh:
            ret = [r for r in csv.DictReader(fh)
                   if r["method"] == "delta" and r["qoi_id"] == qoi]
        assert float(ret[0]["fraction_removed"]) == 0.0
        assert float(ret[0]["mean_abs_error"]) \
            == pytest.approx(np.mean(errors), rel=1e-12)
        fractions = [float(r["fraction_removed"]) for r in ret]
        assert fractions == sorted(fractions)

    def test_run_scenario_writes_the_three_report_files_only(self, tmp_path):
        run_scenario(make_scenario("survival", seed=1, n_grid=(10,),
                                   members=2, train_steps=200),
                     out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["metrics.json", "provenance.json", "report.csv"]


def test_dynamics_run_never_imports_scipy_optimize():
    """The runtime is numpy only: small survival, dynamics and eigen
    scenarios load no scipy module at all. scipy.optimize alone costs about
    0.1 s of import time and 18 MB of memory, scipy.linalg about 0.4 s."""
    script = (
        "import sys\n"
        "import deltavar.cli\n"
        "from deltavar.bench import make_scenario, run_scenario\n"
        "run_scenario(make_scenario('survival', seed=1, n_grid=(10, 100),\n"
        "    members=2, train_steps=200))\n"
        "run_scenario(make_scenario('dynamics', seed=1, n_pairs=100,\n"
        "    horizons=(1,), train_steps=40, members=2, dropout_passes=2,\n"
        "    selection_steps=5, calibration_steps=20))\n"
        "run_scenario(make_scenario('eigen', seed=1, mc_samples=100))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_invalid_thread_count_exits_2_before_any_work(threads, monkeypatch,
                                                      tmp_path, capsys):
    """A DELTAVAR_THREADS that is not a positive integer is a config error
    read before the command runs: exit 2, a message naming the variable and
    no output directory. It used to train first and end in a raw
    ValueError."""
    monkeypatch.setenv("DELTAVAR_THREADS", threads)
    out = tmp_path / "dyn"
    code = main(["bench", "--set", "scenario=dynamics",
                 "--set", "params.n_pairs=100",
                 "--set", "params.train_steps=20",
                 "--set", "params.horizons=[1]",
                 "--set", "params.members=2", "--out", str(out)])
    assert code == 2
    assert "DELTAVAR_THREADS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
