"""Tests for the ensemble and dropout baselines and the cost profiles."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from deltavar.baselines import (EnsembleState, cost_accounting,
                                dropout_variance_batch,
                                ensemble_variance_batch, train_ensemble)
from deltavar.exceptions import NumericalError, StructuralError, TrainingError
from deltavar.models import (Dataset, TrainConfig, _train_stack, make_model,
                             predict, train)
from deltavar.qoi import QuantityOfInterest, make_qoi, qoi_value, qoi_values


def bernoulli_dataset(n=100, k=90):
    y = np.zeros(n)
    y[:k] = 1.0
    return Dataset(np.zeros((n, 1)), y)


def dynamics_dataset(seed=0, n=150):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.tanh(x @ rng.normal(size=(2, 2))) + 0.05 * rng.normal(size=(n, 2))
    return Dataset(x, y)


class TestTrainEnsemble:
    def test_identical_members_have_zero_variance(self):
        # convex fits reach the same optimum from any init, so an init-only
        # ensemble of a bernoulli model collapses
        data = bernoulli_dataset()
        model = make_model("bernoulli-rate")
        ens = train_ensemble(model, data, k=3, mode="init-only", seed=1)
        u = make_qoi("power", model, exponent=10)
        assert ensemble_variance_batch(ens, u, [0.0])[0] == pytest.approx(
            0.0, abs=1e-20)

    def test_bootstrap_members_differ(self):
        data = bernoulli_dataset()
        model = make_model("bernoulli-rate")
        ens = train_ensemble(model, data, k=10, mode="bootstrap-resample",
                             seed=2)
        rates = [m.params.data[0] for m in ens.members]
        assert len(set(rates)) > 1
        assert ens.k == 10

    def test_bootstrap_variance_tracks_analytic_band(self):
        data = bernoulli_dataset(n=100, k=90)
        model = train(make_model("bernoulli-rate"), data)
        ens = train_ensemble(model, data, k=10, mode="bootstrap-resample",
                             seed=3)
        u = make_qoi("power", model, exponent=10)
        var = ensemble_variance_batch(ens, u, [0.0])[0]
        analytic = 0.9 * 0.1 / 100 * (10 * 0.9 ** 9) ** 2
        assert analytic / 3.0 <= var <= 3.0 * analytic

    def test_mlp_members_get_fresh_initializations(self):
        data = dynamics_dataset()
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,), seed=0)
        ens = train_ensemble(model, data, k=3, seed=4,
                             train_cfg=TrainConfig(steps=300))
        first = ens.members[0].params.data
        second = ens.members[1].params.data
        assert not np.allclose(first, second)

    def test_same_seed_reproduces_members(self):
        data = bernoulli_dataset()
        model = make_model("bernoulli-rate")
        a = train_ensemble(model, data, k=4, mode="bootstrap-resample",
                           seed=9)
        b = train_ensemble(model, data, k=4, mode="bootstrap-resample",
                           seed=9)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.params.data, mb.params.data)

    def test_diverging_sgd_raises_and_names_the_member_and_step(self):
        data = dynamics_dataset()
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,), seed=0)
        with pytest.raises(TrainingError, match=r"member \d+ diverged") as err:
            train_ensemble(model, data, k=3, seed=4,
                           train_cfg=TrainConfig(steps=300,
                                                 learning_rate=1e3))
        assert err.value.step is not None

    def test_the_error_names_the_member_that_diverges_first(self):
        """Every member diverges at this learning rate, member 2 (its
        initial parameters scaled up) first: the lockstep stack stops at the
        step at which that member, trained alone, stops, and names it."""
        data = dynamics_dataset()
        cfg = TrainConfig(steps=300, learning_rate=2.0)
        templates = [make_model("mlp", d_in=2, d_out=2, hidden=(4,), seed=s)
                     for s in range(3)]
        templates[2] = templates[2].with_params(
            5.0 * templates[2].params.data)
        with pytest.raises(TrainingError) as alone:
            train(templates[2], data, replace(cfg, seed=2))
        with pytest.raises(TrainingError, match="member 2 diverged") as err:
            _train_stack(templates, [data] * 3, cfg, [0, 1, 2])
        assert "member" not in str(alone.value)
        assert err.value.step == alone.value.step
        assert str(err.value).split("(")[1] == str(alone.value).split("(")[1]

    def test_validation(self):
        data = bernoulli_dataset()
        model = make_model("bernoulli-rate")
        with pytest.raises(StructuralError):
            train_ensemble(model, data, k=1)
        with pytest.raises(StructuralError):
            train_ensemble(model, data, k=3, mode="jackknife")
        trained = train(model, data)
        with pytest.raises(StructuralError):
            EnsembleState(members=(trained,), seeds=(1,), mode="init-only")
        with pytest.raises(StructuralError):
            ensemble_variance_batch(
                EnsembleState(members=(model, model), seeds=(1, 2),
                              mode="init-only"),
                make_qoi("power", model, exponent=1), [0.0])


class TestEnsembleVariance:
    def test_matches_member_loop(self):
        data = dynamics_dataset(seed=5)
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,), seed=0)
        ens = train_ensemble(model, data, k=4, seed=6,
                             train_cfg=TrainConfig(steps=300))
        u = make_qoi("rollout", model, functional="mean", horizon=2)
        zs = np.array([[0.1, -0.2], [0.7, 0.4]])
        batch = ensemble_variance_batch(ens, u, zs)
        from deltavar.qoi import QuantityOfInterest, values_and_deltas
        member_values = []
        for member in ens.members:
            bound = QuantityOfInterest(u.kind, member, u.config)
            member_values.append(values_and_deltas(bound, zs)[0])
        expected = np.var(np.stack(member_values), axis=0, ddof=1)
        np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_batched_mlp_power_values_match_per_row_values(self):
        """Each member evaluates a power quantity on the whole batch in one
        forward pass; the values agree with one qoi_value call per row."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 2))
        data = Dataset(x, np.tanh(x @ np.array([0.8, -0.5])))
        model = make_model("mlp", d_in=2, d_out=1, hidden=(6,), seed=0)
        ens = train_ensemble(model, data, k=3, seed=13,
                             train_cfg=TrainConfig(steps=200))
        u = make_qoi("power", model, exponent=3)
        zs = rng.normal(size=(7, 2))
        per_row = np.array([
            [qoi_value(QuantityOfInterest(u.kind, member, u.config), z)
             for z in zs] for member in ens.members])
        batched = np.stack([qoi_values(u, zs, forward=partial(predict, member))
                            for member in ens.members])
        np.testing.assert_allclose(batched, per_row, rtol=1e-12)
        np.testing.assert_array_equal(ensemble_variance_batch(ens, u, zs),
                                      np.var(batched, axis=0, ddof=1))

    def test_member_permutation_invariance(self):
        data = bernoulli_dataset()
        model = make_model("bernoulli-rate")
        ens = train_ensemble(model, data, k=5, mode="bootstrap-resample",
                             seed=7)
        shuffled = EnsembleState(members=ens.members[::-1],
                                 seeds=ens.seeds[::-1], mode=ens.mode)
        u = make_qoi("power", model, exponent=3)
        a = ensemble_variance_batch(ens, u, [0.0])[0]
        b = ensemble_variance_batch(shuffled, u, [0.0])[0]
        assert a == pytest.approx(b, rel=1e-12)
        assert a >= 0.0


class TestDropoutVariance:
    def trained_mlp(self):
        data = dynamics_dataset(seed=8)
        model = make_model("mlp", d_in=2, d_out=2, hidden=(8,), seed=1)
        return train(model, data, TrainConfig(steps=400))

    def test_vanishing_rate_gives_vanishing_variance(self):
        model = self.trained_mlp()
        u = make_qoi("rollout", model, functional="mean", horizon=2)
        tiny = dropout_variance_batch(model, u, [0.3, -0.1], k=10,
                                      rate=1e-6, seed=0)[0]
        moderate = dropout_variance_batch(model, u, [0.3, -0.1], k=10,
                                          rate=0.3, seed=0)[0]
        assert tiny < 1e-8
        assert moderate > tiny

    def test_fixed_seed_reproduces(self):
        model = self.trained_mlp()
        u = make_qoi("rollout", model, functional="power", component=0,
                     exponent=2, horizon=2)
        zs = np.array([[0.2, 0.5], [-0.4, 0.1]])
        a = dropout_variance_batch(model, u, zs, k=10, rate=0.2, seed=42)
        b = dropout_variance_batch(model, u, zs, k=10, rate=0.2, seed=42)
        c = dropout_variance_batch(model, u, zs, k=10, rate=0.2, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a >= 0.0)

    def test_fractional_power_of_a_negative_output_raises(self):
        """Dropout evaluates a power like every other path: a negative
        output has no real square root, so the passes raise instead of
        returning NaN variances."""
        model = make_model("mlp", d_in=1, d_out=1, hidden=(8,), seed=0)
        u = make_qoi("power", model, exponent=0.5)
        z = np.linspace(-2.0, 2.0, 9)
        for zs in (z[:, None], z):
            with pytest.raises(NumericalError):
                dropout_variance_batch(model, u, zs)

    def test_set_product_takes_one_product_per_pass(self):
        model = make_model("mlp", d_in=1, d_out=1, hidden=(8,), seed=2)
        u = make_qoi("set-product", model)
        zs = np.array([[0.3], [-0.4], [1.1]])
        var = dropout_variance_batch(model, u, zs, k=6, rate=0.2, seed=5)
        rng = np.random.default_rng(5)
        outs = predict(model, np.tile(zs, (6, 1)), rng=rng,
                       dropout_rate=0.2)[:, 0].reshape(6, 3)
        assert var.shape == (1,)
        assert var[0] == np.var(np.prod(outs, axis=1), ddof=1)

    def test_validation(self):
        model = self.trained_mlp()
        u = make_qoi("rollout", model, functional="mean", horizon=1)
        z = [0.0, 0.0]
        for bad_rate in (0.0, 1.0, -0.2):
            with pytest.raises(StructuralError):
                dropout_variance_batch(model, u, z, rate=bad_rate)
        with pytest.raises(StructuralError):
            dropout_variance_batch(model, u, z, k=1, rate=0.1)
        linear = make_model("linear-regression", d_in=2)
        u_lin = make_qoi("power", linear, exponent=1)
        with pytest.raises(StructuralError):
            dropout_variance_batch(linear, u_lin, z, rate=0.1)


class TestCostAccounting:
    def test_counted_primitives_match_method_structure(self):
        delta = cost_accounting("delta", k=10)
        ens = cost_accounting("ensemble", k=10)
        drop = cost_accounting("dropout", k=10)
        assert delta["inference_grads"] == 1 and delta["inference_evals"] == 0
        assert ens["inference_evals"] == 10 and ens["train_overhead"] == 10.0
        assert drop["inference_evals"] == 10 and drop["train_overhead"] == 1.0
        assert ens["memory_factor"] > drop["memory_factor"]

    def test_measures_workload_seconds(self):
        ticks = []
        profile = cost_accounting("delta", workload=lambda: ticks.append(1),
                                  repeats=3)
        assert len(ticks) == 3
        assert profile["seconds"] >= 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(StructuralError):
            cost_accounting("laplace-bridge")
        with pytest.raises(StructuralError):
            cost_accounting("delta", workload=lambda: None, repeats=0)
