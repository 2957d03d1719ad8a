"""Model contracts: closed-form fits, gradient routes, training behavior."""
import hashlib
import json
import math

import numpy as np
import pytest
from conftest import central_diff_grad, rel_err

from deltavar import (Dataset, StructuralError, Tape, TrainConfig, TrainingError,
                      make_model, predict, train)
from deltavar.models import loglik, loglik_grad_batch, mean_loglik_grad
from deltavar.util import lbfgs, stable_json_dumps
from tape_reference import record_predict


def bernoulli_data(n_ones: int, n_zeros: int) -> Dataset:
    y = np.concatenate([np.ones(n_ones), np.zeros(n_zeros)])
    return Dataset(np.zeros((y.size, 1)), y)


class TestTraining:
    def test_bernoulli_mle_matches_sample_mean(self):
        data = bernoulli_data(90, 10)
        model = train(make_model("bernoulli-rate"), data)
        assert abs(model.params.data[0] - 0.9) < 1e-6
        assert model.diagnostics["final_grad_norm"] <= 1e-6

    def test_bernoulli_outcomes_all_alike_stop_next_to_the_boundary(self):
        """The rate of all ones (all zeros, or all ones among the weighted
        points) is the float next to 1 (next to 2^-53 above 0), in 0 steps;
        Newton steps reached the same 1 - 2^-53 in 26 steps."""
        cases = ((bernoulli_data(10, 0), None, 1.0 - 2.0 ** -53),
                 (bernoulli_data(0, 10), None, 2.0 ** -53),
                 (bernoulli_data(4, 2), [1, 1, 1, 1, 0, 0], 1.0 - 2.0 ** -53))
        for data, weights, rate in cases:
            model = train(make_model("bernoulli-rate"), data,
                          TrainConfig(grad_tol=1e-12,
                                      example_weights=weights))
            assert model.params.data[0] == rate
            assert model.diagnostics["steps"] == 0
            assert not model.diagnostics["converged"]
            assert math.isfinite(model.diagnostics["final_loss"])

    def test_linear_regression_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.5, -2.0, 0.25]) + rng.standard_normal(40)
        data = Dataset(X, y)
        model = train(make_model("linear-regression", d_in=3), data,
                      TrainConfig(steps=20000))
        theta_ne = np.linalg.solve(X.T @ X, X.T @ y)
        assert rel_err(model.params.data, theta_ne) < 1e-6
        assert model.diagnostics["final_grad_norm"] <= 1e-6

    def test_zero_weight_equals_removal_for_linear_regression(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((25, 2))
        y = X @ np.array([0.5, 1.0]) + rng.standard_normal(25)
        data = Dataset(X, y)
        weights = np.ones(25)
        weights[7] = 0.0
        fit_weighted = train(make_model("linear-regression", d_in=2), data,
                             TrainConfig(steps=20000, example_weights=weights))
        keep = np.r_[0:7, 8:25]
        fit_removed = train(make_model("linear-regression", d_in=2),
                            Dataset(X[keep], y[keep]), TrainConfig(steps=20000))
        np.testing.assert_allclose(fit_weighted.params.data,
                                   fit_removed.params.data, rtol=1e-8, atol=1e-10)

    def test_train_is_pure_and_repeatable(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 2))
        y = np.tanh(X @ np.array([[1.0], [-1.0]]))
        data = Dataset(X, y)
        cfg = TrainConfig(steps=300, seed=5)
        base = make_model("mlp", d_in=2, d_out=1, hidden=(4,), seed=3)
        m1 = train(base, data, cfg)
        m2 = train(base, data, cfg)
        np.testing.assert_array_equal(m1.params.data, m2.params.data)
        # the input model is untouched
        np.testing.assert_array_equal(base.params.data,
                                      make_model("mlp", d_in=2, d_out=1,
                                                 hidden=(4,), seed=3).params.data)

    def test_mlp_training_reaches_gradient_threshold(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = 0.5 * X[:, 0] - 0.25 * X[:, 1] ** 2
        data = Dataset(X, y)
        model = train(make_model("mlp", d_in=2, d_out=1, hidden=(8,), seed=0),
                      data, TrainConfig(steps=2000, polish_steps=4000))
        assert model.diagnostics["final_grad_norm"] <= 1e-3
        assert model.diagnostics["converged"]

    def test_divergent_training_raises_with_step_index(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 2)) * 10
        y = rng.standard_normal(30) * 10
        data = Dataset(X, y)
        with pytest.raises(TrainingError) as err:
            train(make_model("mlp", d_in=2, d_out=1, hidden=(8,), seed=0),
                  data, TrainConfig(steps=500, learning_rate=1e4))
        assert err.value.step is not None

    def test_logistic_training_converges(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 2))
        p = 1.0 / (1.0 + np.exp(-(X @ np.array([1.0, -0.5]))))
        y = (rng.random(200) < p).astype(float)
        model = train(make_model("logistic", d_in=2), Dataset(X, y),
                      TrainConfig(steps=20000))
        assert model.diagnostics["final_grad_norm"] <= 1e-6

    def test_separable_logistic_stops_at_finite_parameters(self):
        """The optimum lies at infinity; Newton still stops at finite
        parameters with a zero gradient (the saturation is reported, see
        test_separable_logistic_is_reported_as_saturated)."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 2))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0) * 1.0
        model = train(make_model("logistic", d_in=2), Dataset(X, y))
        assert np.isfinite(model.params.data).all()
        assert model.diagnostics["final_grad_norm"] <= 1e-6

    def test_separable_logistic_is_reported_as_saturated(self):
        """At theta about (14178, 5824) every fitted probability is exactly
        0 or 1 and the gradient exactly 0: not converged, although the
        gradient norm is below grad_tol."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 2))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0) * 1.0
        model = train(make_model("logistic", d_in=2), Dataset(X, y))
        p = predict(model, X)[:, 0]
        assert np.all((p == 0.0) | (p == 1.0))
        assert model.diagnostics["final_grad_norm"] == 0.0
        assert model.diagnostics["converged"] is False

    def test_a_zero_weighted_saturated_example_does_not_count(self):
        """Saturation counts positively weighted examples only: a fit whose
        one far-out example has weight 0 converges."""
        data, weights = _zero_weighted_logistic()
        inputs = data.inputs.copy()
        dropped = int(np.flatnonzero(weights == 0.0)[0])
        inputs[dropped] = 1e6
        model = train(make_model("logistic", d_in=3),
                      Dataset(inputs, data.targets),
                      TrainConfig(example_weights=weights))
        p = predict(model, inputs[dropped])[0]
        assert p in (0.0, 1.0)
        assert model.diagnostics["converged"]

    def test_zero_weighted_logistic_takes_few_newton_steps(self):
        data, weights = _zero_weighted_logistic()
        model = train(make_model("logistic", d_in=3), data,
                      TrainConfig(example_weights=weights))
        assert model.diagnostics["converged"]
        assert model.diagnostics["steps"] <= 10

    def test_zero_weights_equal_removal_for_logistic(self):
        data, weights = _zero_weighted_logistic()
        fit_weighted = train(make_model("logistic", d_in=3), data,
                             TrainConfig(example_weights=weights))
        keep = np.flatnonzero(weights)
        fit_removed = train(make_model("logistic", d_in=3),
                            Dataset(data.inputs[keep], data.targets[keep]))
        np.testing.assert_allclose(fit_weighted.params.data,
                                   fit_removed.params.data, rtol=1e-8,
                                   atol=1e-10)

    def test_diagnostics_serialize_without_a_polish(self):
        """polish_steps=0 still measures the gradient norm (at the SGD end
        point), so the diagnostics are finite JSON."""
        from deltavar.bench import gen_dynamics
        model = train(make_model("mlp", d_in=3, d_out=3, hidden=(24,),
                                 seed=0), gen_dynamics(0, 200),
                      TrainConfig(steps=500, polish_steps=0))
        assert math.isfinite(model.diagnostics["final_grad_norm"])
        assert json.loads(stable_json_dumps(model.diagnostics)) == \
            model.diagnostics

    def test_non_finite_start_raises_with_step_index(self):
        """A start outside the domain stops the full-batch solve at once."""
        with pytest.raises(TrainingError) as err:
            train(make_model("bernoulli-rate").with_params([1.0]),
                  bernoulli_data(3, 2))
        assert err.value.step == 0
        data = Dataset(np.ones((5, 2)), np.zeros(5))
        huge = make_model("mlp", d_in=2, d_out=1, hidden=(3,), seed=0)
        huge = huge.with_params(np.full(huge.params.dim, 1e200))
        with pytest.raises(TrainingError) as err:
            train(huge, data, TrainConfig(steps=0))
        assert err.value.step == 0

    def test_dimension_mismatch_raises(self):
        data = Dataset(np.zeros((5, 3)), np.zeros(5))
        with pytest.raises(StructuralError):
            train(make_model("linear-regression", d_in=2), data)


def _zero_weighted_logistic():
    """A logistic problem of 60 points and weights with ten zeros."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 3))
    p = 1.0 / (1.0 + np.exp(-(X @ np.array([1.0, -0.5, 0.3]))))
    weights = np.ones(60)
    weights[:10] = 0.0
    return Dataset(X, (rng.random(60) < p) * 1.0), weights


def test_lbfgs_solves_an_ill_conditioned_quadratic():
    """d = 20, condition number 1e4, minimum value 0 at x_star."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = (q * np.logspace(0, -4, 20)) @ q.T
    x_star = rng.standard_normal(20)

    def evaluate(x):
        r = x - x_star
        return 0.5 * float(r @ a @ r), a @ r

    result = lbfgs(evaluate, np.zeros(20), 2000, grad_tol=1e-10)
    assert result.converged and result.grad_norm <= 1e-10
    np.testing.assert_allclose(result.x, x_star, atol=1e-5)


def _pinned_training_cases():
    from deltavar.bench import gen_dynamics
    dyn = gen_dynamics(3, 200)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    y_logit = (rng.random(60) < 1.0 / (1.0 + np.exp(-x @ np.array([1.0, -0.5, 0.3])))) * 1.0
    y_lin = (x @ np.array([[0.4, -1.0], [0.2, 0.1], [1.5, 0.0]])
             + 0.1 * rng.standard_normal((60, 2)))
    weights = rng.uniform(0.2, 1.0, 60)
    return {
        "mlp": (make_model("mlp", d_in=3, d_out=3, hidden=(8,), seed=1), dyn,
                TrainConfig(steps=500, seed=2)),
        "mlp-weighted": (make_model("mlp", d_in=3, d_out=3, hidden=(6, 5),
                                    seed=3), dyn,
                         TrainConfig(steps=300, seed=5,
                                     example_weights=np.linspace(0.0, 1.0, 200))),
        "logistic": (make_model("logistic", d_in=3), Dataset(x, y_logit),
                     TrainConfig(steps=2000)),
        "linear": (make_model("linear-regression", d_in=3, d_out=2),
                   Dataset(x, y_lin),
                   TrainConfig(steps=2000, example_weights=weights)),
        "bernoulli": (make_model("bernoulli-rate"),
                      Dataset(np.zeros((60, 1)), (np.arange(60) < 41) * 1.0),
                      TrainConfig(steps=2000, grad_tol=1e-12)),
    }


# sha256 of the trained parameter bytes: the mlp entries after the seeded
# SGD and the L-BFGS polish, logistic and linear after damped Newton on the
# exact weighted loss Hessian; bernoulli's one Newton step lands on the same
# bits as the gradient descent it replaced
PINNED_TRAINING = {
    "mlp": "b7f98bbb3bc5ae5094680d2020e2308c0330ad10768eb2e66b4a2b5f9c6594ee",
    "mlp-weighted": "f8d7e49c3f52992b2333b525913deca5d666331a478aaec40a72909080e7f588",
    "logistic": "b2537e0b02502a270bbd300968a091bddab0d0da3fb45ea51feb4c19cf17be22",
    "linear": "7f4672a07455e15103bfba1a4d5a961e4f08e29eb17741aa84dd320a01e9845b",
    "bernoulli": "22e1af4cf67055821db33b25b7d92cd01ce430d52d3a46abefa5b416e3b3856d",
}


@pytest.mark.parametrize("name", sorted(PINNED_TRAINING))
def test_trained_parameters_are_bit_identical_to_the_pinned_digest(name):
    model, data, cfg = _pinned_training_cases()[name]
    trained = train(model, data, cfg)
    digest = hashlib.sha256(trained.params.data.tobytes()).hexdigest()
    assert digest == PINNED_TRAINING[name]


class TestPredict:
    def test_bernoulli_predicts_rate(self):
        model = make_model("bernoulli-rate").with_params([0.37])
        assert predict(model, np.zeros(1))[0] == 0.37

    def test_linear_prediction(self):
        model = make_model("linear-regression", d_in=2).with_params([2.0, -1.0])
        assert predict(model, np.array([3.0, 1.0]))[0] == 5.0

    def test_mlp_prediction_matches_hand_computation(self):
        model = make_model("mlp", d_in=2, d_out=1, hidden=(2,), seed=0)
        # layer0.W, layer0.b, layer1.W, layer1.b
        theta = np.array([1.0, 0.0, 0.0, 1.0,   # W0 (2x2, row-major)
                          0.5, -0.5,            # b0
                          1.0, -1.0,            # W1 (2x1)
                          0.25])                # b1
        model = model.with_params(theta)
        x = np.array([0.3, -0.2])
        expected = math.tanh(0.3 + 0.5) - math.tanh(-0.2 - 0.5) + 0.25
        assert abs(predict(model, x)[0] - expected) < 1e-15

    def test_batch_and_single_agree(self):
        model = make_model("mlp", d_in=3, d_out=2, hidden=(5,), seed=1)
        X = np.random.default_rng(0).standard_normal((4, 3))
        batch = predict(model, X)
        for i in range(4):
            np.testing.assert_allclose(batch[i], predict(model, X[i]),
                                       rtol=1e-12, atol=1e-15)


class TestLoglikGradients:
    def test_bernoulli_gradient_closed_form(self):
        model = make_model("bernoulli-rate").with_params([0.8])
        g1, g0 = loglik_grad_batch(model, np.zeros((2, 1)), [1.0, 0.0])[:, 0]
        assert abs(g1 - 1.0 / 0.8) < 1e-15
        assert abs(g0 - (-1.0 / 0.2)) < 1e-15

    def test_linear_gradient_is_residual_times_input(self):
        model = make_model("linear-regression", d_in=3).with_params([1.0, 2.0, 3.0])
        x = np.array([0.5, -1.0, 2.0])
        y = np.array([7.0])
        resid = 7.0 - x @ np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(loglik_grad_batch(model, x, y)[0], resid * x,
                                   rtol=1e-14)

    @pytest.mark.parametrize("kind,d_in,setup", [
        ("bernoulli-rate", 1, lambda m: m.with_params([0.65])),
        ("linear-regression", 3, lambda m: m.with_params([0.2, -0.4, 1.1])),
        ("logistic", 3, lambda m: m.with_params([0.5, -0.25, 0.8])),
        ("mlp", 3, lambda m: m),
    ])
    def test_gradients_match_finite_differences(self, kind, d_in, setup):
        rng = np.random.default_rng(8)
        model = setup(make_model(kind, d_in=d_in, d_out=1, hidden=(4,), seed=2))
        x = rng.uniform(-1, 1, size=d_in)
        y = np.array([1.0]) if kind in ("bernoulli-rate", "logistic") else \
            rng.standard_normal(1)
        analytic = loglik_grad_batch(model, x, y)[0]

        def ll(theta):
            return float(loglik(model.with_params(theta), x[None, :], y[None, :])[0])

        fd = central_diff_grad(ll, model.params.data)
        mask = np.abs(fd) >= 1e-8
        assert rel_err(analytic[mask], fd[mask]) < 1e-5

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        model = make_model("mlp", d_in=2, d_out=2, hidden=(3,), seed=4)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal((5, 2))
        batch = loglik_grad_batch(model, X, Y)
        for i in range(5):
            single = loglik_grad_batch(model, X[i:i + 1], Y[i:i + 1])[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-12)

    def test_mean_gradient_matches_weighted_average(self):
        rng = np.random.default_rng(10)
        model = make_model("mlp", d_in=2, d_out=1, hidden=(3,), seed=4)
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 1))
        w = rng.uniform(0.1, 2.0, size=6)
        fast = mean_loglik_grad(model, X, Y, w)
        slow = (w[:, None] * loglik_grad_batch(model, X, Y)).sum(0) / w.sum()
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)


class TestTapeRecordings:
    @pytest.mark.parametrize("kind,d_in", [
        ("bernoulli-rate", 1), ("linear-regression", 3),
        ("logistic", 2), ("mlp", 2),
    ])
    def test_recorded_forward_matches_numpy_forward(self, kind, d_in):
        rng = np.random.default_rng(12)
        model = make_model(kind, d_in=d_in, d_out=1, hidden=(3,), seed=1)
        if kind == "bernoulli-rate":
            model = model.with_params([0.4])
        elif kind != "mlp":
            model = model.with_params(rng.standard_normal(model.params.dim))
        x = rng.uniform(-1, 1, size=d_in)
        tape = Tape()
        theta = tape.inputs(model.params.data)
        outs = record_predict(model, tape, theta, x)
        np.testing.assert_allclose([o.value for o in outs], predict(model, x),
                                   rtol=1e-12, atol=1e-14)


class TestCsvRoundTrip:
    def test_empty_dataset_rejected(self):
        with pytest.raises(StructuralError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))
