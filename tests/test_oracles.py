"""Tests for the reference oracles: posterior MC, LOO retraining,
adversarial injection and gradient-space Mahalanobis distance."""

import math
import tracemalloc

import numpy as np
import pytest

from deltavar import oracles
from deltavar.covariance import (CovarianceEstimate, empirical_fisher, invert,
                                 laplace_sigma, sandwich)
from deltavar.delta_variance import delta_variance
from deltavar.exceptions import (ConvergenceError, NumericalError,
                                 ResourceError, StructuralError)
from deltavar.models import Dataset, TrainConfig, make_model, train
from deltavar.oracles import (OracleReport, _downweighted_thetas,
                              adversarial_shift, eps_loo_variance,
                              gaussian_posterior_mc, loo_variance,
                              mahalanobis_gradient_distance,
                              richardson_eps_loo, variance_standard_error)
from deltavar.qoi import make_qoi, qoi_value_and_delta


def linear_dataset(seed=0, n=50, d=3, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    theta_true = rng.normal(size=d)
    y = x @ theta_true + noise * rng.normal(size=n)
    return Dataset(x, y)


def trained_linear(data):
    model = make_model("linear-regression", d_in=data.d_in)
    return train(model, data, TrainConfig(grad_tol=1e-12, steps=20000))


def bernoulli_dataset(n=100, k=90):
    y = np.zeros(n)
    y[:k] = 1.0
    return Dataset(np.zeros((n, 1)), y)


def trained_bernoulli(data):
    model = make_model("bernoulli-rate")
    return train(model, data, TrainConfig(grad_tol=1e-13, steps=20000))


class TestVarianceStandardError:
    def test_matches_normal_theory(self):
        rng = np.random.default_rng(5)
        values = 2.0 * rng.standard_normal(20000)
        se = variance_standard_error(values)
        # for a normal sample Var[s^2] ~ 2 sigma^4 / n
        expected = math.sqrt(2.0 / values.size) * 4.0
        assert se == pytest.approx(expected, rel=0.1)


class TestGaussianPosteriorMc:
    def test_linear_quantity_matches_quadratic_form(self):
        rng = np.random.default_rng(1)
        left = rng.normal(size=(3, 3)) * 0.1
        cov = left @ left.T
        mean = np.array([1.0, -0.5, 0.3])
        model = make_model("linear-regression", d_in=3).with_params(mean)
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.7, 1.2, -0.4])
        report = gaussian_posterior_mc(u, mean, cov, z=z, samples=100_000,
                                       seed=7)
        exact = float(z @ cov @ z)
        assert abs(report.estimate - exact) <= 3.0 * report.spread
        assert report.spread > 0.0
        assert report.count == 100_000

    def test_zero_covariance_gives_zero_variance(self):
        model = make_model("bernoulli-rate").with_params([0.9])
        u = make_qoi("power", model, exponent=10)
        report = gaussian_posterior_mc(u, np.array([0.9]), np.zeros((1, 1)),
                                       z=[0.0], samples=500, seed=0)
        # identical draws; only mean-accumulation rounding is left
        assert report.estimate == pytest.approx(0.0, abs=1e-30)

    def test_diagonal_estimate_matches_dense_equivalent(self):
        mean = np.array([0.2, -0.1])
        variances = np.array([0.04, 0.01])
        model = make_model("linear-regression", d_in=2).with_params(mean)
        u = make_qoi("power", model, exponent=1)
        diag = CovarianceEstimate(kind="learned", values=variances,
                                  n_points=10, inverted=True)
        dense = np.diag(variances)
        z = [1.0, 2.0]
        a = gaussian_posterior_mc(u, mean, diag, z=z, samples=4000, seed=3)
        b = gaussian_posterior_mc(u, mean, dense, z=z, samples=4000, seed=3)
        assert a.estimate == b.estimate

    def test_same_seed_reproduces(self):
        model = make_model("bernoulli-rate").with_params([0.8])
        u = make_qoi("power", model, exponent=10)
        kwargs = dict(z=[0.0], samples=2000)
        a = gaussian_posterior_mc(u, [0.8], np.array([[1e-3]]), seed=11,
                                  **kwargs)
        b = gaussian_posterior_mc(u, [0.8], np.array([[1e-3]]), seed=11,
                                  **kwargs)
        c = gaussian_posterior_mc(u, [0.8], np.array([[1e-3]]), seed=12,
                                  **kwargs)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate

    def test_rejects_precision_matrix_and_bad_inputs(self):
        model = make_model("bernoulli-rate").with_params([0.8])
        u = make_qoi("power", model, exponent=2)
        precision = CovarianceEstimate(kind="fisher-full",
                                       values=np.eye(1), n_points=10)
        with pytest.raises(StructuralError):
            gaussian_posterior_mc(u, [0.8], precision, z=[0.0], samples=10)
        with pytest.raises(StructuralError):
            gaussian_posterior_mc(u, [0.8], np.eye(1), z=[0.0], samples=1)
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        wide = make_model("linear-regression", d_in=2)
        u2 = make_qoi("power", wide, exponent=1)
        with pytest.raises(NumericalError):
            gaussian_posterior_mc(u2, [0.0, 0.0], indefinite, z=[1.0, 1.0],
                                  samples=10)

    def test_covariance_of_another_dimension_is_refused(self):
        """A covariance whose dimension differs from the mean's is refused
        by name, as a dense or diagonal estimate or a plain array: the
        sampling arithmetic raised a raw ValueError, or broadcast a
        one-parameter diagonal over every parameter. A plain array must be
        the (d, d) matrix."""
        mean = np.array([0.2, -0.1, 0.4])
        model = make_model("linear-regression", d_in=3).with_params(mean)
        u = make_qoi("power", model, exponent=1)
        z = [1.0, 0.0, 2.0]
        for d in (1, 2, 4):
            diag = CovarianceEstimate(kind="learned", values=np.full(d, 0.01),
                                      n_points=10, inverted=True)
            dense = CovarianceEstimate(kind="fisher-full",
                                       values=0.01 * np.eye(d), n_points=10,
                                       inverted=True)
            for cov in (diag, dense, dense.values):
                with pytest.raises(StructuralError,
                                   match="does not fit a mean of 3"):
                    gaussian_posterior_mc(u, mean, cov, z=z, samples=10)
        with pytest.raises(StructuralError, match="does not fit a mean of 3"):
            gaussian_posterior_mc(u, mean, np.full(3, 0.01), z=z, samples=10)


class TestLooVariance:
    def test_single_repeated_point_has_zero_variance(self):
        data = Dataset(np.full((30, 1), 2.0), np.full(30, 3.0))
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        report = loo_variance(model, data, u, z=[2.0])
        assert report.estimate == pytest.approx(0.0, abs=1e-24)
        assert report.count == 30

    def test_bernoulli_two_outcome_enumeration(self):
        data = bernoulli_dataset(n=100, k=90)
        model = trained_bernoulli(data)
        u = make_qoi("power", model, exponent=10)
        report = loo_variance(model, data, u, z=[0.0])
        high = (89.0 / 99.0) ** 10   # a positive example was held out
        low = (90.0 / 99.0) ** 10    # a negative example was held out
        values = np.array([high] * 90 + [low] * 10)
        assert report.estimate == pytest.approx(float(np.var(values)),
                                                rel=1e-10)

    def test_duplicating_every_point_quarters_the_variance(self):
        data = linear_dataset(seed=3, n=40, d=2)
        doubled = Dataset(np.repeat(data.inputs, 2, axis=0),
                          np.repeat(data.targets, 2, axis=0))
        model = trained_linear(data)
        model2 = trained_linear(doubled)
        z = np.array([0.8, -0.6])
        u1 = make_qoi("power", model, exponent=1)
        u2 = make_qoi("power", model2, exponent=1)
        single = loo_variance(model, data, u1, z=z).estimate
        double = loo_variance(model2, doubled, u2, z=z).estimate
        # each held-out copy still has a twin in the fit, so the parameter
        # step halves and the variance drops by about four
        assert 0.2 <= double / single <= 0.3

    def test_point_guard(self):
        data = linear_dataset(seed=1, n=501, d=2)
        model = make_model("linear-regression", d_in=2)
        u = make_qoi("power", model, exponent=1)
        with pytest.raises(ResourceError):
            loo_variance(model, data, u, z=[1.0, 1.0])

    def test_numeric_retraining_matches_manual_loop(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        data = Dataset(x, y)
        model = train(make_model("logistic", d_in=2), data,
                      TrainConfig(grad_tol=1e-11, steps=20000))
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.5, -0.5])
        report = loo_variance(model, data, u, z=z,
                              train_cfg=TrainConfig(grad_tol=1e-11,
                                                    steps=20000))
        values = []
        for i in range(10):
            weights = np.ones(10)
            weights[i] = 0.0
            refit = train(model, data, TrainConfig(example_weights=weights,
                                                   grad_tol=1e-11,
                                                   steps=20000))
            refit_u = make_qoi("power", refit, exponent=1)
            values.append(qoi_value_and_delta(refit_u, z)[0])
        assert report.estimate == pytest.approx(float(np.var(values)),
                                                rel=1e-9)


class TestEpsLoo:
    def test_full_downweight_recovers_loo_times_n(self):
        data = linear_dataset(seed=4)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([1.0, 0.5, -0.2])
        loo = loo_variance(model, data, u, z=z)
        eps1 = eps_loo_variance(model, data, u, z=z, eps=1.0)
        assert eps1.estimate == pytest.approx(data.n * loo.estimate,
                                              rel=1e-12)

    def test_richardson_limit_matches_sandwich_quadratic_form(self):
        data = linear_dataset(seed=12, n=50, d=3)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.9, -0.3, 0.7])
        _, delta = qoi_value_and_delta(u, z)
        nu = delta_variance(delta, sandwich(model, data))
        limit = richardson_eps_loo(model, data, u, z=z)
        assert limit.estimate == pytest.approx(nu, rel=0.01)

    def test_gap_to_limit_shrinks_linearly_in_eps(self):
        data = linear_dataset(seed=2, n=60, d=3)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.4, 1.1, -0.8])
        _, delta = qoi_value_and_delta(u, z)
        nu = delta_variance(delta, sandwich(model, data))
        eps_grid = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        gaps = np.array([
            abs(eps_loo_variance(model, data, u, z=z, eps=e).estimate - nu)
            for e in eps_grid])
        slope = np.polyfit(np.log(eps_grid), np.log(gaps), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_parameter_step_remainder_is_quadratic(self):
        data = linear_dataset(seed=7, n=30, d=2)
        model = trained_linear(data)
        x = data.inputs
        gram = x.T @ x
        residual = data.targets[:, 0] - x @ model.params.data
        index = 4
        linear_term = -residual[index] * np.linalg.solve(gram, x[index])
        eps_grid = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2])
        remainders = []
        for e in eps_grid:
            step = _downweighted_thetas(model, data, e, None)[0][index] \
                - model.params.data
            remainders.append(np.linalg.norm(step - e * linear_term))
        slope = np.polyfit(np.log(eps_grid), np.log(remainders), 1)[0]
        assert slope >= 1.8

    def test_retrains_reach_the_default_tolerance(self):
        """Numeric retrains run to a mean-gradient norm of 1e-12 by default,
        and the report carries the largest final norm of its retrains; a
        closed form has none."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-x @ [1.0, -0.5])))
        data = Dataset(x, y.astype(float))
        model = train(make_model("logistic", d_in=2), data,
                      TrainConfig(grad_tol=1e-12, steps=2000))
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.3, -0.2])
        for report in (loo_variance(model, data, u, z=z),
                       eps_loo_variance(model, data, u, z=z),
                       richardson_eps_loo(model, data, u, z=z)):
            assert 0.0 <= report.grad_norm <= 1e-12
        linear = linear_dataset(seed=1)
        fit = trained_linear(linear)
        closed = eps_loo_variance(fit, linear, make_qoi("power", fit,
                                                        exponent=1),
                                  z=[1.0, 0.0, 0.5])
        assert math.isnan(closed.grad_norm)

    def test_mlp_retrains_hold_a_bounded_number_of_step_matrices(self):
        """The CLI's default mlp (hidden 32, 32; d = 1153, 10.6 MB per d x d
        matrix) retrains a step matrix or a few at a time, not all N."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(3, 1))
        data = Dataset(x, np.sin(3.0 * x) + 0.1 * rng.normal(size=(3, 1)))
        model = train(make_model("mlp", d_in=1, d_out=1, hidden=(32, 32),
                                 seed=0), data, TrainConfig(steps=50))
        u = make_qoi("power", model, exponent=1)
        matrix_bytes = 8 * model.params.dim ** 2
        tracemalloc.start()
        try:
            report = eps_loo_variance(model, data, u, z=np.zeros(1),
                                      train_cfg=TrainConfig(steps=1,
                                                            grad_tol=1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.estimate)
        assert peak < 12 * matrix_bytes

    def test_retrains_split_into_stacks_keep_their_bits(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3))
        y = rng.random(30) < 1.0 / (1.0 + np.exp(-x @ [1.0, -0.5, 0.3]))
        data = Dataset(x, y.astype(float))
        model = train(make_model("logistic", d_in=3), data,
                      TrainConfig(grad_tol=1e-12, steps=2000))
        whole, whole_norm = _downweighted_thetas(model, data, 0.1, None)
        # room for the step matrices of 4 retrains (d = 3) per stack
        monkeypatch.setattr(oracles, "_RETRAIN_STACK_BYTES", 4 * 8 * 9)
        split, split_norm = _downweighted_thetas(model, data, 0.1, None)
        assert split.tobytes() == whole.tobytes()
        assert split_norm == whole_norm

    def test_retrains_that_take_no_step_are_refused(self):
        """An mlp trained below the default mlp tolerance (1e-3) meets it
        under every down-weighting: no retrain takes a step, and the
        variance those retrains would give is 0."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(100, 1))
        data = Dataset(x, np.sin(3.0 * x) + 0.1 * rng.normal(size=(100, 1)))
        model = train(make_model("mlp", d_in=1, d_out=1, hidden=(8,), seed=0),
                      data, TrainConfig(steps=200, grad_tol=1e-6))
        assert model.diagnostics["final_grad_norm"] < 1e-3
        u = make_qoi("power", model, exponent=1)
        with pytest.raises(ConvergenceError, match="train_cfg.grad_tol"):
            eps_loo_variance(model, data, u, z=np.zeros(1))

    def test_eps_validation(self):
        data = linear_dataset(seed=1, n=10, d=2)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(StructuralError):
                eps_loo_variance(model, data, u, z=[1.0, 0.0], eps=bad)


class TestAdversarialShift:
    def test_offset_ratio_near_one_for_small_eps(self):
        data = linear_dataset(seed=9, n=80, d=3)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.6, -0.2, 1.4])
        _, delta = qoi_value_and_delta(u, z)
        nu = delta_variance(delta, laplace_sigma(model, data))
        eps, shift_target = 1e-4, 0.7
        report = adversarial_shift(model, data, u, z=z, eps=eps,
                                   mode="offset", delta=shift_target)
        ratio = report.estimate / (eps * abs(shift_target) * nu)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_agreeing_injection_changes_nothing(self):
        data = linear_dataset(seed=10, n=40, d=2)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        report = adversarial_shift(model, data, u, z=[0.5, 0.5], eps=1e-3,
                                   mode="offset", delta=0.0)
        assert report.estimate == pytest.approx(0.0, abs=1e-12)

    def test_noise_mode_matches_squared_form(self):
        data = linear_dataset(seed=11, n=60, d=3)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([1.0, 0.3, -0.5])
        _, delta = qoi_value_and_delta(u, z)
        nu = delta_variance(delta, laplace_sigma(model, data))
        eps, sigma = 1e-3, 1.0
        report = adversarial_shift(model, data, u, z=z, eps=eps, mode="noise",
                                   sigma=sigma, draws=1000, seed=5)
        target = eps ** 2 * sigma ** 2 * nu ** 2
        assert abs(report.estimate - target) <= 3.0 * report.spread
        again = adversarial_shift(model, data, u, z=z, eps=eps, mode="noise",
                                  sigma=sigma, draws=1000, seed=5)
        assert again.estimate == report.estimate

    def test_numeric_retraining_matches_stationarity_equation(self):
        data = bernoulli_dataset(n=50, k=35)
        model = trained_bernoulli(data)
        u = make_qoi("power", model, exponent=1)
        eps, shift_target = 1e-2, 0.1
        report = adversarial_shift(model, data, u, z=[0.0], eps=eps,
                                   mode="offset", delta=shift_target)
        # the retrained rate solves k/t - (n-k)/(1-t) + eps (y - t) = 0
        k, n = 35.0, 50.0
        y_adv = 0.7 + shift_target

        def stationarity(t):
            return k / t - (n - k) / (1.0 - t) + eps * (y_adv - t)

        lo, hi = 1e-9, 1.0 - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stationarity(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        expected = abs(0.5 * (lo + hi) - 0.7)
        assert report.estimate == pytest.approx(expected, rel=1e-5)

    def test_out_of_domain_parameters_are_refused(self):
        data = bernoulli_dataset(n=20, k=12)
        model = make_model("bernoulli-rate").with_params([1.5])
        u = make_qoi("power", model, exponent=1)
        with pytest.raises(NumericalError, match="outside its domain"):
            adversarial_shift(model, data, u, z=[0.0], eps=1e-2,
                              mode="offset", delta=0.1)

    def test_mode_and_parameter_validation(self):
        data = linear_dataset(seed=1, n=10, d=2)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = [1.0, 0.0]
        with pytest.raises(StructuralError):
            adversarial_shift(model, data, u, z=z, eps=0.5, mode="offset",
                              delta=0.1)
        with pytest.raises(StructuralError):
            adversarial_shift(model, data, u, z=z, eps=1e-3, mode="sideways",
                              delta=0.1)
        with pytest.raises(StructuralError):
            adversarial_shift(model, data, u, z=z, eps=1e-3, mode="offset")
        with pytest.raises(StructuralError):
            adversarial_shift(model, data, u, z=z, eps=1e-3, mode="noise",
                              sigma=-1.0)


class TestMahalanobis:
    def test_equals_fisher_quadratic_form_at_convergence(self):
        data = bernoulli_dataset(n=100, k=90)
        model = trained_bernoulli(data)
        u = make_qoi("power", model, exponent=10)
        report = mahalanobis_gradient_distance(model, data, u, z=[0.0])
        _, delta = qoi_value_and_delta(u, [0.0])
        nu = delta_variance(delta, invert(empirical_fisher(model, data)))
        assert report.estimate == pytest.approx(nu, rel=1e-8)
        assert report.grad_norm <= 1e-6

    def test_linear_model_equality_and_reporting(self):
        data = linear_dataset(seed=13, n=60, d=3)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        z = np.array([0.3, -0.9, 0.5])
        report = mahalanobis_gradient_distance(model, data, u, z=z)
        _, delta = qoi_value_and_delta(u, z)
        nu = delta_variance(delta, invert(empirical_fisher(model, data)))
        assert report.estimate == pytest.approx(nu, rel=1e-8)
        assert report.reg == 0.0

    def test_far_point_scores_larger(self):
        data = linear_dataset(seed=14, n=80, d=2)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        near = data.inputs[0]
        far = 50.0 * near
        d_near = mahalanobis_gradient_distance(model, data, u, z=near)
        d_far = mahalanobis_gradient_distance(model, data, u, z=far)
        assert d_far.estimate > d_near.estimate

    def test_zero_gradient_scores_zero(self):
        data = linear_dataset(seed=15, n=40, d=2)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        report = mahalanobis_gradient_distance(model, data, u,
                                               z=[0.0, 0.0])
        assert report.estimate == pytest.approx(0.0, abs=1e-12)

    def test_singular_cloud_is_regularized_and_recorded(self):
        x = np.tile([[1.0, 2.0]], (30, 1))
        rng = np.random.default_rng(16)
        y = x @ [0.5, 0.5] + 0.1 * rng.standard_normal(30)
        data = Dataset(x, y)
        model = trained_linear(data)
        u = make_qoi("power", model, exponent=1)
        report = mahalanobis_gradient_distance(model, data, u, z=[1.0, 0.0])
        assert report.reg > 0.0
        assert math.isfinite(report.estimate)

    def test_early_stopping_is_visible(self):
        data = linear_dataset(seed=17, n=50, d=3)
        model = train(make_model("linear-regression", d_in=3), data,
                      TrainConfig(steps=0))
        u = make_qoi("power", model, exponent=1)
        report = mahalanobis_gradient_distance(model, data, u,
                                               z=[1.0, 0.0, 0.0])
        assert report.grad_norm > 1e-4


class TestOracleReport:
    def test_rejects_non_finite_estimates(self):
        with pytest.raises(NumericalError):
            OracleReport(kind="x", estimate=math.nan, spread=0.0, count=1)
        with pytest.raises(StructuralError):
            OracleReport(kind="x", estimate=1.0, spread=0.0, count=0)
