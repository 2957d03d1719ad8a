"""Covariance surrogates: Fisher variants, Hessians, sandwich, inversion."""

import json
import tracemalloc

import numpy as np
import pytest

from deltavar import (
    ConvergenceError,
    Dataset,
    NumericalError,
    ResourceError,
    StructuralError,
    TrainConfig,
    make_model,
    train,
)
from deltavar.covariance import (
    CovarianceEstimate,
    canonical_sigma,
    empirical_fisher,
    invert,
    laplace_sigma,
    load_covariance,
    loss_hessian,
    sandwich,
    save_covariance,
)
from deltavar.delta_variance import GradientDelta, block_variances, delta_variance
from deltavar.models import loglik_grad_batch
from deltavar.oracles import gaussian_posterior_mc
from deltavar.qoi import make_qoi
from deltavar.util import stable_json_dumps


def bernoulli_dataset(n, k):
    """n coin flips with exactly k successes, in a fixed order."""
    y = np.zeros(n)
    y[:k] = 1.0
    return Dataset(np.zeros((n, 1)), y)


def linear_dataset(seed=0, n=40, d=3, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = x @ w + noise * rng.standard_normal(n)
    return Dataset(x, y)


def paired_residual_dataset(seed=3, n_pairs=10, d=2):
    """Each input appears twice with targets offset by +1 and -1.

    The least-squares optimum then has residuals exactly +-1, which makes
    N * Fisher coincide with the total-loss Hessian identically.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_pairs, d))
    w = rng.standard_normal(d)
    x = np.repeat(base, 2, axis=0)
    y = x @ w + np.tile([1.0, -1.0], n_pairs)
    return Dataset(x, y), w


class TestEmpiricalFisher:
    def test_bernoulli_rate_closed_form(self):
        data = bernoulli_dataset(25, 15)
        model = make_model("bernoulli-rate").with_params(np.array([0.6]))
        est = empirical_fisher(model, data, mode="full")
        expected = 1.0 / (0.6 * 0.4)
        np.testing.assert_allclose(est.values, [[expected]], rtol=1e-13)
        assert est.kind == "fisher-full"
        assert est.n_points == 25
        assert not est.inverted

    def test_bernoulli_rate_after_training(self):
        data = bernoulli_dataset(40, 17)
        model = train(make_model("bernoulli-rate"), data)
        theta = model.params.data[0]
        est = empirical_fisher(model, data, mode="diag")
        np.testing.assert_allclose(est.values, [1.0 / (theta * (1.0 - theta))],
                                   rtol=1e-8)

    def test_single_point_is_rank_one_outer_product(self):
        data = linear_dataset(seed=5, n=1)
        model = make_model("linear-regression", d_in=3)
        g = loglik_grad_batch(model, data.inputs, data.targets)[0]
        est = empirical_fisher(model, data, mode="full")
        np.testing.assert_array_equal(est.values, np.outer(g, g))

    def test_linear_regression_brute_force_oracle(self):
        data = linear_dataset(seed=7, n=60)
        model = train(make_model("linear-regression", d_in=3), data)
        est = empirical_fisher(model, data, mode="full")
        w = model.params.data
        acc = np.zeros((3, 3))
        for i in range(data.n):
            r = data.targets[i, 0] - data.inputs[i] @ w
            acc += r * r * np.outer(data.inputs[i], data.inputs[i])
        np.testing.assert_allclose(est.values, acc / data.n, rtol=1e-12)

    def test_diag_matches_full_diagonal_bitwise(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((700, 4))
        y = np.tanh(x @ rng.standard_normal((4, 2)))
        data = Dataset(x, y)
        model = make_model("mlp", d_in=4, d_out=2, hidden=(5,), seed=2)
        full = empirical_fisher(model, data, mode="full")
        diag = empirical_fisher(model, data, mode="diag")
        np.testing.assert_array_equal(np.diag(full.values), diag.values)

    def test_full_mode_respects_dense_cap(self):
        data = Dataset(np.ones((1, 3000)), np.zeros(1))
        model = make_model("linear-regression", d_in=3000)
        with pytest.raises(ResourceError):
            empirical_fisher(model, data, mode="full")
        est = empirical_fisher(model, data, mode="diag")
        assert est.values.shape == (3000,)

    def test_rejects_unknown_mode(self):
        data = bernoulli_dataset(4, 2)
        model = make_model("bernoulli-rate")
        with pytest.raises(StructuralError):
            empirical_fisher(model, data, mode="block")


class TestLossHessian:
    def test_linear_regression_is_gram_matrix(self):
        data = linear_dataset(seed=2, n=30)
        model = make_model("linear-regression", d_in=3)
        est = loss_hessian(model, data)
        np.testing.assert_allclose(est.values, data.inputs.T @ data.inputs,
                                   rtol=1e-12, atol=1e-12)

    def test_bernoulli_rate_scaled_fisher(self):
        data = bernoulli_dataset(30, 18)
        model = make_model("bernoulli-rate").with_params(np.array([0.6]))
        h = loss_hessian(model, data)
        f = empirical_fisher(model, data, mode="full")
        np.testing.assert_allclose(h.values, 30.0 * f.values, rtol=1e-12)
        np.testing.assert_allclose(h.values, [[30.0 / (0.6 * 0.4)]], rtol=1e-12)

    def test_quadratic_loss_independent_of_parameters(self):
        data = linear_dataset(seed=4, n=20)
        model = make_model("linear-regression", d_in=3)
        h_zero = loss_hessian(model, data)
        shifted = model.with_params(np.array([5.0, -3.0, 0.25]))
        h_shift = loss_hessian(shifted, data)
        np.testing.assert_allclose(h_zero.values, h_shift.values, rtol=1e-12,
                                   atol=1e-12)

    def test_symmetric_output(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((12, 1))
        model = make_model("mlp", d_in=2, d_out=1, hidden=(3,), seed=1)
        est = loss_hessian(model, Dataset(x, y))
        np.testing.assert_array_equal(est.values, est.values.T)

    def test_dimension_cap(self):
        data = Dataset(np.ones((1, 2100)), np.zeros(1))
        model = make_model("linear-regression", d_in=2100)
        with pytest.raises(ResourceError):
            loss_hessian(model, data)


class TestScalingConvention:
    def test_scaled_fisher_matches_hessian_for_bernoulli(self):
        data = bernoulli_dataset(50, 20)
        model = train(make_model("bernoulli-rate"), data)
        f = empirical_fisher(model, data, mode="full")
        h = loss_hessian(model, data)
        np.testing.assert_allclose(50.0 * f.values, h.values, rtol=1e-8)

    def test_scaled_fisher_matches_hessian_for_constructed_linear(self):
        data, w = paired_residual_dataset()
        model = make_model("linear-regression", d_in=2).with_params(w)
        f = empirical_fisher(model, data, mode="full")
        h = loss_hessian(model, data)
        np.testing.assert_allclose(data.n * f.values, h.values, rtol=1e-8)


class TestSandwich:
    def test_bernoulli_rate_closed_form(self):
        data = bernoulli_dataset(40, 24)
        model = train(make_model("bernoulli-rate"), data)
        est = sandwich(model, data)
        theta = model.params.data[0]
        np.testing.assert_allclose(est.values, [[theta * (1 - theta) / 40.0]],
                                   rtol=1e-8)
        assert est.inverted
        assert est.kind == "sandwich"

    def test_proportional_curvatures_collapse_to_canonical(self):
        data, w = paired_residual_dataset(seed=8, n_pairs=12)
        model = make_model("linear-regression", d_in=2).with_params(w)
        sw = sandwich(model, data)
        canon = canonical_sigma(model, data, mode="full")
        np.testing.assert_allclose(sw.values, canon.values, rtol=1e-10)

    def test_well_specified_large_n_approaches_canonical(self):
        data = linear_dataset(seed=21, n=10_000, d=3)
        model = train(make_model("linear-regression", d_in=3), data)
        sw = sandwich(model, data)
        canon = canonical_sigma(model, data, mode="full")
        gap = np.linalg.norm(sw.values - canon.values)
        assert gap / np.linalg.norm(canon.values) < 0.05


class TestInvert:
    def test_diagonal_reciprocal(self):
        est = CovarianceEstimate(kind="fisher-diag", values=np.array([2.0, 4.0]),
                                 n_points=5)
        inv = invert(est, reg=0.0)
        np.testing.assert_array_equal(inv.values, [0.5, 0.25])
        assert inv.inverted

    def test_full_roundtrip_recovers_ridged_matrix(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        est = CovarianceEstimate(kind="fisher-full", values=m, n_points=9)
        reg = 1e-3
        back = invert(invert(est, reg=reg), reg=0.0)
        np.testing.assert_allclose(back.values, m + reg * np.eye(4), rtol=1e-8)
        assert not back.inverted

    def test_singular_matrix_raises_with_advice(self):
        est = CovarianceEstimate(kind="fisher-full",
                                 values=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                 n_points=2)
        with pytest.raises(NumericalError, match="larger regularizer"):
            invert(est, reg=0.0)
        inv = invert(est, reg=1e-6)
        assert np.all(np.isfinite(inv.values))

    def test_diagonal_zero_entry_raises(self):
        est = CovarianceEstimate(kind="fisher-diag", values=np.array([1.0, 0.0]),
                                 n_points=3)
        with pytest.raises(NumericalError):
            invert(est, reg=0.0)
        inv = invert(est, reg=1e-4)
        np.testing.assert_allclose(inv.values[1], 1e4)

    def test_indefinite_hessian_eigenvalue_scan(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((6, 2))
        y = 5.0 * rng.standard_normal((6, 1))
        model = make_model("mlp", d_in=2, d_out=1, hidden=(3,), seed=12)
        h = loss_hessian(model, Dataset(x, y))
        eigs = np.linalg.eigvalsh(h.values)
        assert eigs.min() < 0.0, "test setup needs an indefinite curvature"
        grid = [10.0 ** k for k in range(-15, 10)]
        ok = next(r for r in grid if eigs.min() + r >= 1e-12)
        assert np.all(np.isfinite(invert(h, reg=ok).values))
        too_small = next(r for r in grid if r < -eigs.min() / 2)
        with pytest.raises(NumericalError):
            invert(h, reg=too_small)


class TestSigmaHelpers:
    def test_canonical_bernoulli(self):
        data = bernoulli_dataset(20, 8)
        model = make_model("bernoulli-rate").with_params(np.array([0.4]))
        sigma = canonical_sigma(model, data, mode="full")
        np.testing.assert_allclose(sigma.values, [[0.4 * 0.6 / 20.0]], rtol=1e-12)
        assert sigma.inverted

    def test_laplace_linear(self):
        data = linear_dataset(seed=6, n=25)
        model = make_model("linear-regression", d_in=3)
        sigma = laplace_sigma(model, data)
        expected = np.linalg.inv(data.inputs.T @ data.inputs)
        np.testing.assert_allclose(sigma.values, expected, rtol=1e-9)


class TestZeroCurvature:
    """A separable logistic fit saturates: every fitted probability is
    exactly 0 or 1, so every per-example gradient and Hessian term is 0."""

    @pytest.fixture(scope="class")
    def saturated(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        data = Dataset(x, (x[:, 0] + 0.3 * x[:, 1] > 0) * 1.0)
        model = train(make_model("logistic", d_in=2), data)
        assert not loglik_grad_batch(model, data.inputs, data.targets).any()
        return model, data

    @pytest.mark.parametrize("build", [
        lambda m, d: canonical_sigma(m, d, mode="full"),
        lambda m, d: canonical_sigma(m, d, mode="diag"),
        laplace_sigma,
    ], ids=["fisher-full", "fisher-diag", "hessian"])
    def test_every_builder_names_the_parameter(self, saturated, build):
        with pytest.raises(NumericalError) as err:
            build(*saturated)
        message = str(err.value)
        assert "exactly 0 at weights[0]" in message
        assert "no example's gradient moves" in message
        assert "larger regularizer" not in message

    def test_unnamed_blocks_give_the_index_and_a_ridge_inverts(self):
        est = CovarianceEstimate(kind="hessian",
                                 values=np.diag([2.0, 1.0, 0.0]), n_points=3)
        with pytest.raises(NumericalError, match="exactly 0 at parameter 2"):
            invert(est)
        np.testing.assert_allclose(invert(est, reg=0.5).values,
                                   np.diag([0.4, 2.0 / 3.0, 2.0]))


def peak_in_dxd(build, d: int) -> float:
    """tracemalloc's peak over build(), in float64 d x d arrays."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * d * d)


@pytest.fixture(scope="module")
def wide_fits():
    """A logistic model of d = 480 and an mlp of d = 353 at seeded
    parameters. Each has fewer examples than parameters, so the (n, d)
    gradient rows and the R-op's tangents stay small beside one d x d. At
    reg 1e-3 their condition bounds 1 + tr(F) / reg (about 1.6e5 and 4.2e3)
    are past WOODBURY_MAX_CONDITION, so canonical_sigma builds them dense;
    at reg 1 (about 160 and 5) it takes the Woodbury form."""
    rng = np.random.default_rng(41)
    logistic = make_model("logistic", d_in=480)
    logistic = logistic.with_params(0.05 * rng.standard_normal(480))
    x = rng.standard_normal((60, 480))
    mlp = make_model("mlp", d_in=3, d_out=1, hidden=(16, 16), seed=4)
    z = rng.uniform(-1.5, 1.5, size=(40, 3))
    return {"logistic": (logistic, Dataset(x, rng.random(60) < 0.5)),
            "mlp": (mlp, Dataset(z, np.sin(z[:, 0])))}


@pytest.fixture(scope="module")
def tall_fit():
    """A logistic model of d = 1000 on 1100 examples, so canonical_sigma
    is dense whatever the ridge, and its (256, d) gradient chunks stay a
    quarter of one d x d."""
    rng = np.random.default_rng(43)
    model = make_model("logistic", d_in=1000)
    model = model.with_params(0.05 * rng.standard_normal(1000))
    x = rng.standard_normal((1100, 1000))
    return model, Dataset(x, rng.random(1100) < 0.5)


class TestBuildMemory:
    """A dense build holds at most about 2.5 d x d arrays at once: the
    curvature (ridged in place, then the factor's inverse), the factor and
    the halved inverse's blocks; the sandwich adds the Fisher. A Woodbury
    build holds no d x d array."""

    @pytest.mark.parametrize("fit", ["logistic", "mlp"])
    def test_canonical_sigma_holds_two_and_a_half(self, wide_fits, fit):
        model, data = wide_fits[fit]
        build = lambda: canonical_sigma(model, data, mode="full", reg=1e-3)
        assert not build().woodbury
        assert peak_in_dxd(build, model.params.dim) <= 2.6

    def test_canonical_sigma_with_n_at_least_d_holds_two_and_a_half(
            self, tall_fit):
        model, data = tall_fit
        build = lambda: canonical_sigma(model, data, mode="full", reg=1e-3)
        assert peak_in_dxd(build, model.params.dim) <= 2.6

    @pytest.mark.parametrize("fit", ["logistic", "mlp"])
    def test_woodbury_build_stays_below_one_dxd(self, wide_fits, fit):
        """G and at most one more (N, d) array (a chunk's gradients, or a
        column block of R) and two N x N arrays: no d x d."""
        model, data = wide_fits[fit]
        n, d = data.n, model.params.dim
        build = lambda: canonical_sigma(model, data, mode="full", reg=1.0)
        assert build().woodbury
        peak = peak_in_dxd(build, d) * d * d
        assert peak <= 2 * n * d + 2 * n * n
        assert peak < d * d

    @pytest.mark.parametrize("fit", ["logistic", "mlp"])
    def test_laplace_sigma_holds_two_and_a_half(self, wide_fits, fit):
        model, data = wide_fits[fit]
        # above the mlp Hessian's most negative eigenvalue, about -55
        build = lambda: laplace_sigma(model, data, reg=100.0)
        assert peak_in_dxd(build, model.params.dim) <= 2.6

    def test_sandwich_holds_three_and_a_half(self, wide_fits):
        model, data = wide_fits["logistic"]
        build = lambda: sandwich(model, data, reg=1e-3)
        assert peak_in_dxd(build, model.params.dim) <= 3.6

    def test_invert_holds_three_and_a_half_with_its_input(self, wide_fits):
        model, data = wide_fits["logistic"]
        fisher = empirical_fisher(model, data, mode="full")
        before = fisher.values.copy()
        peak = peak_in_dxd(lambda: invert(fisher, reg=1e-3), model.params.dim)
        assert 1.0 + peak <= 3.6
        assert fisher.values.tobytes() == before.tobytes()


@pytest.fixture(scope="module")
def woodbury_fit(wide_fits):
    """The wide mlp, its data and its Woodbury sigma at reg 1."""
    model, data = wide_fits["mlp"]
    sigma = canonical_sigma(model, data, mode="full", reg=1.0)
    assert sigma.woodbury
    return model, data, sigma


def dense_reference(model, data, reg: float) -> np.ndarray:
    """inv(F + reg I) / N from the per-example gradients, by one solve."""
    g = loglik_grad_batch(model, data.inputs, data.targets)
    d = model.params.dim
    fisher = g.T @ g / data.n + reg * np.eye(d)
    return np.linalg.solve(fisher, np.eye(d)) / data.n


class TestWoodbury:
    """canonical_sigma's (N, d) factor R of inv(F + reg I) / N =
    (I - R'R) / (N reg), for fewer examples than parameters."""

    def test_the_form_is_taken_only_within_its_regime(self, wide_fits):
        model, data = wide_fits["mlp"]
        assert canonical_sigma(model, data, mode="full", reg=1.0).woodbury
        assert not canonical_sigma(model, data, mode="full",
                                   reg=1e-3).woodbury
        diag = canonical_sigma(model, data, mode="diag", reg=1.0)
        assert diag.is_diagonal and not diag.woodbury

    def test_layout_and_materialized_matrix(self, woodbury_fit):
        model, data, sigma = woodbury_fit
        d = model.params.dim
        assert sigma.values.shape == (data.n, d)
        assert sigma.dim == d and not sigma.is_diagonal
        assert sigma.woodbury and sigma.inverted
        m = sigma.matrix()
        ref = dense_reference(model, data, 1.0)
        assert m.shape == (d, d) and np.array_equal(m, m.T)
        assert np.abs(m - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matrix_is_a_new_array_on_every_call(self, woodbury_fit):
        _, _, sigma = woodbury_fit
        first, second = sigma.matrix(), sigma.matrix()
        assert first is not second
        assert not np.shares_memory(first, sigma.values)
        assert first.tobytes() == second.tobytes()
        first[...] = 0.0
        assert sigma.matrix().tobytes() == second.tobytes()

    def test_nu_matches_the_dense_form(self, woodbury_fit):
        model, data, sigma = woodbury_fit
        ref = dense_reference(model, data, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(model.params.dim)
            nu = delta_variance(GradientDelta(v), sigma)
            assert nu >= 0.0
            assert nu == pytest.approx(float(v @ ref @ v), rel=1e-13)

    def test_invert_goes_through_the_matrix(self, woodbury_fit):
        _, _, sigma = woodbury_fit
        dense = CovarianceEstimate(kind=sigma.kind, values=sigma.matrix(),
                                   n_points=sigma.n_points, reg=sigma.reg,
                                   inverted=True, blocks=sigma.blocks)
        back = invert(sigma)
        assert not back.woodbury and not back.inverted
        assert back.values.tobytes() == invert(dense).values.tobytes()

    def test_block_variances_refuses_between_blocks(self, woodbury_fit):
        model, _, sigma = woodbury_fit
        deltas = np.ones((2, model.params.dim))
        with pytest.raises(StructuralError, match="between blocks"):
            block_variances(deltas, sigma)
        one_block = CovarianceEstimate(
            kind=sigma.kind, values=sigma.values, n_points=sigma.n_points,
            reg=sigma.reg, inverted=True,
            blocks=(("all", 0, model.params.dim),), woodbury=True)
        parts = block_variances(deltas, one_block)
        assert parts[:, 0] == pytest.approx(
            delta_variance(GradientDelta(deltas[0]), one_block), rel=1e-12)

    def test_posterior_mc_draws_from_the_matrix(self, woodbury_fit):
        model, _, sigma = woodbury_fit
        u = make_qoi("power", model, exponent=2.0)
        z = np.array([0.3, -0.2, 0.5])
        dense = CovarianceEstimate(kind=sigma.kind, values=sigma.matrix(),
                                   n_points=sigma.n_points, reg=sigma.reg,
                                   inverted=True)
        a = gaussian_posterior_mc(u, model.params.data, sigma, z,
                                  samples=300, seed=2)
        b = gaussian_posterior_mc(u, model.params.data, dense, z,
                                  samples=300, seed=2)
        assert a.estimate == b.estimate

    def test_more_examples_than_one_chunk(self):
        """N = 300 > 256 fills G chunk by chunk."""
        rng = np.random.default_rng(44)
        model = make_model("logistic", d_in=400)
        model = model.with_params(0.05 * rng.standard_normal(400))
        x = 0.05 * rng.standard_normal((300, 400))
        data = Dataset(x, rng.random(300) < 0.5)
        sigma = canonical_sigma(model, data, mode="full", reg=1.0)
        ref = dense_reference(model, data, 1.0)
        assert sigma.woodbury and sigma.values.shape == (300, 400)
        assert np.abs(sigma.matrix() - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("change, error", [
        (dict(values=np.ones((3, 3))), StructuralError),
        (dict(values=np.ones(3)), StructuralError),
        (dict(reg=0.0), StructuralError),
        (dict(inverted=False), StructuralError),
        (dict(values=np.array([[0.1, np.nan, 0.0]])), NumericalError),
    ], ids=["rank-equals-dim", "one-dimensional", "no-ridge",
            "not-inverted", "non-finite"])
    def test_invalid_estimates_are_refused(self, change, error):
        fields = dict(kind="fisher-full", values=np.full((1, 3), 0.1),
                      n_points=4, reg=0.5, inverted=True, woodbury=True)
        CovarianceEstimate(**fields)
        with pytest.raises(error):
            CovarianceEstimate(**{**fields, **change})


class TestWoodburyFiles:
    """`layout: "woodbury"` files: a `rank` header key and the (rank, dim)
    factor as the payload."""

    def test_round_trip_is_byte_for_byte(self, woodbury_fit, tmp_path):
        _, data, sigma = woodbury_fit
        path = tmp_path / "sigma.bin"
        save_covariance(path, sigma)
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        assert meta["layout"] == "woodbury" and meta["rank"] == data.n
        assert payload == sigma.values.astype("<f8").tobytes()
        back = load_covariance(path)
        assert back.woodbury and back.values.tobytes() == sigma.values.tobytes()
        for field in ("kind", "n_points", "reg", "inverted", "blocks",
                      "block_scales"):
            assert getattr(back, field) == getattr(sigma, field)
        save_covariance(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        v = np.linspace(-1.0, 1.0, sigma.dim)
        assert (delta_variance(GradientDelta(v), back)
                == delta_variance(GradientDelta(v), sigma))

    @pytest.mark.parametrize("values", [np.eye(3), np.ones(3)],
                             ids=["full", "diag"])
    def test_dense_headers_carry_no_rank(self, tmp_path, values):
        path = tmp_path / "sigma.bin"
        save_covariance(path, CovarianceEstimate(
            kind="fisher-full", values=values, n_points=2, inverted=True))
        assert "rank" not in json.loads(path.read_bytes().split(b"\n")[0])

    @pytest.fixture
    def saved(self, tmp_path):
        """A (2, 3) Woodbury file's header dict and payload bytes, and a
        writer for variants of them."""
        sigma = CovarianceEstimate(kind="fisher-full",
                                   values=np.full((2, 3), 0.25), n_points=5,
                                   reg=0.5, inverted=True, woodbury=True)
        path = tmp_path / "sigma.bin"
        save_covariance(path, sigma)
        header, payload = path.read_bytes().split(b"\n", 1)

        def write(meta, body=payload):
            path.write_bytes(stable_json_dumps(meta).encode() + b"\n" + body)
            return path
        return json.loads(header), payload, write

    @pytest.mark.parametrize("key, value, match", [
        ("rank", None, "'rank' is missing"),
        ("rank", -1, "'rank' is -1"),
        ("rank", 3, "'rank' is 3"),
        ("rank", 7, "'rank' is 7"),
        ("rank", "2", "'rank' is missing or mistyped"),
        ("rank", True, "'rank' is missing or mistyped"),
        ("reg", 0.0, "positive 'reg'"),
        ("reg", -0.5, "positive 'reg'"),
        ("inverted", False, "positive regularizer"),
    ])
    def test_malformed_headers_are_structural_errors(self, saved, key, value,
                                                     match):
        meta, _, write = saved
        meta = dict(meta)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        with pytest.raises(StructuralError, match=match):
            load_covariance(write(meta))

    @pytest.mark.parametrize("cut", [8, -8, 24])
    def test_a_wrong_payload_length_names_it(self, saved, cut):
        meta, payload, write = saved
        body = payload[:-cut] if cut > 0 else payload + b"\0" * -cut
        with pytest.raises(StructuralError, match=(
                f"holds {len(body)} bytes, expected 48")):
            load_covariance(write(meta, body))

    def test_a_non_finite_factor_is_a_numerical_error(self, saved):
        meta, payload, write = saved
        body = np.frombuffer(payload, dtype="<f8").copy()
        body[4] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            load_covariance(write(meta, body.tobytes()))


class TestSerialization:
    def test_roundtrip_full(self, tmp_path):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3))
        est = CovarianceEstimate(kind="sandwich", values=a @ a.T, n_points=11,
                                 reg=1e-6, inverted=True,
                                 blocks=(("w", 0, 2), ("b", 2, 1)))
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        back = load_covariance(path)
        np.testing.assert_array_equal(back.values, est.values)
        assert back.kind == est.kind
        assert back.n_points == est.n_points
        assert back.reg == est.reg
        assert back.inverted
        assert back.blocks == est.blocks

    def test_roundtrip_diag_with_scales(self, tmp_path):
        est = CovarianceEstimate(kind="learned", values=np.array([1.0, 0.5]),
                                 n_points=4, inverted=True,
                                 blocks=(("w", 0, 1), ("b", 1, 1)),
                                 block_scales={"w": 2.0, "b": 1.0})
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        back = load_covariance(path)
        np.testing.assert_array_equal(back.values, est.values)
        assert back.block_scales == {"w": 2.0, "b": 1.0}

    def test_header_is_a_single_json_line(self, tmp_path):
        est = CovarianceEstimate(kind="fisher-diag", values=np.ones(2), n_points=2)
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        header = path.read_bytes().split(b"\n", 1)[0]
        import json

        meta = json.loads(header)
        assert meta["layout"] == "diag"
        assert meta["dim"] == 2

    def test_truncated_payload_rejected(self, tmp_path):
        est = CovarianceEstimate(kind="fisher-diag", values=np.ones(4), n_points=2)
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(StructuralError):
            load_covariance(path)

    @pytest.mark.parametrize("values", [
        np.array([[2.0, -0.0, 1e-300], [-0.0, np.pi, -7.5],
                  [1e-300, -7.5, 5e300]]),
        np.array([0.5, -0.0, 1e-310, 3.0]),
    ], ids=["full", "diag"])
    def test_file_bytes_and_loaded_values_are_bitwise(self, tmp_path, values):
        """The file is the header line then the values' little-endian
        bytes, and loading gives those bytes back, signed zeros and
        subnormals included."""
        est = CovarianceEstimate(kind="sandwich", values=values, n_points=3,
                                 inverted=True)
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        header, payload = path.read_bytes().split(b"\n", 1)
        assert payload == values.astype("<f8").tobytes()
        back = load_covariance(path)
        assert back.values.dtype == np.float64
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()
        save_covariance(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("cut, held", [(8, 24), (1, 31), (32, 0)])
    def test_short_payload_names_its_length(self, tmp_path, cut, held):
        est = CovarianceEstimate(kind="fisher-diag", values=np.ones(4),
                                 n_points=2)
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(StructuralError, match=(
                f"covariance payload holds {held} bytes, expected 32")):
            load_covariance(path)

    def test_long_payload_names_its_length(self, tmp_path):
        est = CovarianceEstimate(kind="fisher-diag", values=np.ones(4),
                                 n_points=2)
        path = tmp_path / "sigma.bin"
        save_covariance(path, est)
        path.write_bytes(path.read_bytes() + b"\0" * 3)
        with pytest.raises(StructuralError, match=(
                "covariance payload holds 35 bytes, expected 32")):
            load_covariance(path)

    @pytest.mark.parametrize("header", [
        b"{}", b"[]", b'"text"',
        b'{"kind": "fisher-diag", "layout": "diag", "dim": "2", '
        b'"n_points": 2, "reg": 0.0, "inverted": false, "blocks": []}',
        b'{"kind": "fisher-diag", "layout": "diag", "dim": 2, '
        b'"n_points": 2, "reg": 0.0, "inverted": 0, "blocks": []}',
        b'{"kind": "fisher-diag", "layout": "ring", "dim": 2, '
        b'"n_points": 2, "reg": 0.0, "inverted": false, "blocks": []}',
        b'{"kind": "fisher-diag", "layout": "diag", "dim": 2, '
        b'"n_points": 2, "reg": 0.0, "inverted": false, "blocks": [7]}',
        b'{"kind": "fisher-diag", "layout": "diag", "dim": 2, '
        b'"n_points": 2, "reg": 0.0, "inverted": false, "blocks": []',
    ])
    def test_malformed_header_is_a_structural_error(self, tmp_path, header):
        path = tmp_path / "sigma.bin"
        path.write_bytes(header + b"\n" + np.ones(2).tobytes())
        with pytest.raises(StructuralError):
            load_covariance(path)

    def test_negative_dimension_is_a_structural_error(self, tmp_path):
        """dim = -1 asks for a (-1, -1) matrix of one entry: refused by
        name rather than by a raw reshape error on an 8-byte payload."""
        path = tmp_path / "sigma.bin"
        path.write_bytes(b'{"kind": "fisher-full", "layout": "full", '
                         b'"dim": -1, "n_points": 2, "reg": 0.0, '
                         b'"inverted": false, "blocks": [], '
                         b'"block_scales": null}\n' + np.ones(1).tobytes())
        with pytest.raises(StructuralError, match="'dim' is negative"):
            load_covariance(path)

    def test_a_dimension_whose_square_wraps_is_a_structural_error(self,
                                                                   tmp_path):
        """2**32 squared is 2**64: counted in int64 it wrapped to 0 bytes,
        which an empty payload matched, and the reshape failed raw."""
        path = tmp_path / "sigma.bin"
        path.write_bytes(b'{"kind": "fisher-full", "layout": "full", '
                         b'"dim": 4294967296, "n_points": 2, "reg": 0.0, '
                         b'"inverted": false, "blocks": [], '
                         b'"block_scales": null}\n')
        with pytest.raises(StructuralError, match="holds 0 bytes, expected "
                                                  "147573952589676412928"):
            load_covariance(path)


class TestEstimateValidation:
    def test_rejects_bad_shapes_and_kinds(self):
        with pytest.raises(StructuralError):
            CovarianceEstimate(kind="mystery", values=np.ones(2), n_points=1)
        with pytest.raises(StructuralError):
            CovarianceEstimate(kind="fisher-full", values=np.ones((2, 3)),
                               n_points=1)
        with pytest.raises(NumericalError):
            CovarianceEstimate(kind="fisher-diag",
                               values=np.array([1.0, np.nan]), n_points=1)
