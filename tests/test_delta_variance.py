"""The quadratic-form estimator, block decomposition, and scale fine-tuning."""

import math
import warnings

import numpy as np
import pytest

from deltavar import Dataset, NumericalError, StructuralError, make_model
from deltavar.covariance import CovarianceEstimate, canonical_sigma
from deltavar.delta_variance import (
    BlockScales,
    GradientDelta,
    block_variances,
    delta_variance,
    finetune_scales,
)
from deltavar.evaluation import error_correlation


def identity_sigma(d, diagonal=True, blocks=()):
    values = np.ones(d) if diagonal else np.eye(d)
    kind = "fisher-diag" if diagonal else "fisher-full"
    return CovarianceEstimate(kind=kind, values=values, n_points=1,
                              inverted=True, blocks=blocks)


class TestDeltaVariance:
    def test_zero_gradient_gives_zero(self):
        delta = GradientDelta(np.zeros(4))
        assert delta_variance(delta, identity_sigma(4)) == 0.0

    def test_identity_sigma_gives_squared_norm(self):
        v = np.array([1.0, -2.0, 3.0])
        delta = GradientDelta(v)
        assert delta_variance(delta, identity_sigma(3)) == pytest.approx(14.0)
        assert delta_variance(delta, identity_sigma(3, diagonal=False)) == (
            pytest.approx(14.0))

    def survival_case(self, n):
        theta = 0.9
        grad = 10.0 * theta ** 9
        sigma_val = theta * (1.0 - theta) / n
        delta = GradientDelta(np.array([grad]))
        sigma = CovarianceEstimate(kind="fisher-full",
                                   values=np.array([[sigma_val]]),
                                   n_points=n, inverted=True)
        return theta, grad, sigma_val, delta_variance(delta, sigma)

    def test_survival_hand_case_is_exact_quadratic_form(self):
        theta, grad, sigma_val, nu = self.survival_case(100)
        assert nu == pytest.approx(grad * grad * sigma_val, rel=1e-12)

    def test_survival_gap_to_posterior_sampling_tracks_expansion(self):
        # The linearization error of theta**10 at theta=0.9 is second order:
        # Var_mc - nu ~ sigma^4 * (u''^2/2 + u'*u'''). At n=100 that is a 12%
        # relative gap; by n=1000 it has shrunk below 2%.
        theta, grad, sigma_val, nu = self.survival_case(100)
        rng = np.random.default_rng(42)
        draws = rng.normal(theta, math.sqrt(sigma_val), size=1_000_000)
        mc = float(np.var(draws ** 10))
        u2 = 90.0 * theta ** 8
        u3 = 720.0 * theta ** 7
        predicted_gap = sigma_val ** 2 * (0.5 * u2 ** 2 + grad * u3)
        assert mc - nu == pytest.approx(predicted_gap, rel=0.10)

        theta, grad, sigma_val, nu = self.survival_case(1000)
        draws = rng.normal(theta, math.sqrt(sigma_val), size=1_000_000)
        mc = float(np.var(draws ** 10))
        assert nu == pytest.approx(mc, rel=0.02)

    def test_requires_covariance_not_curvature(self):
        raw = CovarianceEstimate(kind="fisher-full", values=np.eye(2), n_points=1)
        with pytest.raises(StructuralError):
            delta_variance(GradientDelta(np.ones(2)), raw)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            delta_variance(GradientDelta(np.ones(3)), identity_sigma(2))

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(5)
        a = rng.standard_normal((5, 5))
        sigma = CovarianceEstimate(kind="sandwich", values=a @ a.T, n_points=3,
                                   inverted=True)
        base = delta_variance(GradientDelta(v), sigma)
        scaled_delta = delta_variance(GradientDelta(3.0 * v), sigma)
        assert scaled_delta == pytest.approx(9.0 * base, rel=1e-12)
        sigma_scaled = CovarianceEstimate(kind="sandwich",
                                          values=5.0 * (a @ a.T), n_points=3,
                                          inverted=True)
        assert delta_variance(GradientDelta(v), sigma_scaled) == pytest.approx(
            5.0 * base, rel=1e-12)

    def test_gradient_validation(self):
        with pytest.raises(NumericalError):
            GradientDelta(np.array([1.0, np.inf]))
        with pytest.raises(StructuralError):
            GradientDelta(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradients_are_refused_without_a_warning(self, bad):
        """The finiteness check raises no RuntimeWarning of its own, so
        the refusal is a NumericalError also when warnings are errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                GradientDelta(np.array([1.0, bad, -2.0]))

    def test_the_largest_finite_entries_are_accepted_without_a_warning(self):
        """Entries near the float64 limit are finite: a check that squares
        or sums them would overflow and warn."""
        vec = np.array([1.7e308, -1.7e308, 1.7e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert GradientDelta(vec).vector.tobytes() == vec.tobytes()


def block_parts(delta, sigma):
    """One gradient's block contributions keyed by block name."""
    row = block_variances(delta.vector[None, :], sigma)[0]
    return {name: float(v) for (name, _, _), v in zip(sigma.blocks, row)}


class TestBlockDecompose:
    def test_single_block_returns_total(self):
        v = np.array([1.0, 2.0])
        sigma = identity_sigma(2, blocks=(("all", 0, 2),))
        parts = block_parts(GradientDelta(v), sigma)
        assert parts == {"all": pytest.approx(5.0)}

    def test_orthogonal_blocks_under_identity(self):
        v = np.array([3.0, 4.0, 1.0])
        sigma = identity_sigma(3, blocks=(("a", 0, 2), ("b", 2, 1)))
        parts = block_parts(GradientDelta(v), sigma)
        assert parts["a"] == pytest.approx(25.0)
        assert parts["b"] == pytest.approx(1.0)

    def test_mlp_blocks_recombine_to_total(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((50, 2))
        y = np.tanh(x @ np.array([[0.7], [-0.4]]))
        data = Dataset(x, y)
        model = make_model("mlp", d_in=2, d_out=1, hidden=(4,), seed=3)
        sigma = canonical_sigma(model, data, mode="diag", reg=1e-6)
        assert len(sigma.blocks) == 4
        vec = rng.standard_normal(model.params.dim)
        delta = GradientDelta(vec)
        parts = block_parts(delta, sigma)
        total = delta_variance(delta, sigma)
        assert sum(parts.values()) == pytest.approx(total, rel=1e-12)
        for name, start, length in sigma.blocks:
            manual = np.sum(vec[start:start + length] ** 2
                            * sigma.values[start:start + length])
            assert parts[name] == pytest.approx(manual, rel=1e-12)

    def test_full_block_diagonal_matrix(self):
        blocks = (("a", 0, 2), ("b", 2, 2))
        m = np.zeros((4, 4))
        m[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
        m[2:, 2:] = [[1.5, -0.2], [-0.2, 3.0]]
        sigma = CovarianceEstimate(kind="learned", values=m, n_points=1,
                                   inverted=True, blocks=blocks)
        v = np.array([1.0, -1.0, 2.0, 0.5])
        parts = block_parts(GradientDelta(v), sigma)
        assert sum(parts.values()) == pytest.approx(
            delta_variance(GradientDelta(v), sigma), rel=1e-12)

    def test_batched_rows_match_single_decompositions(self):
        rng = np.random.default_rng(29)
        blocks = (("a", 0, 2), ("b", 2, 3))
        m = np.zeros((5, 5))
        for _, start, length in blocks:
            f = rng.normal(size=(length, length))
            m[start:start + length, start:start + length] = f @ f.T
        diag = CovarianceEstimate(kind="fisher-diag", values=np.diag(m).copy(),
                                  n_points=1, inverted=True, blocks=blocks)
        full = CovarianceEstimate(kind="learned", values=m, n_points=1,
                                  inverted=True, blocks=blocks)
        deltas = rng.normal(size=(8, 5))
        for sigma in (diag, full):
            rows = block_variances(deltas, sigma)
            assert rows.shape == (8, 2)
            for v, row in zip(deltas, rows):
                delta = GradientDelta(v)
                assert list(block_parts(delta, sigma).values()) \
                    == list(row)
                assert row.sum() == pytest.approx(
                    delta_variance(delta, sigma), rel=1e-12)

    def test_batched_shape_validation(self):
        sigma = identity_sigma(3, blocks=(("a", 0, 2), ("b", 2, 1)))
        with pytest.raises(StructuralError):
            block_variances(np.ones(3), sigma)
        with pytest.raises(StructuralError):
            block_variances(np.ones((2, 4)), sigma)

    def test_cross_block_entries_refused(self):
        blocks = (("a", 0, 1), ("b", 1, 1))
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        sigma = CovarianceEstimate(kind="learned", values=m, n_points=1,
                                   inverted=True, blocks=blocks)
        with pytest.raises(StructuralError):
            block_parts(GradientDelta(np.ones(2)), sigma)

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradients_refused(self, diagonal, bad):
        """As delta_variance refuses such a row: block contributions of
        nan or inf used to come back as numbers."""
        sigma = identity_sigma(3, diagonal=diagonal,
                               blocks=(("a", 0, 2), ("b", 2, 1)))
        deltas = np.ones((2, 3))
        deltas[1, 2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError):
                block_variances(deltas, sigma)

    def test_missing_layout_refused(self):
        with pytest.raises(StructuralError):
            block_parts(GradientDelta(np.ones(2)), identity_sigma(2))


def stationary_synthetic(m=90, n_blocks=3, seed=1):
    """Cached variances plus targets that make all-ones scales stationary.

    Targets are set to the Laplace scale b_j itself at unit scales, where the
    per-point log-likelihood gradient vanishes, so the fitted scales should
    not move.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.exponential(scale=0.5, size=(m, n_blocks))
    nu = matrix.sum(axis=1)
    alpha = 1.0
    for _ in range(200):
        b = np.sqrt((alpha + nu) / 2.0)
        alpha = 2.0 * float(b.mean()) ** 2
    targets = np.sqrt((alpha + nu) / 2.0)
    names = tuple(f"block{i}" for i in range(n_blocks))
    return matrix, names, targets


def noisy_block_synthetic(m=400, seed=2):
    """One informative block driving the errors, one pure-noise block."""
    rng = np.random.default_rng(seed)
    informative = rng.exponential(scale=1.0, size=m)
    noise = rng.exponential(scale=1.0, size=m)
    b = np.sqrt((0.1 + informative) / 2.0)
    targets = rng.laplace(scale=b)
    return np.column_stack([informative, noise]), ("signal", "junk"), targets


class TestFinetuneScales:
    def test_underdetermined_refused(self):
        matrix = np.tile([1.0, 2.0, 3.0], (2, 1))
        with pytest.raises(StructuralError):
            finetune_scales(matrix, ("a", "b", "c"), [0.5, 0.4])

    def test_calibrated_targets_keep_scales_near_one(self):
        case = stationary_synthetic()
        scales = finetune_scales(*case, objective="loglik")
        for value in scales.as_dict().values():
            assert abs(value - 1.0) < 0.01
        assert scales.objective_value >= scales.objective_at_init

    def test_noise_block_is_suppressed(self):
        case = noisy_block_synthetic()
        scales = finetune_scales(*case, objective="loglik")
        fitted = scales.as_dict()
        assert fitted["junk"] < 0.1
        assert scales.objective_value > scales.objective_at_init

    def test_correlation_objective_also_suppresses_noise(self):
        case = noisy_block_synthetic(seed=9)
        scales = finetune_scales(*case, objective="correlation")
        fitted = scales.as_dict()
        assert fitted["junk"] < fitted["signal"]
        assert scales.objective_value >= scales.objective_at_init

    @pytest.mark.parametrize("seed", [0, 4, 9, 10])
    def test_correlation_scales_stay_finite(self, seed):
        """The correlation is scale-free: without the penalty on the log
        scales these examples returned factors of 1e13 to 1e26 (and their
        reciprocals) after one iteration."""
        case = noisy_block_synthetic(seed=seed)
        scales = finetune_scales(*case, objective="correlation")
        fitted = scales.as_dict()
        assert all(1e-6 <= v <= 1e6 for v in fitted.values())
        assert fitted["signal"] > fitted["junk"]
        assert scales.objective_value >= scales.objective_at_init
        sd = np.sqrt(case[0] @ np.array(list(fitted.values())))
        assert scales.objective_value == pytest.approx(
            error_correlation(case[2], sd), rel=1e-12)

    @pytest.mark.parametrize("matrix,names", [
        ([[np.nan], [2.0]], ("a",)),
        ([[-1.0], [2.0]], ("a",)),
        ([[1.0], [2.0]], ("a", "b")),
        ([[1.0, 3.0], [2.0, 4.0]], ("a",)),
        ([1.0, 2.0], ("a",)),
        (np.ones((2, 1, 1)), ("a",)),
        (np.ones((2, 0)), ()),
    ])
    def test_bad_matrices_refused(self, matrix, names):
        """NaN or negative entries, names that do not match the columns and
        arrays that are not 2-D are structural errors."""
        with pytest.raises(StructuralError):
            finetune_scales(matrix, names, [0.1, 0.2])

    def test_unknown_objective_and_bad_rows(self):
        matrix = np.array([[1.0], [2.0]])
        with pytest.raises(StructuralError):
            finetune_scales(matrix, ("a",), [0.1, 0.2], objective="rmse")
        with pytest.raises(StructuralError):
            finetune_scales(matrix, ("a",), [0.1, 0.2, 0.3])

    def test_block_scales_shape_validation(self):
        with pytest.raises(StructuralError):
            BlockScales(names=("a", "b"), log_scales=np.zeros(3))

    def test_config_budget_respected(self):
        case = noisy_block_synthetic(seed=4)
        scales = finetune_scales(*case, steps=3)
        assert scales.steps_taken <= 3

    def test_cap_hit_is_reported_as_not_converged(self):
        case = noisy_block_synthetic(seed=4)
        capped = finetune_scales(*case, steps=1)
        assert capped.steps_taken == 1 and not capped.converged
        full = finetune_scales(*case)
        assert full.converged and 1 < full.steps_taken < 500
        assert full.objective_value >= capped.objective_value
