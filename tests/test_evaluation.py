"""Metrics: retention AUC, error correlation, Laplace calibration."""

import itertools
import math

import numpy as np
import pytest

from deltavar import NumericalError, StructuralError
from deltavar.evaluation import (
    LaplaceCalibration,
    error_correlation,
    fit_laplace_calibration,
    improvement,
    laplace_loglik,
    retention_auc,
    standard_error,
)


def brute_force_auc(errors, order):
    """Trapezoidal AUC for an explicit removal order, written independently."""
    n = len(errors)
    means = []
    remaining = list(order)
    for k in range(n):
        kept = [errors[i] for i in remaining]
        means.append(sum(kept) / len(kept))
        remaining = remaining[1:]
    total = 0.0
    for k in range(n - 1):
        total += (means[k] + means[k + 1]) / 2.0 * (1.0 / n)
    return total


class TestRetentionAuc:
    errors = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0]

    def all_order_aucs(self):
        return [brute_force_auc(self.errors, perm)
                for perm in itertools.permutations(range(6))]

    def test_perfect_ranking_is_minimal_over_all_orders(self):
        auc = retention_auc(self.errors, self.errors)
        assert auc == pytest.approx(min(self.all_order_aucs()), rel=1e-12)

    def test_reversed_ranking_is_maximal(self):
        inverted = [-e for e in self.errors]
        auc = retention_auc(self.errors, inverted)
        assert auc == pytest.approx(max(self.all_order_aucs()), rel=1e-12)

    def test_constant_variance_falls_back_to_index_order(self):
        auc = retention_auc(self.errors, np.zeros(6))
        assert auc == pytest.approx(
            brute_force_auc(self.errors, range(6)), rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        errors = rng.exponential(size=40)
        nu = rng.exponential(size=40)
        base = retention_auc(errors, nu)
        assert retention_auc(errors, nu ** 3) == base
        assert retention_auc(errors, np.log1p(nu)) == base

    def test_input_validation(self):
        with pytest.raises(StructuralError):
            retention_auc([1.0, 2.0], [1.0])
        with pytest.raises(StructuralError):
            retention_auc([1.0], [1.0])


class TestErrorCorrelation:
    def test_proportional_series(self):
        e = np.array([0.5, 1.5, 2.0, 4.0])
        assert error_correlation(e, 3.0 * e) == pytest.approx(1.0, abs=1e-12)

    def test_anti_proportional_series(self):
        e = np.array([0.5, 1.5, 2.0, 4.0])
        assert error_correlation(e, 10.0 - e) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_series_matches_direct_formula(self):
        e = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        s = np.array([0.9, 2.2, 0.4, 2.1, 1.0])
        n = 5
        se, ss = e.sum(), s.sum()
        num = n * (e * s).sum() - se * ss
        den = math.sqrt(n * (e * e).sum() - se ** 2)
        den *= math.sqrt(n * (s * s).sum() - ss ** 2)
        assert error_correlation(e, s) == pytest.approx(num / den, abs=1e-12)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(8)
        e = rng.exponential(size=25) + 0.1
        s = rng.exponential(size=25) + 0.1
        base = error_correlation(e, s)
        shifted = error_correlation(2.5 * e + 1.0, 0.5 * s + 3.0)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_degenerate_series_rejected(self):
        with pytest.raises(NumericalError):
            error_correlation([1.0, 1.0, 1.0], [0.5, 0.7, 0.9])
        with pytest.raises(NumericalError):
            error_correlation([0.5, 0.7, 0.9], [2.0, 2.0, 2.0])


class TestLaplaceLoglik:
    def test_homoscedastic_reduction(self):
        y = np.array([1.0, -0.5, 2.0])
        mu = np.zeros(3)
        nu = np.array([5.0, 1.0, 0.2])
        calib = LaplaceCalibration(alpha=2.0, beta=0.0)
        b = math.sqrt(1.0)
        expected = np.mean(-np.log(2.0 * b) - np.abs(y) / b)
        assert laplace_loglik(y, mu, nu, calib) == pytest.approx(expected,
                                                                 abs=1e-12)

    def test_three_point_hand_case(self):
        y = np.array([0.3, 1.1, -0.4])
        mu = np.array([0.0, 1.0, 0.0])
        nu = np.array([0.5, 2.0, 1.0])
        calib = LaplaceCalibration(alpha=0.4, beta=0.8)
        total = 0.0
        for yi, mi, vi in zip(y, mu, nu):
            b = math.sqrt((0.4 + 0.8 * vi) / 2.0)
            total += -math.log(2.0 * b) - abs(yi - mi) / b
        assert laplace_loglik(y, mu, nu, calib) == pytest.approx(total / 3.0,
                                                                 abs=1e-12)

    def test_nonpositive_scale_rejected(self):
        calib = LaplaceCalibration(alpha=0.0, beta=1.0)
        with pytest.raises(NumericalError):
            laplace_loglik([1.0, 2.0], [0.0, 0.0], [1.0, 0.0], calib)

    def test_calibration_validation(self):
        with pytest.raises(StructuralError):
            LaplaceCalibration(alpha=-1.0, beta=0.0)
        with pytest.raises(StructuralError):
            LaplaceCalibration(alpha=1.0, beta=-0.1)


class TestFitCalibration:
    def test_fitting_beta_improves_on_homoscedastic_start(self):
        rng = np.random.default_rng(11)
        nu = rng.exponential(scale=2.0, size=500)
        b = np.sqrt((0.3 + 1.5 * nu) / 2.0)
        y = rng.laplace(scale=b)
        mu = np.zeros(500)
        # the closed-form homoscedastic scale MLE, beta = 0
        alpha_only = LaplaceCalibration(2.0 * np.abs(y).mean() ** 2, 0.0)
        [fit] = fit_laplace_calibration([y], [mu], [nu])
        start = laplace_loglik(y, mu, nu, alpha_only)
        tuned = laplace_loglik(y, mu, nu, fit)
        assert tuned > start
        assert fit.beta > 0.0

    def test_rejects_negative_variances(self):
        with pytest.raises(StructuralError):
            fit_laplace_calibration([[1.0, 2.0]], [[0.0, 0.0]], [[1.0, -1.0]])

    def test_reports_iterations_and_the_cap(self):
        rng = np.random.default_rng(11)
        nu = rng.exponential(scale=2.0, size=500)
        y = rng.laplace(scale=np.sqrt((0.3 + 1.5 * nu) / 2.0))
        mu = np.zeros(500)
        [full] = fit_laplace_calibration([y], [mu], [nu])
        assert full.converged and 1 < full.iterations <= 100
        [capped] = fit_laplace_calibration([y], [mu], [nu], steps=1)
        assert capped.iterations == 1 and not capped.converged
        start = LaplaceCalibration(alpha=2.0 * np.abs(y).mean() ** 2,
                                   beta=1e-6 * 2.0 * np.abs(y).mean() ** 2
                                   / nu.mean())
        assert (laplace_loglik(y, mu, nu, start)
                < laplace_loglik(y, mu, nu, capped)
                <= laplace_loglik(y, mu, nu, full))


class TestImprovement:
    def test_reference_against_itself_is_zero(self):
        assert improvement(0.7, 0.7) == 0.0

    def test_higher_is_better_orientation(self):
        assert improvement(0.8, 0.7) == pytest.approx(0.1)
        assert improvement(0.6, 0.7, higher_is_better=False) == pytest.approx(0.1)

    def test_standard_error_matches_direct_formula(self):
        v = np.array([1.0, 2.0, 4.0, 4.5])
        assert standard_error(v) == pytest.approx(v.std(ddof=1) / 2.0, rel=1e-12)
        with pytest.raises(StructuralError):
            standard_error([1.0])
