"""Tests for scalar quantities of interest and their parameter gradients."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from deltavar import autodiff as ad
from deltavar import qoi as qoi_module
from deltavar.autodiff import ParameterVector
from deltavar.exceptions import (ConfigError, ConvergenceError,
                                 DegenerateEigenvalueError, NumericalError,
                                 StructuralError)
from deltavar.models import MODEL_KINDS, make_model, predict
from deltavar.qoi import (EigenProblem, FixedPointProblem, eigen_spectra,
                          eigenvalue_delta, implicit_delta, input_rows,
                          make_qoi, parse_qoi, qoi_value,
                          qoi_value_and_delta, qoi_values, solve_fixed_point,
                          value_batch_params, values_and_deltas)
from tape_reference import qoi_tape_delta


def fd_gradient(f, theta, h=1e-6):
    """Central finite differences, one coordinate at a time."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.size)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


class TestPowerQoi:
    def test_bernoulli_tenth_power_gradient(self):
        model = make_model("bernoulli-rate").with_params([0.9])
        u = make_qoi("power", model, exponent=10)
        value, delta = qoi_value_and_delta(u, [0.0])
        assert value == pytest.approx(0.9 ** 10, rel=1e-14)
        assert delta.vector[0] == pytest.approx(10 * 0.9 ** 9, rel=1e-12)

    def test_linear_cube_matches_finite_differences(self):
        theta = np.array([0.5, -0.3, 0.8])
        model = make_model("linear-regression", d_in=3).with_params(theta)
        z = np.array([1.0, 2.0, -1.0])
        u = make_qoi("power", model, exponent=3)
        value, delta = qoi_value_and_delta(u, z)
        assert value == pytest.approx(float(theta @ z) ** 3, rel=1e-12)

        def f(th):
            return float(th @ z) ** 3

        fd = fd_gradient(f, theta)
        np.testing.assert_allclose(delta.vector, fd, rtol=1e-6)

    def test_value_alone_matches_pair(self):
        model = make_model("bernoulli-rate").with_params([0.7])
        u = make_qoi("power", model, exponent=4)
        assert qoi_value(u, [0.0]) == qoi_value_and_delta(u, [0.0])[0]

    def test_needs_scalar_output_model(self):
        wide = make_model("linear-regression", d_in=2, d_out=2)
        with pytest.raises(StructuralError):
            make_qoi("power", wide, exponent=2)
        with pytest.raises(StructuralError):
            make_qoi("power", None, exponent=2)


    def test_negative_output_with_fractional_exponent_raises(self):
        model = make_model("linear-regression", d_in=1).with_params([-2.0])
        u = make_qoi("power", model, exponent=2.5)
        for call in (qoi_value, qoi_value_and_delta):
            with pytest.raises(NumericalError):
                call(u, [1.0])
        with pytest.raises(NumericalError):
            values_and_deltas(u, [[1.0], [-1.0]])
        values, _ = values_and_deltas(make_qoi("power", model, exponent=3),
                                      [[1.0]])
        assert values[0] == -8.0

    def test_input_labels_keep_every_component(self):
        model = make_model("linear-regression", d_in=5).with_params(np.ones(5))
        u = make_qoi("power", model, exponent=1)
        a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        b = np.array([0.1, 0.2, 0.3, 0.4, 0.6])
        label_a = qoi_value_and_delta(u, a)[1].input_id
        label_b = qoi_value_and_delta(u, b)[1].input_id
        assert label_a != label_b
        assert label_a == "0.1,0.2,0.3,0.4,0.5"


class TestSetProduct:
    def test_two_point_product_rule(self):
        theta = np.array([0.6, -1.3])
        model = make_model("linear-regression", d_in=2).with_params(theta)
        zs = np.array([[1.0, 0.0], [0.0, 1.0]])
        u = make_qoi("set-product", model)
        value, delta = qoi_value_and_delta(u, zs)
        assert value == pytest.approx(theta[0] * theta[1], rel=1e-14)
        np.testing.assert_allclose(delta.vector, [theta[1], theta[0]],
                                   rtol=1e-12)

    def test_batch_is_one_value_for_the_set(self):
        theta = np.array([0.6, -1.3])
        model = make_model("linear-regression", d_in=2).with_params(theta)
        zs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        u = make_qoi("set-product", model)
        values, deltas = values_and_deltas(u, zs)
        assert values.shape == (1,) and deltas.shape == (1, 2)
        assert values[0] == qoi_values(u, zs)[0]
        _, delta = qoi_value_and_delta(u, zs)
        assert deltas[0].tobytes() == delta.vector.tobytes()

    def test_flat_vector_is_one_set_of_scalar_inputs_everywhere(self):
        """Every entry point reads a flat vector for a one-input model as a
        column of scalar inputs: the set {0.9, 0.5} under w = 2."""
        model = make_model("linear-regression", d_in=1).with_params(
            np.array([2.0]))
        u = make_qoi("set-product", model)
        zs = [0.9, 0.5]
        values = [values_and_deltas(u, zs)[0][0], qoi_values(u, zs)[0],
                  qoi_value(u, zs), qoi_value_and_delta(u, zs)[0],
                  value_batch_params(u, model.params.data, zs)[0]]
        np.testing.assert_allclose(values, 1.8, rtol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=3)
        zs = rng.normal(size=(4, 3))
        model = make_model("linear-regression", d_in=3).with_params(theta)
        u = make_qoi("set-product", model)
        _, delta = qoi_value_and_delta(u, zs)

        def f(th):
            return float(np.prod(zs @ th))

        np.testing.assert_allclose(delta.vector, fd_gradient(f, theta),
                                   rtol=1e-5)


class TestQoiValues:
    def test_power_and_rollouts_give_one_value_per_row(self):
        rng = np.random.default_rng(4)
        scalar = make_model("mlp", d_in=2, d_out=1, hidden=(5,), seed=1)
        step = make_model("mlp", d_in=2, d_out=2, hidden=(5,), seed=2)
        zs = rng.normal(size=(6, 2))
        for u in (make_qoi("power", scalar, exponent=2.0),
                  make_qoi("rollout", step, functional="max", component=1,
                           window=2, horizon=3)):
            values = qoi_values(u, zs)
            assert values.shape == (6,)
            np.testing.assert_array_equal(values, values_and_deltas(u, zs)[0])
            for z, value in zip(zs, values):
                assert value == pytest.approx(qoi_value(u, z), rel=1e-12)

    def test_single_answers_read_their_input_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        scalar = make_model("mlp", d_in=2, d_out=1, hidden=(5,), seed=1)
        step = make_model("mlp", d_in=2, d_out=2, hidden=(5,), seed=2)
        zs = rng.normal(size=(3, 2))
        reads = []

        def counted(model, z):
            reads.append(z)
            return input_rows(model, z)

        monkeypatch.setattr(qoi_module, "input_rows", counted)
        for u in (make_qoi("power", scalar, exponent=2.0),
                  make_qoi("set-product", scalar),
                  make_qoi("rollout", step, functional="mean", horizon=2)):
            for single in (qoi_value, qoi_value_and_delta):
                reads.clear()
                single(u, zs)
                assert len(reads) == 1, (u.kind, single.__name__)

    def test_set_product_is_one_value_for_the_set(self):
        theta = np.array([0.6, -1.3])
        model = make_model("linear-regression", d_in=2).with_params(theta)
        zs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        u = make_qoi("set-product", model)
        values = qoi_values(u, zs)
        assert values.shape == (1,)
        assert values[0] == qoi_value(u, zs)
        assert values[0] == pytest.approx(0.6 * -1.3 * -0.7, rel=1e-14)

    def test_forward_replaces_the_model(self):
        model = make_model("linear-regression", d_in=1).with_params([2.0])
        u = make_qoi("power", model, exponent=3.0)
        zs = np.array([0.5, -1.0, 2.0])  # a flat vector of scalar inputs
        np.testing.assert_array_equal(qoi_values(u, zs), (2.0 * zs) ** 3)
        np.testing.assert_array_equal(
            qoi_values(u, zs, forward=lambda x: x + 1.0), (zs + 1.0) ** 3)

    def test_implicit_kinds_are_refused(self):
        problem = EigenProblem(np.ones(2), np.ones(3), index=0)
        with pytest.raises(StructuralError):
            qoi_values(make_qoi("eigenvalue", problem=problem), [[0.0]])

    def test_an_explicit_quantity_without_an_input_is_refused(self):
        """None is no input: it was read as a NaN input (a nan value and a
        NumericalError from the gradient)."""
        model = make_model("linear-regression", d_in=1).with_params([2.0])
        for kind in ("power", "set-product"):
            u = make_qoi(kind, model)
            for call in (lambda: qoi_value(u), lambda: qoi_value(u, None),
                         lambda: qoi_value_and_delta(u),
                         lambda: values_and_deltas(u, None),
                         lambda: qoi_values(u, None)):
                with pytest.raises(StructuralError, match="needs an input"):
                    call()


class TestRollout:
    def step_model(self, seed=3):
        return make_model("mlp", d_in=2, d_out=2, hidden=(5,), seed=seed)

    def rolled_value(self, model, z, u):
        """Reference value straight from predict(), no gradient machinery."""
        x = np.asarray(z, dtype=np.float64)
        states = [x]
        for _ in range(u.config["horizon"]):
            x = predict(model, x)
            states.append(x)
        cfg = u.config
        if cfg["functional"] == "power":
            return states[-1][cfg["component"]] ** cfg["exponent"]
        if cfg["functional"] == "mean":
            return float(np.mean(states[-1]))
        window = [states[t][cfg["component"]]
                  for t in range(cfg["horizon"] - cfg["window"] + 1,
                                 cfg["horizon"] + 1)]
        return max(window)

    @pytest.mark.parametrize("settings", [
        {"functional": "power", "component": 0, "exponent": 2, "horizon": 3},
        {"functional": "power", "component": 1, "exponent": 3, "horizon": 2},
        {"functional": "mean", "horizon": 3},
        {"functional": "max", "component": 0, "horizon": 3, "window": 2},
    ])
    def test_gradient_matches_finite_differences(self, settings):
        model = self.step_model()
        u = make_qoi("rollout", model, **settings)
        z = np.array([0.4, -0.7])
        value, delta = qoi_value_and_delta(u, z)
        assert value == pytest.approx(self.rolled_value(model, z, u), rel=1e-12)

        def f(th):
            bound = make_qoi("rollout", model.with_params(th), **settings)
            return self.rolled_value(model.with_params(th), z, bound)

        fd = fd_gradient(f, model.params.data, h=1e-6)
        np.testing.assert_allclose(delta.vector, fd, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("settings", [
        {"functional": "power", "component": 1, "exponent": 3, "horizon": 2},
        {"functional": "mean", "horizon": 2},
        {"functional": "max", "component": 0, "horizon": 3, "window": 3},
    ])
    def test_vectorized_backward_matches_tape(self, settings):
        model = self.step_model(seed=8)
        u = make_qoi("rollout", model, **settings)
        z = np.array([-0.2, 0.9])
        _, delta = qoi_value_and_delta(u, z)
        reference = qoi_tape_delta(u, z)
        np.testing.assert_allclose(delta.vector, reference, rtol=1e-10,
                                   atol=1e-14)

    def test_window_of_one_equals_final_state_power(self):
        model = self.step_model(seed=5)
        z = np.array([0.3, 0.1])
        u_max = make_qoi("rollout", model, functional="max", component=1,
                         horizon=2, window=1)
        u_pow = make_qoi("rollout", model, functional="power", component=1,
                         exponent=1, horizon=2)
        v_max, d_max = qoi_value_and_delta(u_max, z)
        v_pow, d_pow = qoi_value_and_delta(u_pow, z)
        assert v_max == pytest.approx(v_pow, rel=1e-14)
        np.testing.assert_allclose(d_max.vector, d_pow.vector, rtol=1e-12)

    def test_batched_rows_match_single_calls(self):
        model = self.step_model(seed=2)
        u = make_qoi("rollout", model, functional="mean", horizon=3)
        zs = np.array([[0.1, 0.2], [-0.5, 0.8], [1.1, -0.3]])
        values, deltas = values_and_deltas(u, zs)
        for row, z in enumerate(zs):
            value, delta = qoi_value_and_delta(u, z)
            assert values[row] == pytest.approx(value, rel=1e-14)
            np.testing.assert_allclose(deltas[row], delta.vector, rtol=1e-13)

    def test_requires_square_mlp(self):
        with pytest.raises(StructuralError):
            make_qoi("rollout", make_model("linear-regression", d_in=2),
                     functional="mean", horizon=2)
        rect = make_model("mlp", d_in=2, d_out=1, hidden=(4,))
        with pytest.raises(StructuralError):
            make_qoi("rollout", rect, functional="mean", horizon=2)

    def test_setting_validation(self):
        model = self.step_model()
        with pytest.raises(StructuralError):
            make_qoi("rollout", model, functional="median", horizon=2)
        with pytest.raises(StructuralError):
            make_qoi("rollout", model, functional="mean", horizon=0)
        with pytest.raises(StructuralError):
            make_qoi("rollout", model, functional="max", component=0,
                     horizon=2, window=5)
        with pytest.raises(StructuralError):
            make_qoi("rollout", model, functional="power", component=7,
                     horizon=2)

    @pytest.mark.parametrize("horizon", [1, 5, 40])
    def test_deltas_peak_within_the_step_stacks(self, horizon):
        """values_and_deltas of a rollout holds about the (n, d) deltas and
        two (T, n, width) stacks per layer (inputs and output cotangents):
        its traced peak stays within 8 n (4 d + 2 T sum(widths)) bytes. A
        contraction that broadcast a (T, n, n_in, n_out) product over the
        steps would peak far above it at horizons 5 and 40."""
        model = make_model("mlp", d_in=3, d_out=3, hidden=(32, 32), seed=0)
        n, d = 2000, model.params.dim
        u = make_qoi("rollout", model, functional="mean", horizon=horizon)
        zs = 0.5 * np.random.default_rng(0).standard_normal((n, 3))
        tracemalloc.start()
        try:
            values_and_deltas(u, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        widths = sum(model.hyper["widths"])
        assert peak <= 8 * n * (4 * d + 2 * horizon * widths)


class TestFixedPoint:
    def linear_problem(self, slope=0.5, offset=2.0):
        params = ParameterVector(np.array([slope, offset]),
                                 (("theta", 0, 2),))
        return FixedPointProblem(
            step=lambda th, w: [th[0] * w[0] + th[1]],
            params=params, w0=np.array([0.0]))

    def test_linear_map_closed_form(self):
        problem = self.linear_problem()
        w_star, iters = solve_fixed_point(problem)
        assert w_star[0] == pytest.approx(4.0, abs=1e-11)
        assert iters < 100
        delta = implicit_delta(problem)
        # w* = b / (1 - a) so dw/da = b / (1-a)^2 and dw/db = 1 / (1-a)
        np.testing.assert_allclose(delta.vector, [8.0, 2.0], rtol=1e-10)

    def test_cosine_map_sensitivity(self):
        params = ParameterVector(np.array([1.0]), (("theta", 0, 1),))
        problem = FixedPointProblem(
            step=lambda th, w: [ad.cos(th[0] * w[0])],
            params=params, w0=np.array([1.0]))
        w_star, _ = solve_fixed_point(problem)
        assert w_star[0] == pytest.approx(0.7390851332151607, abs=1e-10)
        delta = implicit_delta(problem, w_star=w_star)
        s = np.sin(w_star[0])
        expected = -s * w_star[0] / (1.0 + s)
        assert delta.vector[0] == pytest.approx(expected, rel=1e-9)

    def test_affine_vector_map_matches_resolve(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) * 0.2
        b = rng.normal(size=3)
        theta = np.concatenate([a.ravel(), b])
        params = ParameterVector(theta, (("A", 0, 9), ("b", 9, 3)))

        def step(th, w):
            return [th[3 * i + 0] * w[0] + th[3 * i + 1] * w[1]
                    + th[3 * i + 2] * w[2] + th[9 + i] for i in range(3)]

        problem = FixedPointProblem(step=step, params=params,
                                    w0=np.zeros(3), component=1)
        w_star, _ = solve_fixed_point(problem)
        closed = np.linalg.solve(np.eye(3) - a, b)
        np.testing.assert_allclose(w_star, closed, atol=1e-11)
        delta = implicit_delta(problem, w_star=w_star)

        def f(th):
            reparsed = np.linalg.solve(np.eye(3) - th[:9].reshape(3, 3),
                                       th[9:])
            return reparsed[1]

        np.testing.assert_allclose(delta.vector, fd_gradient(f, theta),
                                   rtol=1e-5, atol=1e-9)

    def test_unrolled_tape_agrees_with_implicit(self):
        params = ParameterVector(np.array([1.0]), (("theta", 0, 1),))
        problem = FixedPointProblem(
            step=lambda th, w: [ad.cos(th[0] * w[0])],
            params=params, w0=np.array([1.0]))
        implicit = implicit_delta(problem)

        tape = ad.Tape()
        theta = tape.inputs([1.0])
        w = tape.const(1.0)
        for _ in range(200):
            w = ad.cos(theta[0] * w)
        unrolled = tape.grad(w, theta)
        np.testing.assert_allclose(implicit.vector, unrolled, rtol=1e-9)

    def test_nonconvergent_oscillation_raises(self):
        params = ParameterVector(np.array([1.0]), (("theta", 0, 1),))
        problem = FixedPointProblem(
            step=lambda th, w: [th[0] - w[0]],
            params=params, w0=np.array([0.3]), max_iters=100)
        with pytest.raises(ConvergenceError):
            solve_fixed_point(problem)

    def test_divergent_map_raises(self):
        params = ParameterVector(np.array([2.0]), (("theta", 0, 1),))
        problem = FixedPointProblem(
            step=lambda th, w: [th[0] * w[0]],
            params=params, w0=np.array([1.0]))
        with np.errstate(over="ignore"):
            with pytest.raises((NumericalError, ConvergenceError)):
                solve_fixed_point(problem)

    def test_singular_jacobian_refused(self):
        params = ParameterVector(np.array([1.0]), (("theta", 0, 1),))
        problem = FixedPointProblem(
            step=lambda th, w: [w[0] - th[0] * w[0] ** 3],
            params=params, w0=np.array([0.0]))
        w_star, iters = solve_fixed_point(problem)
        assert w_star[0] == 0.0 and iters == 1
        with pytest.raises(NumericalError):
            implicit_delta(problem, w_star=w_star)

    def test_problem_validation(self):
        params = ParameterVector(np.array([0.5]), (("theta", 0, 1),))
        with pytest.raises(StructuralError):
            FixedPointProblem(step=lambda th, w: w, params=params,
                              w0=np.array([np.nan]))
        with pytest.raises(StructuralError):
            FixedPointProblem(step=lambda th, w: w, params=params,
                              w0=np.array([0.0]), component=3)
        with pytest.raises(StructuralError):
            FixedPointProblem(step=lambda th, w: w, params=params,
                              w0=np.array([0.0]), tol=0.0)

    def test_qoi_wrapper_returns_component(self):
        problem = self.linear_problem()
        u = make_qoi("fixed-point", problem=problem)
        assert qoi_value(u) == pytest.approx(4.0, abs=1e-11)
        value, delta = qoi_value_and_delta(u)
        assert value == pytest.approx(4.0, abs=1e-11)
        assert delta.vector.shape == (2,)


def chain_reference(theta, n):
    """Dense K = sum_j k_j s_j s_j' and A = M^-1 K of an n-mass chain, with
    the spring vectors s_j = e_j - e_{j-1} (both walls fixed) as rows."""
    springs = np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)
    k = springs.T @ (theta[n:, None] * springs)
    return k, k / theta[:n, None], springs


def chain_eigenvalue(theta, n, index):
    """The index-th ascending eigenvalue of the dense A = M^-1 K."""
    return np.sort(np.linalg.eigvals(chain_reference(theta, n)[1]).real)[index]


class TestEigen:
    def test_chain_stiffness_matrix_structure(self):
        masses = np.array([1.0, 2.0, 4.0])
        stiff = np.array([1.0, 2.0, 3.0, 4.0])
        theta = np.concatenate([masses, stiff])
        expected_k = np.array([
            [3.0, -2.0, 0.0],
            [-2.0, 5.0, -3.0],
            [0.0, -3.0, 7.0],
        ])
        np.testing.assert_array_equal(chain_reference(theta, 3)[0],
                                      expected_k)
        np.testing.assert_allclose(
            eigen_spectra(3, theta[None, :])[0],
            np.sort(np.linalg.eigvals(expected_k / masses[:, None]).real),
            rtol=1e-12)

    def test_five_mass_chain_matches_finite_differences(self):
        masses = np.array([1.2, 0.8, 1.0, 1.5, 0.9])
        stiff = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        problem = EigenProblem(masses, stiff, index=2)
        lam, delta = eigenvalue_delta(problem)
        theta = np.concatenate([masses, stiff])

        def f(th):
            return chain_eigenvalue(th, 5, 2)

        assert lam == pytest.approx(f(theta), rel=1e-12)
        np.testing.assert_allclose(delta.vector, fd_gradient(f, theta),
                                   rtol=1e-5)

    def test_gradients_at_shifted_parameters(self):
        problem = EigenProblem(np.ones(3), np.ones(4), index=0)
        theta = np.array([1.1, 0.9, 1.3, 2.0, 1.0, 0.5, 1.5])
        lam, delta = eigenvalue_delta(problem, theta)

        def f(th):
            return chain_eigenvalue(th, 3, 0)

        assert lam == pytest.approx(f(theta), rel=1e-12)
        np.testing.assert_allclose(delta.vector, fd_gradient(f, theta),
                                   rtol=1e-5)

    def test_left_vectors_match_scipy_eig(self):
        """The gradient agrees with scipy.linalg.eig's left/right formula
        l' dA r / l' r on the dense A = M^-1 K, for every index."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            theta = np.concatenate([rng.uniform(0.5, 2.0, n),
                                    rng.uniform(0.5, 6.0, n + 1)])
            _, a, springs = chain_reference(theta, n)
            masses = theta[:n]
            # dA/dm_j scales row j of A by -1/m_j; dA/dk_j = M^-1 s_j s_j'
            das = ([np.outer(np.eye(n)[j], -a[j] / masses[j])
                    for j in range(n)]
                   + [np.outer(s / masses, s) for s in springs])
            values, left, right = scipy_linalg.eig(a, left=True, right=True)
            order = np.argsort(values.real, kind="stable")
            for index in range(n):
                l_vec = left[:, order[index]].conj()
                r_vec = right[:, order[index]]
                expected = np.array([l_vec @ (da @ r_vec) for da in das]
                                    ).real / (l_vec @ r_vec).real
                lam, delta = eigenvalue_delta(EigenProblem(
                    masses, theta[n:], index))
                assert lam == pytest.approx(values.real[order[index]],
                                            rel=1e-12)
                np.testing.assert_allclose(
                    delta.vector, expected, rtol=0.0,
                    atol=1e-12 * np.max(np.abs(expected)))

    def test_near_crossing_refused(self):
        # a vanishing middle spring leaves two identical decoupled oscillators
        problem = EigenProblem(np.array([1.0, 1.0]),
                               np.array([1.0, 1e-12, 1.0]), index=0)
        with pytest.raises(DegenerateEigenvalueError):
            eigenvalue_delta(problem)

    def test_delta_refuses_bad_parameter_vectors(self):
        """A wrong parameter count and a zero, negative or NaN mass or
        stiffness are refused before any eigensolve."""
        problem = EigenProblem(np.array([1.0, 2.0]), np.ones(3), index=1)
        base = problem.parameter_vector().data
        with pytest.raises(StructuralError, match="n masses then n\\+1"):
            eigenvalue_delta(problem, base[:-1])
        for position in (1, 3):
            for bad in (0.0, -0.5, np.nan):
                theta = base.copy()
                theta[position] = bad
                with pytest.raises(StructuralError, match="positive"):
                    eigenvalue_delta(problem, theta)

    def test_batch_values_match_loop(self):
        problem = EigenProblem(np.array([1.0, 2.0, 1.5]),
                               np.array([1.0, 2.0, 3.0, 4.0]), index=1)
        u = make_qoi("eigenvalue", problem=problem)
        rng = np.random.default_rng(9)
        base = np.concatenate([problem.masses, problem.stiffnesses])
        thetas = base[None, :] * (1.0 + 0.05 * rng.normal(size=(40, 7)))
        batch = value_batch_params(u, thetas)
        single = np.array([eigenvalue_delta(problem, th)[0] for th in thetas])
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_quantity_takes_no_input(self):
        """The value and gradient at other parameters come from
        value_batch_params and eigenvalue_delta(problem, theta); the quantity
        calls refuse a z instead of reading it as a parameter vector."""
        problem = EigenProblem(np.array([1.0, 2.0]), np.ones(3), index=1)
        u = make_qoi("eigenvalue", problem=problem)
        theta = problem.parameter_vector().data
        for call in (qoi_value, qoi_value_and_delta):
            with pytest.raises(StructuralError):
                call(u, theta)
        lam, delta = qoi_value_and_delta(u)
        assert qoi_value(u) == pytest.approx(lam, rel=1e-12)
        np.testing.assert_array_equal(delta.vector,
                                      eigenvalue_delta(problem)[1].vector)

    def test_batch_values_refuse_an_input(self):
        """value_batch_params takes the parameters as rows and, like
        qoi_value and qoi_value_and_delta, refuses a z instead of ignoring
        it."""
        problem = EigenProblem(np.array([1.0, 2.0]), np.ones(3), index=1)
        u = make_qoi("eigenvalue", problem=problem)
        theta = problem.parameter_vector().data
        for z in (theta, [0.0], 0.0):
            with pytest.raises(StructuralError, match="take no input"):
                value_batch_params(u, theta[None, :], z)
        assert value_batch_params(u, theta[None, :])[0] == qoi_value(u)

    def test_spectra_refuse_non_positive_masses(self):
        """The symmetric form needs M^-1/2: a draw with a zero or negative
        mass is refused instead of yielding the real part of a complex
        spectrum."""
        problem = EigenProblem(np.array([1.0, 2.0, 1.5]),
                               np.array([1.0, 2.0, 3.0, 4.0]), index=1)
        u = make_qoi("eigenvalue", problem=problem)
        base = np.concatenate([problem.masses, problem.stiffnesses])
        for mass in (-0.5, 0.0, np.nan):
            thetas = np.tile(base, (3, 1))
            thetas[1, 2] = mass
            with pytest.raises(StructuralError, match="masses"):
                value_batch_params(u, thetas)
            with pytest.raises(StructuralError, match="masses"):
                eigen_spectra(3, thetas)

    def test_spectra_are_sorted_and_match_eig(self):
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0.5, 3.0, size=(200, 9))
        spectra = eigen_spectra(4, thetas)
        assert np.all(np.diff(spectra, axis=1) >= 0.0)
        for theta, values in zip(thetas[:20], spectra[:20]):
            np.testing.assert_allclose(
                values, [chain_eigenvalue(theta, 4, i) for i in range(4)],
                rtol=1e-12)

    def test_problem_validation(self):
        with pytest.raises(StructuralError):
            EigenProblem(np.array([1.0, 2.0]), np.array([1.0, 2.0]), index=0)
        with pytest.raises(StructuralError):
            EigenProblem(np.array([1.0, -2.0]), np.ones(3), index=0)
        with pytest.raises(StructuralError):
            EigenProblem(np.ones(2), np.ones(3), index=2)
        with pytest.raises(StructuralError):
            EigenProblem(np.ones(100), np.ones(101), index=0)


def test_batched_values_and_deltas_refuse_the_implicit_kinds():
    """A fixed point ignores its inputs and an eigenvalue takes none, so a
    batch over rows of inputs is refused and points to the single call."""
    params = ParameterVector(np.array([0.5, 2.0]), (("theta", 0, 2),))
    fixed = make_qoi("fixed-point", problem=FixedPointProblem(
        step=lambda th, w: [th[0] * w[0] + th[1]], params=params,
        w0=np.array([0.0])))
    eigen = make_qoi("eigenvalue", problem=EigenProblem(
        np.array([1.0, 2.0]), np.ones(3), index=0))
    for u in (fixed, eigen):
        with pytest.raises(StructuralError, match="qoi_value_and_delta"):
            values_and_deltas(u, np.zeros((3, 2)))
        value, delta = qoi_value_and_delta(u)
        assert np.isfinite(value) and np.isfinite(delta.vector).all()


class TestRegistry:
    def test_power_roundtrip(self):
        model = make_model("bernoulli-rate").with_params([0.9])
        u = parse_qoi("power:exponent=10", model)
        assert u.kind == "power"
        assert u.config["exponent"] == 10.0
        again = parse_qoi(u.qoi_id, model)
        assert again.config == u.config

    def test_rollout_settings_parse(self):
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,))
        u = parse_qoi("rollout:functional=power,component=0,exponent=3,"
                      "horizon=2", model)
        assert u.config == {"functional": "power", "horizon": 2,
                            "component": 0, "exponent": 3.0}

    def test_malformed_ids_rejected(self):
        model = make_model("bernoulli-rate")
        for bad in ("", "power:exponent", "power:=3", "power:exponent=ten",
                    "no-such-kind", "rollout:functional=median,horizon=2"):
            with pytest.raises(ConfigError):
                parse_qoi(bad, model)

    def test_id_settings_are_sorted(self):
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,))
        u = make_qoi("rollout", model, functional="power", horizon=2,
                     component=1, exponent=3)
        assert u.qoi_id == ("rollout:component=1,exponent=3.0,"
                            "functional=power,horizon=2")

    def test_id_is_computed_once_and_round_trips(self):
        model = make_model("mlp", d_in=2, d_out=2, hidden=(4,))
        u = make_qoi("rollout", model, functional="max", horizon=3,
                     component=1)
        assert "qoi_id" not in vars(u)
        first = u.qoi_id
        assert vars(u)["qoi_id"] is first and u.qoi_id is first
        again = parse_qoi(first, model)
        assert again.config == u.config and again.qoi_id == first
        other = dataclasses.replace(u, config={**u.config, "horizon": 4})
        assert other.qoi_id == first.replace("horizon=3", "horizon=4")


class TestBatchParams:
    def test_bernoulli_power_closed_form(self):
        model = make_model("bernoulli-rate")
        u = make_qoi("power", model, exponent=3)
        thetas = np.linspace(0.1, 0.9, 33)[:, None]
        batch = value_batch_params(u, thetas, z=[0.0])
        np.testing.assert_allclose(batch, thetas[:, 0] ** 3, rtol=1e-14)

    def test_linear_set_product_matches_loop(self):
        rng = np.random.default_rng(21)
        model = make_model("linear-regression", d_in=3)
        zs = rng.normal(size=(2, 3))
        u = make_qoi("set-product", model)
        thetas = rng.normal(size=(25, 3))
        batch = value_batch_params(u, thetas, z=zs)
        loop = np.array([
            qoi_value(make_qoi("set-product", model.with_params(th)), zs)
            for th in thetas])
        np.testing.assert_allclose(batch, loop, rtol=1e-12)

    def test_mlp_power_falls_back_to_loop(self):
        model = make_model("mlp", d_in=2, d_out=1, hidden=(3,), seed=7)
        u = make_qoi("power", model, exponent=2)
        z = np.array([0.5, -0.5])
        rng = np.random.default_rng(3)
        thetas = model.params.data[None, :] + 0.1 * rng.normal(
            size=(4, model.params.dim))
        batch = value_batch_params(u, thetas, z=z)
        expected = np.array([
            float(predict(model.with_params(th), z)[0]) ** 2 for th in thetas])
        np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_fixed_point_rebinds_problem_parameters(self):
        params = ParameterVector(np.array([0.5, 2.0]), (("theta", 0, 2),))
        problem = FixedPointProblem(
            step=lambda th, w: [th[0] * w[0] + th[1]],
            params=params, w0=np.array([0.0]))
        u = make_qoi("fixed-point", problem=problem)
        thetas = np.array([[0.5, 2.0], [0.25, 3.0], [-0.5, 1.0]])
        batch = value_batch_params(u, thetas)
        expected = thetas[:, 1] / (1.0 - thetas[:, 0])
        np.testing.assert_allclose(batch, expected, atol=1e-10)
        with pytest.raises(StructuralError):
            value_batch_params(u, np.ones((2, 5)))

    def test_mlp_draws_hold_a_bounded_stack(self):
        """A set-product of 200 inputs over 1,000 draws of a (3, 32, 32, 1)
        mlp keeps (1000, 200, width) activations of over 100 MB, six budgets,
        in one stack; the draws run in chunks whose peak stays under the
        budget, and every value keeps the bits of its draw alone."""
        rng = np.random.default_rng(0)
        model = make_model("mlp", d_in=3, d_out=1, hidden=(32, 32), seed=0)
        u = make_qoi("set-product", model)
        k, n = 1000, 200
        thetas = model.params.data + 0.1 * rng.standard_normal(
            (k, model.params.dim))
        zs = rng.standard_normal((n, 3))
        budget = qoi_module._DRAW_STACK_BYTES
        assert 8 * k * n * (32 + 32 + 1) > 6 * budget
        tracemalloc.start()
        try:
            batch = value_batch_params(u, thetas, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget + (1 << 20)
        alone = [qoi_value(make_qoi("set-product", model.with_params(th)), zs)
                 for th in thetas]
        assert batch.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_draws_of_the_wrong_width_are_refused(self, kind):
        """A stack of draws wider or narrower than the model's parameters
        is refused by name for every kind, where the bernoulli rate read
        its first column and the linear kinds raised a raw numpy error."""
        model = make_model(kind, d_in=2, hidden=(3,))
        z = [0.5, -0.5]
        quantities = [make_qoi("power", model, exponent=2.0),
                      make_qoi("set-product", model)]
        if kind == "mlp":
            step = make_model("mlp", d_in=2, d_out=2, hidden=(3,))
            quantities.append(make_qoi("rollout", step, horizon=2))
        for u in quantities:
            dim = u.model.params.dim
            for thetas in (np.full((2, dim + 2), 0.25), np.full((3, dim - 1),
                                                                0.25)):
                with pytest.raises(StructuralError,
                                   match=re.escape(str(thetas.shape))
                                   + ".*" + re.escape(str((dim,)))):
                    value_batch_params(u, thetas, z)
            assert value_batch_params(u, np.full((2, dim), 0.25),
                                      z).shape == (2,)
