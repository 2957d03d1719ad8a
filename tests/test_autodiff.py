"""Tape-level differentiation contracts: gradients, Hessians, parameter vectors."""
import math

import numpy as np
import pytest
from conftest import central_diff_grad, rel_err

from deltavar import ParameterVector, ResourceError, StructuralError, Tape
from deltavar import autodiff as ad
from deltavar.autodiff import HESSIAN_DIM_CAP


class TestGrad:
    def test_product_rule_three_factors(self):
        # d/dx_i of x0*x1*x2 at (2, 3, 5)
        tape = Tape()
        x = tape.inputs([2.0, 3.0, 5.0])
        y = x[0] * x[1] * x[2]
        assert y.value == 30.0
        g = tape.grad(y, x)
        np.testing.assert_allclose(g, [15.0, 10.0, 6.0], rtol=0, atol=0)

    def test_quadratic_gradient(self):
        # grad of sum(x^2) is 2x, exactly
        tape = Tape()
        vals = [0.5, -1.25, 3.0, 0.0]
        x = tape.inputs(vals)
        y = x[0] * x[0]
        for xi in x[1:]:
            y = y + xi * xi
        g = tape.grad(y, x)
        np.testing.assert_array_equal(g, 2.0 * np.array(vals))

    def test_sqrt_as_half_power_matches_fd(self):
        tape = Tape()
        x = tape.input(4.0)
        y = x ** 0.5
        assert y.value == 2.0
        g = tape.grad(y, [x])[0]
        fd = central_diff_grad(lambda t: t[0] ** 0.5, np.array([4.0]))[0]
        assert abs(g - 0.25) < 1e-12
        assert rel_err(g, fd) < 1e-6

    def test_every_primitive_matches_central_differences(self):
        """Each registered primitive's gradient vs central FD at random points.

        Step 1e-5, relative tolerance 1e-6 on values of magnitude >= 1e-8.
        """
        rng = np.random.default_rng(42)
        unary = [
            (ad.exp, lambda t: math.exp(t), (-2.0, 2.0)),
            (ad.log, lambda t: math.log(t), (0.2, 4.0)),
            (ad.tanh, lambda t: math.tanh(t), (-3.0, 3.0)),
            (ad.sin, lambda t: math.sin(t), (-3.0, 3.0)),
            (ad.cos, lambda t: math.cos(t), (-3.0, 3.0)),
        ]
        for fn, pyfn, (lo, hi) in unary:
            for _ in range(20):
                t0 = float(rng.uniform(lo, hi))
                tape = Tape()
                x = tape.input(t0)
                g = tape.grad(fn(x), [x])[0]
                fd = central_diff_grad(lambda v: pyfn(v[0]), np.array([t0]))[0]
                if abs(fd) >= 1e-8:
                    assert rel_err(g, fd) < 1e-6

        binary = [
            (lambda a, b: a + b, lambda a, b: a + b, (-3, 3), (-3, 3)),
            (lambda a, b: a - b, lambda a, b: a - b, (-3, 3), (-3, 3)),
            (lambda a, b: a * b, lambda a, b: a * b, (-3, 3), (-3, 3)),
            (lambda a, b: a / b, lambda a, b: a / b, (-3, 3), (0.5, 3)),
            (lambda a, b: a ** b, lambda a, b: a ** b, (0.5, 3), (-2, 2)),
            (ad.maximum, max, (-3, 3), (-3, 3)),
        ]
        for fn, pyfn, (alo, ahi), (blo, bhi) in binary:
            for _ in range(20):
                a0 = float(rng.uniform(alo, ahi))
                b0 = float(rng.uniform(blo, bhi))
                if fn is ad.maximum and abs(a0 - b0) < 1e-3:
                    continue  # FD straddles the kink
                tape = Tape()
                a, b = tape.input(a0), tape.input(b0)
                g = tape.grad(fn(a, b), [a, b])
                fd = central_diff_grad(lambda v: pyfn(v[0], v[1]),
                                       np.array([a0, b0]))
                for gi, fdi in zip(g, fd):
                    if abs(fdi) >= 1e-8:
                        assert rel_err(gi, fdi) < 1e-6

    def test_grad_of_unreached_input_is_zero(self):
        tape = Tape()
        x, z = tape.input(1.0), tape.input(2.0)
        y = x * x
        g = tape.grad(y, [x, z])
        assert g[1] == 0.0

    def test_cross_tape_mixing_raises(self):
        t1, t2 = Tape(), Tape()
        a = t1.input(1.0)
        b = t2.input(2.0)
        with pytest.raises(StructuralError):
            _ = a + b
        with pytest.raises(StructuralError):
            t1.grad(b, [a])


class TestHessian:
    def test_sum_of_squares_hessian_is_two_identity(self):
        tape = Tape()
        x = tape.inputs([0.7, -1.3])
        y = x[0] * x[0] + x[1] * x[1]
        hess = tape.hessian(y, x)
        np.testing.assert_allclose(hess, 2.0 * np.eye(2), rtol=0, atol=1e-14)

    def test_product_hessian_off_diagonal(self):
        tape = Tape()
        x = tape.inputs([2.0, 3.0])
        hess = tape.hessian(x[0] * x[1], x)
        np.testing.assert_allclose(hess, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_least_squares_hessian_is_gram_matrix(self):
        # 0.5*||y - X theta||^2 has Hessian X'X for any theta
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        theta0 = rng.standard_normal(3)
        tape = Tape()
        th = tape.inputs(theta0)
        total = tape.const(0.0)
        for xi, yi in zip(X, y):
            pred = th[0] * xi[0] + th[1] * xi[1] + th[2] * xi[2]
            diff = pred - yi
            total = total + 0.5 * (diff * diff)
        hess = tape.hessian(total, th)
        np.testing.assert_allclose(hess, X.T @ X, rtol=1e-12, atol=1e-12)

    def test_hessian_symmetric_and_matches_fd_of_grad(self):
        rng = np.random.default_rng(11)

        def build(tape, v):
            x = tape.inputs(v)
            return x, ad.exp(x[0] * x[1]) + ad.tanh(x[2]) * x[0] + ad.log(x[2] + 3.0)

        v0 = rng.uniform(0.2, 1.0, size=3)
        tape = Tape()
        x, y = build(tape, v0)
        hess = tape.hessian(y, x)
        assert float(np.max(np.abs(hess - hess.T))) < 1e-10

        def grad_fn(v):
            t = Tape()
            xs, yy = build(t, v)
            return t.grad(yy, xs)

        from conftest import central_diff_hessian
        fd = central_diff_hessian(grad_fn, v0)
        assert rel_err(hess, fd) < 1e-4

    def test_dimension_cap_enforced(self):
        tape = Tape()
        x = tape.inputs(np.zeros(HESSIAN_DIM_CAP + 1))
        y = x[0] * x[0]
        with pytest.raises(ResourceError):
            tape.hessian(y, x)


class TestParameterVector:
    def test_blocks_partition_enforced(self):
        with pytest.raises(StructuralError):
            ParameterVector(np.zeros(4), (("a", 0, 2), ("b", 3, 1)))
        with pytest.raises(StructuralError):
            ParameterVector(np.zeros(4), (("a", 0, 2), ("b", 2, 3)))
        with pytest.raises(StructuralError):
            ParameterVector(np.zeros(4), (("a", 0, 2), ("a", 2, 2)))

    def test_block_access(self):
        pv = ParameterVector(np.arange(5.0), (("w", 0, 3), ("b", 3, 2)))
        _, start, length = pv.blocks[1]
        np.testing.assert_array_equal(pv.data[start:start + length], [3.0, 4.0])
        assert pv.dim == 5
        pv2 = pv.replace_data(np.ones(5))
        assert pv2.blocks == pv.blocks
        with pytest.raises(StructuralError):
            pv.replace_data(np.ones(6))

    def test_single_block(self):
        pv = ParameterVector([1.0, 2.0], (("theta", 0, 2),))
        assert pv.blocks == (("theta", 0, 2),)
        assert pv.data.dtype == np.float64
