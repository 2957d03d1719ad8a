"""Property tests: vectorized quantity gradients, the quadratic form, loss
curvature, covariance files, the retraining oracles, the Laplace fits and
quantity ids, the training gradient and the command line contract.

The scalar tape is the reference for every vectorized explicit-quantity
gradient; numpy's dense products are the reference for the quadratic form;
central differences of the analytic gradient are the reference for the
loss Hessian and the Laplace objective; train() is the reference for the
Newton eps-LOO retraining and, bit for bit, for a member of an ensemble
trained in lockstep; _loss_and_grad is the reference for an mlp or
bernoulli row of the stacked objective; mean_loglik_grad is the reference,
byte for byte, for the gradient training builds from its objective's
forward pass; the scalar Newton loop of newton_reference is the reference,
bit for bit, for a problem in a stack of Laplace calibrations or eps-LOO
retrains and for each one-problem fit (training, the correlation
fine-tune); Euler's identity for homogeneous functions is the reference for
the chain eigenvalue gradient; two triangular solves against the identity
are the reference for the blocked Cholesky inverse, and a per-example sum of
outer products for the full Fisher; qoi_value of the rebound model is the
reference, bit for bit, for the stacked mlp values of value_batch_params,
the product thetas @ z.T over every row of z for its closed-form values,
and k tiled copies of the batch through predict for the dropout passes of
a rollout.
Strategies draw seeds and shapes, and numpy draws the floats from the seed.
"""
import hashlib
import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import central_diff_grad, central_diff_hessian
from hypothesis import assume, example, given
from hypothesis import strategies as st

from deltavar.cli import main as cli_main
from deltavar.covariance import (KINDS, WOODBURY_MAX_CONDITION,
                                 CovarianceEstimate, _invert_lower,
                                 canonical_sigma, empirical_fisher, invert,
                                 laplace_sigma, load_covariance, loss_hessian,
                                 sandwich, save_covariance)
from deltavar.delta_variance import (CORRELATION_PENALTY, GradientDelta,
                                     _neg_correlation, block_variances,
                                     delta_variance, finetune_scales)
from deltavar.evaluation import (LaplaceCalibration, fit_laplace_calibration,
                                 laplace_loglik, laplace_scale_nll)
from deltavar.exceptions import NumericalError, StructuralError
from deltavar.baselines import (ENSEMBLE_MODES, _dropout_passes,
                                train_ensemble)
from deltavar.models import (MODEL_KINDS, Dataset, TrainConfig,
                             _loss_and_grad, _mlp_forward_cache, _sigmoid,
                             _stacked_loss_and_grad, _train_stack,
                             loglik_grad_batch, make_model, mean_loglik_grad,
                             nll_hessian, predict, train)
from deltavar.oracles import (_augmented_descent, _downweighted_thetas,
                              _retrain_stack, adversarial_shift)
from deltavar.qoi import (ROLLOUT_FUNCTIONALS, EigenProblem,
                          eigenvalue_delta, make_qoi, parse_qoi, qoi_value,
                          qoi_value_and_delta, value_batch_params,
                          values_and_deltas)
from deltavar.util import as_float_array, damped_newton
from newton_reference import newton, one_of
from rollout_reference import rollout_values_and_deltas
from tape_reference import qoi_tape_delta
from test_models import PINNED_TRAINING, _pinned_training_cases

EXPONENTS = (1.0, 2.0, 3.0, -1.0, 0.5, 2.5)


@st.composite
def scalar_models(draw, kinds=MODEL_KINDS):
    """A scalar-output model of any kind with seeded parameters."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    d_in = draw(st.integers(1, 3))
    if kind == "mlp":
        hidden = tuple(draw(st.lists(st.integers(1, 5), min_size=1,
                                     max_size=2)))
        return make_model("mlp", d_in=d_in, d_out=1, hidden=hidden,
                          seed=seed)
    model = make_model(kind, d_in=d_in)
    if kind == "bernoulli-rate":
        return model.with_params([rng.uniform(0.05, 0.95)])
    return model.with_params(rng.standard_normal(model.params.dim))


@st.composite
def input_batches(draw, model):
    batch = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.uniform(-1.5, 1.5, size=(batch, model.d_in))


def assert_close_to_tape(vector, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    np.testing.assert_allclose(vector, reference, rtol=1e-10,
                               atol=1e-13 * scale)


@given(st.data())
def test_power_deltas_equal_tape(data):
    model = data.draw(scalar_models())
    zs = data.draw(input_batches(model))
    exponent = data.draw(st.sampled_from(EXPONENTS))
    u = make_qoi("power", model, exponent=exponent)
    if not exponent.is_integer() and np.any(predict(model, zs) < 0.0):
        with pytest.raises(NumericalError):
            values_and_deltas(u, zs)
        return
    values, deltas = values_and_deltas(u, zs)
    for row, z in enumerate(zs):
        assert values[row] == pytest.approx(qoi_value(u, z), rel=1e-12)
        assert_close_to_tape(deltas[row], qoi_tape_delta(u, z))


@given(st.data())
def test_set_product_delta_equals_tape(data):
    model = data.draw(scalar_models())
    zs = data.draw(input_batches(model))
    u = make_qoi("set-product", model)
    value, delta = qoi_value_and_delta(u, zs)
    assert value == qoi_value(u, zs)
    assert_close_to_tape(delta.vector, qoi_tape_delta(u, zs))


@given(st.data())
def test_set_product_batch_is_the_whole_set(data):
    model = data.draw(scalar_models())
    zs = data.draw(input_batches(model))
    u = make_qoi("set-product", model)
    values, deltas = values_and_deltas(u, zs)
    assert values.shape == (1,) and deltas.shape == (1, model.params.dim)
    assert values[0] == qoi_value(u, zs)
    assert_close_to_tape(deltas[0], qoi_tape_delta(u, zs))


@given(st.data())
def test_set_product_with_a_zero_output_stays_exact(data):
    """A zero output leaves only its own term in the gradient, finite."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    d_in = data.draw(st.integers(2, 4))
    batch = data.draw(st.integers(2, 6))
    where = data.draw(st.integers(0, batch - 1))
    theta = rng.standard_normal(d_in)
    theta[1] = -theta[0]
    zs = rng.standard_normal((batch, d_in))
    zs[where] = 0.0
    zs[where, :2] = 1.0  # output theta0 - theta0, exactly zero
    model = make_model("linear-regression", d_in=d_in).with_params(theta)
    u = make_qoi("set-product", model)
    value, delta = qoi_value_and_delta(u, zs)
    assert value == 0.0
    others = np.prod(np.delete(zs @ theta, where))
    np.testing.assert_allclose(delta.vector, others * zs[where], rtol=1e-13,
                               atol=0.0)


@given(st.data())
def test_batched_rows_equal_single_calls(data):
    model = data.draw(scalar_models())
    zs = data.draw(input_batches(model))
    exponent = data.draw(st.sampled_from((1.0, 2.0, 3.0)))
    u = make_qoi("power", model, exponent=exponent)
    values, deltas = values_and_deltas(u, zs)
    for row, z in enumerate(zs):
        value, delta = qoi_value_and_delta(u, z)
        assert values[row] == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(deltas[row], delta.vector, rtol=1e-12,
                                   atol=1e-15)


@given(st.data())
def test_logistic_batch_params_equal_per_draw_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    d_in = data.draw(st.integers(1, 5))
    draws = data.draw(st.integers(1, 20))
    kind = data.draw(st.sampled_from(("power", "set-product")))
    model = make_model("logistic", d_in=d_in)
    config = {"exponent": data.draw(st.sampled_from(EXPONENTS))} \
        if kind == "power" else {}
    u = make_qoi(kind, model, **config)
    zs = rng.standard_normal((data.draw(st.integers(1, 4)), d_in))
    thetas = 2.0 * rng.standard_normal((draws, d_in))
    loop = np.array([qoi_value(make_qoi(kind, model.with_params(th),
                                        **config), zs) for th in thetas])
    np.testing.assert_allclose(value_batch_params(u, thetas, zs), loop,
                               rtol=1e-12)


MLP_QUANTITIES = ("power", "set-product", "rollout-power", "rollout-mean",
                  "rollout-max")


def mlp_quantity(case: str, rng: np.random.Generator):
    """A quantity of one of MLP_QUANTITIES on a seeded mlp: power or
    set-product on a scalar-output mlp, a rollout functional on a step
    model."""
    d_in = int(rng.integers(1, 4))
    hidden = tuple(int(h) for h in rng.integers(1, 7, rng.integers(1, 3)))
    seed = int(rng.integers(2**16))
    if not case.startswith("rollout"):
        model = make_model("mlp", d_in=d_in, d_out=1, hidden=hidden,
                           seed=seed)
        config = ({"exponent": float(rng.choice((1.0, 2.0, 3.0, -1.0)))}
                  if case == "power" else {})
        return make_qoi(case, model, **config)
    model = make_model("mlp", d_in=d_in, d_out=d_in, hidden=hidden, seed=seed)
    horizon = int(rng.integers(1, 5))
    return make_qoi("rollout", model, functional=case.removeprefix("rollout-"),
                    horizon=horizon, component=int(rng.integers(d_in)),
                    exponent=float(rng.choice((1.0, 2.0, 3.0))),
                    window=int(rng.integers(1, horizon + 1)))


@pytest.mark.parametrize("case", MLP_QUANTITIES)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**16))
@example(k=1, seed=0).via("one draw")
@example(k=6, seed=1).via("a stack of draws")
def test_mlp_batch_params_equal_per_draw_values_bit_for_bit(case, k, seed):
    """value_batch_params runs one stacked forward over the mlp draws; each
    value equals, bit for bit, qoi_value of the model rebound to its draw,
    with z read the same way (its first row, or the whole set)."""
    rng = np.random.default_rng(seed)
    u = mlp_quantity(case, rng)
    zs = rng.standard_normal((int(rng.integers(1, 4)), u.model.d_in))
    thetas = u.model.params.data + 0.5 * rng.standard_normal(
        (k, u.model.params.dim))
    per_draw = np.array([qoi_value(replace(u, model=u.model.with_params(th)),
                                   zs) for th in thetas])
    batch = value_batch_params(u, thetas, zs)
    np.testing.assert_array_equal(batch, per_draw)
    assert same_bits(batch, per_draw)


@given(st.sampled_from(("bernoulli-rate", "linear-regression", "logistic")),
       st.integers(0, 2**16))
def test_closed_form_batch_params_keep_the_product_over_every_row(kind, seed):
    """On the generalized linear kinds the draws' outputs come from one
    closed-form product (thetas @ z.T): set-product multiplies the outputs
    over every row of z, bit for bit, and power reads z[:1] as qoi_value
    does, so rows after the first change no bit of it."""
    rng = np.random.default_rng(seed)
    d_in, n, k = (int(v) for v in rng.integers(1, 7, 3))
    model = make_model(kind, d_in=d_in)
    thetas = (rng.uniform(0.05, 0.95, (k, 1)) if kind == "bernoulli-rate"
              else rng.standard_normal((k, model.params.dim)))
    zs = rng.standard_normal((n, d_in))

    def outputs(z):
        outs = (np.broadcast_to(thetas, (k, len(z))) if kind == "bernoulli-rate"
                else thetas @ z.T)
        return _sigmoid(outs) if kind == "logistic" else outs

    for p in (1.0, 2.0, 3.0):
        u = make_qoi("power", model, exponent=p)
        values = value_batch_params(u, thetas, zs)
        assert same_bits(values, outputs(zs[:1])[:, 0] ** p)
        assert values.tobytes() == value_batch_params(u, thetas,
                                                      zs[:1]).tobytes()
    assert same_bits(value_batch_params(make_qoi("set-product", model),
                                        thetas, zs),
                     np.prod(outputs(zs), axis=1))


@pytest.mark.parametrize("functional", ROLLOUT_FUNCTIONALS)
@given(seed=st.integers(0, 2**16))
def test_rollout_dropout_passes_equal_the_tiled_predict_passes(functional,
                                                               seed):
    """The dropout passes of a rollout, a (k, n, d) stack of states through
    the masked forward, equal bit for bit k tiled copies of the batch run
    through predict as (k n, d) states, with the functional taken per row
    and the values split into the k passes afterwards."""
    rng = np.random.default_rng(seed)
    u = mlp_quantity("rollout-" + functional, rng)
    model, cfg = u.model, u.config
    k, rate = int(rng.integers(2, 6)), float(rng.uniform(0.05, 0.6))
    zs = rng.standard_normal((int(rng.integers(1, 5)), model.d_in))
    masks = np.random.default_rng(seed)
    states = [np.tile(zs, (k, 1))]
    for _ in range(cfg["horizon"]):
        states.append(predict(model, states[-1], rng=masks,
                              dropout_rate=rate))
    if functional == "power":
        values = states[-1][:, cfg["component"]] ** cfg["exponent"]
    elif functional == "mean":
        values = states[-1].mean(axis=1)
    else:  # the first maximum over the trailing window
        window = np.stack([s[:, cfg["component"]]
                           for s in states[-cfg["window"]:]])
        values = window[np.argmax(window, axis=0), np.arange(window.shape[1])]
    passes = _dropout_passes(model, u, zs, k, rate,
                             np.random.default_rng(seed))
    np.testing.assert_array_equal(passes, values.reshape(k, -1))
    assert same_bits(passes, values.reshape(k, -1))


@st.composite
def rollouts(draw):
    """A rollout quantity on a seeded step mlp with one or two hidden
    layers: horizon 1-8, any functional (a max window of 1 to the
    horizon), a batch of 1-130 start states and one row of it."""
    seed = draw(st.integers(0, 2**16))
    width = draw(st.integers(1, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 8), min_size=1,
                                 max_size=2)))
    model = make_model("mlp", d_in=width, d_out=width, hidden=hidden,
                       seed=seed)
    horizon = draw(st.integers(1, 8))
    functional = draw(st.sampled_from(ROLLOUT_FUNCTIONALS))
    config = {"functional": functional, "horizon": horizon}
    if functional != "mean":
        config["component"] = draw(st.integers(0, width - 1))
    if functional == "power":
        config["exponent"] = draw(st.sampled_from((1.0, 2.0, 3.0)))
    if functional == "max":
        config["window"] = draw(st.integers(1, horizon))
    n = draw(st.integers(1, 130))
    zs = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, width))
    row = draw(st.integers(0, n - 1))
    return make_qoi("rollout", model, **config), zs, row


@given(rollouts())
@example((make_qoi("rollout", make_model("mlp", d_in=3, d_out=3,
                                         hidden=(24,), seed=1),
                   functional="max", component=0, window=5, horizon=5),
          np.random.default_rng(1).uniform(-1.5, 1.5, size=(64, 3)), 63)
         ).via("the benchmark's step model and a max rollout")
def test_the_one_sweep_rollout_matches_the_per_step_loop(case):
    """values_and_deltas of a rollout against the per-step loop of
    rollout_reference: the values have its bytes, the deltas too at
    horizon 1 and within 1e-14 of the largest reference entry beyond it,
    where the steps are summed in another order. A row alone has the
    reference bytes of that row alone; beside its own batch it agrees to
    rounding, since BLAS rounds a one-row product apart from a batch's
    (the per-step loop does the same)."""
    u, zs, row = case
    values, deltas = values_and_deltas(u, zs)
    ref_values, ref_deltas = rollout_values_and_deltas(u, zs)
    assert same_bits(values, ref_values)
    if u.config["horizon"] == 1:
        assert same_bits(deltas, ref_deltas)
    else:
        scale = float(np.max(np.abs(ref_deltas)))
        assert float(np.max(np.abs(deltas - ref_deltas))) <= 1e-14 * scale
    alone_values, alone_deltas = values_and_deltas(u, zs[row:row + 1])
    ref_alone_values, ref_alone_deltas = rollout_values_and_deltas(
        u, zs[row:row + 1])
    assert same_bits(alone_values, ref_alone_values)
    if u.config["horizon"] == 1:
        assert same_bits(alone_deltas, ref_alone_deltas)
    np.testing.assert_allclose(alone_values, values[row:row + 1],
                               rtol=1e-12, atol=1e-14)
    scale = max(1.0, float(np.max(np.abs(deltas[row]))))
    np.testing.assert_allclose(alone_deltas[0], deltas[row], rtol=0.0,
                               atol=1e-12 * scale)


@given(st.data())
def test_negative_output_with_fractional_exponent_is_refused(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    d_in = data.draw(st.integers(1, 3))
    model = make_model("linear-regression", d_in=d_in).with_params(
        rng.standard_normal(d_in))
    z = rng.standard_normal(d_in)
    assume(float(model.params.data @ z) < 0.0)
    exponent = data.draw(st.sampled_from((0.5, 2.5, -1.5)))
    u = make_qoi("power", model, exponent=exponent)
    with pytest.raises(NumericalError):
        qoi_value(u, z)
    with pytest.raises(NumericalError):
        qoi_value_and_delta(u, z)
    with pytest.raises(NumericalError):
        values_and_deltas(u, z[None, :])


@given(st.integers(1, 8), st.integers(0, 2**16))
def test_chain_eigenvalue_gradient_obeys_euler_identity(n, seed):
    """lambda is homogeneous of degree 1 in the stiffnesses and -1 in the
    masses, so sum_j k_j dlambda/dk_j = lambda and
    sum_j m_j dlambda/dm_j = -lambda, at every index."""
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.3, 3.0, n)
    stiff = rng.uniform(0.3, 6.0, n + 1)
    for index in range(n):
        lam, delta = eigenvalue_delta(EigenProblem(masses, stiff, index))
        assert stiff @ delta.vector[n:] == pytest.approx(lam, rel=1e-12)
        assert masses @ delta.vector[:n] == pytest.approx(-lam, rel=1e-12)


# ---------------------------------------------------------------------------
# the quadratic form
# ---------------------------------------------------------------------------

@st.composite
def psd_sigmas(draw, blocked=False):
    """A PSD covariance, dense or diagonal, possibly rank deficient; with
    `blocked`, dense ones are exactly block diagonal over random blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    dim = sum(sizes)
    blocks, start = [], 0
    for i, size in enumerate(sizes):
        blocks.append((f"b{i}", start, size))
        start += size
    if draw(st.booleans()):
        values = rng.uniform(0.0, 3.0, size=dim)
        kind = "fisher-diag"
    else:
        rank = draw(st.integers(1, dim))
        a = rng.standard_normal((dim, rank))
        values = a @ a.T
        if blocked:
            mask = np.zeros((dim, dim), dtype=bool)
            for _, s, n in blocks:
                mask[s:s + n, s:s + n] = True
            values = np.where(mask, values, 0.0)
        kind = "fisher-full"
    sigma = CovarianceEstimate(kind=kind, values=values, n_points=1,
                               inverted=True, blocks=tuple(blocks))
    v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
    return sigma, GradientDelta(v)


@given(psd_sigmas())
def test_quadratic_form_is_nonnegative_and_matches_dense(case):
    sigma, delta = case
    nu = delta_variance(delta, sigma)
    dense = float(delta.vector @ sigma.matrix() @ delta.vector)
    assert nu >= 0.0
    assert math.isclose(nu, dense, rel_tol=1e-12, abs_tol=1e-300)


@given(psd_sigmas(blocked=True))
def test_block_decomposition_sums_to_the_form(case):
    sigma, delta = case
    parts = block_variances(delta.vector[None, :], sigma)
    assert parts.shape == (1, len(sigma.blocks))
    assert np.all(parts >= 0.0)
    assert math.isclose(float(parts.sum()), delta_variance(delta, sigma),
                        rel_tol=1e-12, abs_tol=1e-300)


def one_row_reference(v, sigma) -> float:
    """The one-row quadratic form as delta_variance spelled it before
    CovarianceEstimate.quadratic_forms, one expression per layout."""
    values = sigma.values
    if values.ndim == 1:
        return float(np.einsum("i,i,i->", v, values, v))
    if sigma.woodbury:
        rv = values.dot(v)
        return float((v.dot(v) - rv.dot(rv)) / (sigma.n_points * sigma.reg))
    return float(v.dot(values.dot(v)))


@given(st.sampled_from(("diag", "dense", "woodbury")), st.integers(1, 300),
       st.integers(1, 70), st.integers(0, 2**16), st.data())
def test_quadratic_forms_rows_keep_their_lone_bits(layout, d, b, seed, data):
    """Row i of quadratic_forms, the lone row through quadratic_forms and
    delta_variance of row i all have the bits of the one-row reference; a
    non-finite entry is a NumericalError, and a raw curvature or a wrong
    width a StructuralError."""
    rng = np.random.default_rng(seed)
    if layout == "diag":
        sigma = CovarianceEstimate(kind="fisher-diag", n_points=3,
                                   values=rng.uniform(0.0, 3.0, d),
                                   inverted=True)
    elif layout == "dense" or d == 1:
        a = rng.standard_normal((d, d))
        sigma = CovarianceEstimate(kind="fisher-full", values=a @ a.T / d,
                                   n_points=3, inverted=True)
    else:
        rank = data.draw(st.integers(0, d - 1))
        sigma = CovarianceEstimate(
            kind="fisher-full", values=0.1 * rng.standard_normal((rank, d)),
            n_points=rank + 1, reg=1e-3, inverted=True, woodbury=True)
    deltas = rng.standard_normal((b, d)) * 10.0 ** rng.uniform(-3, 3)
    forms = sigma.quadratic_forms(deltas)
    assert forms.shape == (b,)
    ref = np.array([one_row_reference(v, sigma) for v in deltas])
    lone = np.array([sigma.quadratic_forms(v) for v in deltas])
    via = np.array([delta_variance(GradientDelta(v), sigma) for v in deltas])
    assert forms.tobytes() == ref.tobytes() == lone.tobytes() == via.tobytes()

    bad, row = deltas.copy(), rng.integers(b)
    bad[row, rng.integers(d)] = data.draw(
        st.sampled_from((math.nan, math.inf, -math.inf)))
    with np.errstate(invalid="ignore", over="ignore"):
        for stack in (bad, bad[row]):
            with pytest.raises(NumericalError):
                sigma.quadratic_forms(stack)
    raw = CovarianceEstimate(kind="fisher-full", n_points=3,
                             values=sigma.matrix() if sigma.woodbury
                             else sigma.values)
    for stack, est in ((deltas, raw), (deltas[:, :-1], sigma),
                       (np.hstack([deltas, deltas[:, :1]]), sigma),
                       (deltas[None], sigma)):
        with pytest.raises(StructuralError):
            est.quadratic_forms(stack)


@given(psd_sigmas(), st.data())
def test_covariance_files_round_trip_bit_exactly(case, data):
    sigma, _ = case
    kind = data.draw(st.sampled_from(KINDS))
    scales = None
    if data.draw(st.booleans()):
        scales = {name: data.draw(st.floats(1e-3, 1e3))
                  for name, _, _ in sigma.blocks}
    sigma = CovarianceEstimate(
        kind=kind, values=sigma.values,
        n_points=data.draw(st.integers(1, 10**6)),
        reg=data.draw(st.floats(0.0, 1e3)), inverted=data.draw(st.booleans()),
        blocks=sigma.blocks, block_scales=scales)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sigma.bin"
        save_covariance(path, sigma)
        back = load_covariance(path)
    assert back.values.tobytes() == sigma.values.tobytes()
    assert back.values.shape == sigma.values.shape
    for field in ("kind", "n_points", "reg", "inverted", "blocks",
                  "block_scales"):
        assert getattr(back, field) == getattr(sigma, field)


# ---------------------------------------------------------------------------
# dense covariance builds: the blocked inverse and the full Fisher
# ---------------------------------------------------------------------------

def two_solve_inverse(matrix: np.ndarray) -> np.ndarray:
    """inv(matrix) of an SPD matrix by two solves against the identity
    through its Cholesky factor, symmetrized."""
    chol = np.linalg.cholesky(matrix)
    eye = np.eye(matrix.shape[0])
    inv = np.linalg.solve(chol.T, np.linalg.solve(chol, eye))
    return (inv + inv.T) / 2.0


@given(st.integers(1, 300), st.floats(0.0, 8.0), st.integers(0, 2**16))
@example(63, 8.0, 0).via("the last single-solve block")
@example(64, 8.0, 1).via("the widest single-solve block")
@example(65, 8.0, 2).via("one halving")
@example(128, 4.0, 3).via("two halvings, 64-wide leaves")
@example(129, 8.0, 4).via("two halvings, a 65-wide half")
@example(300, 8.0, 5).via("the largest size")
def test_blocked_inverse_matches_two_solves_and_is_symmetric(d, log_cond,
                                                             seed):
    """SPD matrices of size 1..300 across the 64-wide leaf and 128 edges,
    condition numbers 1 to 1e8: the inverse is exactly symmetric and within
    1e-13 of the largest reference entry."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = (q * np.logspace(0.0, log_cond, d)) @ q.T
    m = (m + m.T) / 2.0
    inv = invert(CovarianceEstimate(kind="fisher-full", values=m,
                                    n_points=1)).values
    ref = two_solve_inverse(m)
    assert np.array_equal(inv, inv.T)
    assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()


def seeded_fit(kind: str, seed: int):
    """A model of `kind` at seeded parameters and 1..599 seeded examples it
    can score, so the 256-example chunks split the data or not."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 600))
    d_in, d_out = 3, (2 if kind in ("mlp", "linear-regression") else 1)
    x = rng.uniform(-1.5, 1.5, size=(n, d_in))
    if kind == "mlp":
        model = make_model("mlp", d_in=d_in, d_out=d_out, hidden=(6, 5),
                           seed=seed)
    else:
        model = make_model(kind, d_in=d_in, d_out=d_out)
        model = model.with_params(
            [rng.uniform(0.05, 0.95)] if kind == "bernoulli-rate"
            else rng.standard_normal(model.params.dim))
    y = (rng.standard_normal((n, d_out)) if d_out == 2
         else rng.random((n, 1)) < 0.5)
    return model, Dataset(x, y)


@given(st.sampled_from(MODEL_KINDS), st.integers(0, 2**16))
def test_full_fisher_is_symmetric_and_matches_per_example_sum(kind, seed):
    """Over more than one 256-example chunk: exactly symmetric, within
    1e-13 relative of the mean of per-example outer products, and with the
    diagonal mode's diagonal bit for bit."""
    model, data = seeded_fit(kind, seed)
    n = data.n
    full = empirical_fisher(model, data, mode="full").values
    g = loglik_grad_batch(model, data.inputs, data.targets)
    ref = sum(np.outer(row, row) for row in g) / n
    assert np.array_equal(full, full.T)
    assert np.abs(full - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(np.diag(full),
                          empirical_fisher(model, data, mode="diag").values)


def out_of_place_builders(model, data, reg: float) -> dict:
    """The dense builders as each step made a new array: the curvature sums
    from 0, the ridge as matrix + reg * I, the factor's inverse in a zeroed
    buffer of its own and every scaling out of place. Each entry computes
    one builder's values or raises LinAlgError. Where canonical_sigma takes
    the Woodbury form (N < d, reg > 0, 1 + tr(F) / reg within the bound),
    its entry is the factor R of out_of_place_woodbury."""
    d = model.params.dim
    chunks = [(data.inputs[s:s + 256], data.targets[s:s + 256])
              for s in range(0, data.n, 256)]
    diag, fisher, rows = np.zeros(d), np.zeros((d, d)), []
    for x, y in chunks:
        g = loglik_grad_batch(model, x, y)
        rows.append(g)
        diag += np.einsum("ni,ni->i", g, g)
        fisher += g.T @ g
    np.fill_diagonal(fisher, diag)
    fisher = fisher / data.n
    hess = sum(nll_hessian(model, x, y) for x, y in chunks)
    hess = (hess + hess.T) / 2.0
    grads = np.concatenate(rows)
    woodbury = (reg > 0.0 and data.n < d and 1.0 + np.sum(grads * grads)
                / (data.n * reg) <= WOODBURY_MAX_CONDITION)

    def sandwich_values():
        h_inv = out_of_place_inverse(hess, reg)
        values = data.n * (h_inv @ fisher @ h_inv)
        return (values + values.T) / 2.0

    return {"canonical_sigma":
            (lambda: out_of_place_woodbury(grads, reg)) if woodbury
            else lambda: out_of_place_inverse(fisher, reg) / data.n,
            "laplace_sigma": lambda: out_of_place_inverse(hess, reg),
            "sandwich": sandwich_values,
            "invert": lambda: out_of_place_inverse(fisher, reg)}


def out_of_place_inverse(matrix: np.ndarray, reg: float) -> np.ndarray:
    """(matrix + reg * I)^-1 as L^-T L^-1, each step into a new array."""
    chol = np.linalg.cholesky(matrix + reg * np.eye(matrix.shape[0]))
    chol_inv = np.zeros_like(chol)
    _invert_lower(chol, chol_inv)
    return chol_inv.T @ chol_inv


def out_of_place_woodbury(grads: np.ndarray, reg: float) -> np.ndarray:
    """R = L^-1 G, with L L' = G G' + N reg I, each step into a new array
    (the ridge on the Gram's diagonal, as reg * I adds it)."""
    n = grads.shape[0]
    gram = grads @ grads.T
    gram.flat[::n + 1] += n * reg
    chol = np.linalg.cholesky(gram)
    chol_inv = np.zeros_like(chol)
    _invert_lower(chol, chol_inv)
    return chol_inv @ grads


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes, so +0.0 and -0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.sampled_from(MODEL_KINDS), st.sampled_from((0.0, 1e-3, 1.0)),
       st.integers(0, 2**16))
@example("bernoulli-rate", 0.0, 0).via("a 1 x 1 curvature, no ridge")
@example("bernoulli-rate", 1e-3, 1).via("a 1 x 1 curvature, ridged")
@example("linear-regression", 0.0, 2).via("a Kronecker Hessian, no ridge")
@example("linear-regression", 1.0, 3).via("a Kronecker Hessian, ridged")
@example("logistic", 0.0, 4).via("closed forms, no ridge")
@example("logistic", 1e-3, 5).via("closed forms, ridged")
@example("mlp", 0.0, 6).via("the R-op Hessian, no ridge")
@example("mlp", 1.0, 7).via("the R-op Hessian, ridged")
@example("mlp", 1.0, 23).via("N < d: the Woodbury factor")
@example("mlp", 1e-3, 23).via("N < d past the condition bound: dense")
@example("logistic", 1e-3, 27).via("N < d on a closed-form gradient")
def test_in_place_builders_keep_every_bit(kind, reg, seed):
    """canonical_sigma, laplace_sigma, sandwich and invert give the bytes of
    the out-of-place formulas, or both refuse the same matrix; in the
    Woodbury regime canonical_sigma's values are the factor R."""
    model, data = seeded_fit(kind, seed)
    built = {
        "canonical_sigma": lambda: canonical_sigma(model, data,
                                                   reg=reg).values,
        "laplace_sigma": lambda: laplace_sigma(model, data, reg=reg).values,
        "sandwich": lambda: sandwich(model, data, reg=reg).values,
        "invert": lambda: invert(empirical_fisher(model, data),
                                 reg=reg).values,
    }
    for name, reference in out_of_place_builders(model, data, reg).items():
        try:
            expected = reference()
        except np.linalg.LinAlgError:
            with pytest.raises(NumericalError):
                built[name]()
            continue
        assert same_bits(built[name](), expected), name


# the Woodbury nu may be off by at most this many eps per unit of the
# condition bound 1 + tr(F) / reg, relative
WOODBURY_SLACK = 16.0


@st.composite
def wide_fits(draw):
    """A model with more parameters than its 1..d-1 seeded examples, the
    gradients scaled by 10^-3..10^3 through the targets (the inputs of a
    logistic model), and a ridge that puts the condition bound
    1 + tr(F) / reg between about 1 and 10 times WOODBURY_MAX_CONDITION."""
    kind = draw(st.sampled_from(("linear-regression", "logistic", "mlp")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "mlp":
        model = make_model("mlp", d_in=int(rng.integers(1, 4)),
                           d_out=int(rng.integers(1, 3)),
                           hidden=(int(rng.integers(2, 7)),),
                           seed=int(rng.integers(2**16)))
    else:
        width = int(rng.integers(2, 13))
        model = make_model(kind, d_in=width,
                           d_out=int(rng.integers(1, 3))
                           if kind == "linear-regression" else 1)
        model = model.with_params(rng.standard_normal(model.params.dim))
    n = int(rng.integers(1, model.params.dim))
    x = rng.uniform(-1.5, 1.5, size=(n, model.d_in))
    if kind == "logistic":
        x, y = scale * x, rng.random((n, 1)) < 0.5
    else:
        y = scale * rng.standard_normal((n, model.d_out))
    data = Dataset(x, y)
    grads = loglik_grad_batch(model, data.inputs, data.targets)
    trace = float(np.sum(grads * grads)) / n
    assume(trace > 0.0)
    bound = 1.0 + 10.0 ** rng.uniform(-1.0, 1.0 + math.log10(
        WOODBURY_MAX_CONDITION))
    v = rng.standard_normal(model.params.dim) * 10.0 ** rng.uniform(-3, 3)
    return model, data, grads, trace / (bound - 1.0), v


def refined_nu(grads: np.ndarray, reg: float, v: np.ndarray) -> float:
    """v' inv(G'G / N + reg I) v / N: a dense solve refined against
    residuals formed from G in extended precision."""
    n, d = grads.shape
    dense = grads.T @ grads / n + reg * np.eye(d)
    g, target = grads.astype(np.longdouble), v.astype(np.longdouble)
    x = np.linalg.solve(dense, v).astype(np.longdouble)
    for _ in range(4):
        resid = target - (g.T @ (g @ x) / n + reg * x)
        x += np.linalg.solve(dense, resid.astype(np.float64))
    return float(target @ x / n)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the refined reference needs an extended "
                           "long double")
@given(wide_fits())
def test_woodbury_nu_is_within_its_bound_or_the_build_is_dense(case):
    """With N < d: while 1 + tr(F) / reg <= WOODBURY_MAX_CONDITION the
    sigma is the Woodbury factor and nu is >= 0 and within
    WOODBURY_SLACK * eps * (1 + tr(F) / reg) of a refined solve; past the
    bound it is the dense build, byte for byte."""
    model, data, grads, reg, v = case
    sigma = canonical_sigma(model, data, reg=reg)
    bound = 1.0 + float(np.sum(grads * grads)) / (data.n * reg)
    if bound > WOODBURY_MAX_CONDITION:
        assert not sigma.woodbury
        expected = out_of_place_builders(model, data, reg)["canonical_sigma"]
        assert same_bits(sigma.values, expected())
        return
    assert sigma.woodbury and sigma.values.shape == grads.shape
    nu = delta_variance(GradientDelta(v), sigma)
    ref = refined_nu(grads, reg, v)
    assert nu >= 0.0
    assert abs(nu - ref) <= WOODBURY_SLACK * np.finfo(float).eps * bound * ref


@given(st.integers(2, 150), st.integers(0, 2**16))
@example(65, 0).via("one halving of the factor")
def test_invert_of_a_matrix_with_negative_zeros_keeps_every_bit(d, seed):
    """A block-diagonal SPD matrix whose off-block zeros are -0.0: the
    ridge turns them into +0.0 as adding reg * I did, and the argument
    keeps its bytes."""
    rng = np.random.default_rng(seed)
    split = int(rng.integers(1, d))
    m = np.full((d, d), -0.0)
    for block in (slice(0, split), slice(split, d)):
        a = rng.standard_normal((d, block.stop - block.start))
        m[block, block] = a.T @ a + np.eye(block.stop - block.start)
    before = m.tobytes()
    for reg in (0.0, 0.25):
        est = CovarianceEstimate(kind="fisher-full", values=m, n_points=1)
        assert same_bits(invert(est, reg=reg).values,
                         out_of_place_inverse(m, reg))
    assert m.tobytes() == before


# ---------------------------------------------------------------------------
# loss curvature and the adversarial retraining
# ---------------------------------------------------------------------------

@st.composite
def curvature_problems(draw):
    """A model of any kind (mlp of random widths, depth and d_out) with
    seeded parameters and a small dataset it can score."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n, d_in = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    d_out = draw(st.integers(1, 3)) if kind in ("mlp", "linear-regression") \
        else 1
    x = rng.uniform(-1.5, 1.5, size=(n, d_in))
    if kind == "mlp":
        hidden = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                     max_size=3)))
        model = make_model("mlp", d_in=d_in, d_out=d_out, hidden=hidden,
                           seed=seed)
    else:
        model = make_model(kind, d_in=d_in, d_out=d_out)
        model = model.with_params(
            [rng.uniform(0.05, 0.95)] if kind == "bernoulli-rate"
            else rng.standard_normal(model.params.dim))
    y = (rng.standard_normal((n, d_out)) if kind in ("mlp", "linear-regression")
         else rng.random((n, 1)) < 0.5)
    return model, Dataset(x, y)


@given(curvature_problems())
def test_loss_hessian_matches_central_differences(case):
    model, data = case
    h = loss_hessian(model, data).values
    assert np.array_equal(h, h.T)

    def total_nll_grad(theta):
        return -loglik_grad_batch(model.with_params(theta), data.inputs,
                                  data.targets).sum(axis=0)

    fd = central_diff_hessian(total_nll_grad, model.params.data)
    assert np.max(np.abs(h - fd)) <= 1e-6 * max(1.0, np.max(np.abs(h)))


@given(st.data())
def test_adversarial_offset_retraining_reaches_grad_tol(data):
    kind = data.draw(st.sampled_from(("logistic", "bernoulli-rate")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n = data.draw(st.integers(20, 80))
    if kind == "logistic":
        d = data.draw(st.integers(1, 3))
        x = rng.standard_normal((n, d))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ rng.standard_normal(d))))
        # each unit vector with both labels rules out separable data
        x = np.vstack([x, np.eye(d), np.eye(d)])
        y = np.concatenate([y, np.ones(d), np.zeros(d)])
        z = rng.standard_normal(d)
    else:
        d, k = 1, data.draw(st.integers(1, n - 1))
        x, y, z = np.zeros((n, 1)), (np.arange(n) < k) * 1.0, np.zeros(1)
    problem = Dataset(x, y)
    model = train(make_model(kind, d_in=d), problem)
    u = make_qoi("power", model, exponent=data.draw(st.sampled_from((1, 2))))
    eps = data.draw(st.sampled_from((1e-4, 1e-3, 1e-2)))
    offset = data.draw(st.floats(-1.0, 1.0))
    base, _ = qoi_value_and_delta(u, z)
    theta = _augmented_descent(model, problem, u, z, base + offset, eps)
    bound = make_qoi("power", model.with_params(theta), **u.config)
    value, delta = qoi_value_and_delta(bound, z)
    grad = (-problem.n * mean_loglik_grad(bound.model, problem.inputs,
                                          problem.targets)
            + eps * (value - base - offset) * delta.vector)
    assert float(np.linalg.norm(grad)) <= 1e-10
    report = adversarial_shift(model, problem, u, z, eps=eps, mode="offset",
                               delta=offset)
    assert report.estimate == abs(value - base)


def nonseparable_logistic(rng, n, d):
    """A logistic problem with each unit vector under both labels, so the
    maximum-likelihood fit is finite."""
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ rng.standard_normal(d))))
    x = np.vstack([x, np.eye(d), np.eye(d)])
    y = np.concatenate([y, np.ones(d), np.zeros(d)])
    return Dataset(x, y)


@given(st.data())
def test_newton_eps_loo_matches_train_retrains(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    problem = nonseparable_logistic(rng, data.draw(st.integers(15, 60)),
                                      data.draw(st.integers(1, 3)))
    cfg = TrainConfig(steps=20000, grad_tol=1e-12)
    model = train(make_model("logistic", d_in=problem.d_in), problem, cfg)
    eps = data.draw(st.sampled_from((1e-3, 1e-2, 0.5, 1.0)))
    thetas, _ = _downweighted_thetas(model, problem, eps, cfg)
    for i in data.draw(st.lists(st.integers(0, problem.n - 1), min_size=1,
                                max_size=3, unique=True)):
        weights = np.ones(problem.n)
        weights[i] = 1.0 - eps
        ref = train(model, problem, replace(cfg, example_weights=weights))
        gap = np.linalg.norm(thetas[i] - ref.params.data)
        assert gap <= 1e-9 * np.linalg.norm(ref.params.data)


@st.composite
def laplace_problems(draw):
    """Absolute errors and per-column variances for the Laplace fits: random
    scales, some or all columns identically zero, and errors explained
    entirely by the variances (an optimum with alpha -> 0) or by alpha."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(2, 120))
    k = draw(st.integers(1, 3))
    columns = rng.exponential(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, k)
    zeroed = draw(st.sampled_from(("none", "some", "all")))
    if zeroed != "none":
        columns[:, (rng.random(k) < 0.5) | (zeroed == "all")] = 0.0
    alpha = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    truth = alpha + columns @ rng.exponential(size=k)
    if not np.all(truth > 0.0):
        truth = truth + 1.0
    errors = np.abs(rng.laplace(scale=np.sqrt(truth / 2.0)))
    return errors, columns


@given(laplace_problems(), st.data())
def test_laplace_objective_derivatives_match_central_differences(case, data):
    errors, columns = case
    x = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(
        -2.0, 2.0, columns.shape[1] + 1)
    columns = np.column_stack([columns, np.ones(errors.size)])
    offset = data.draw(st.sampled_from((0.0, 0.5)))

    def single(t):  # the objective of this one problem, a stack of one
        return [a[0] for a in laplace_scale_nll(errors[None], columns[None],
                                                t[None], offset)]

    value, grad, hess = single(x)
    calib = LaplaceCalibration(alpha=offset + math.exp(x[-1]), beta=1.0)
    nu = columns[:, :-1] @ np.exp(x[:-1])
    assert value == pytest.approx(
        -laplace_loglik(errors, np.zeros_like(errors), nu, calib), rel=1e-12)

    def value_at(t):
        return single(t)[0]

    def grad_at(t):
        return single(t)[1]

    scale = max(1.0, float(np.max(np.abs(hess))))
    assert np.max(np.abs(grad - central_diff_grad(value_at, x))) <= 1e-6 * scale
    assert np.max(np.abs(hess - central_diff_hessian(grad_at, x))) <= 1e-6 * scale


@given(laplace_problems())
def test_calibration_never_ends_below_its_start(case):
    errors, columns = case
    nu = columns[:, 0]
    alpha0 = max(2.0 * float(errors.mean()) ** 2, 1e-12)
    beta0 = 1e-6 * alpha0 / (float(nu.mean()) + 1e-30)
    zeros = np.zeros_like(errors)
    start = laplace_loglik(errors, zeros, nu, LaplaceCalibration(alpha0, beta0))
    [fit] = fit_laplace_calibration([errors], [zeros], [nu])
    # boundary optima (alpha -> 0) included: a few Newton iterations
    assert fit.converged and fit.iterations <= 30
    # alpha and beta round-trip through log space
    assert laplace_loglik(errors, zeros, nu, fit) >= start - 1e-12 * abs(start)


def _same_bits(stacked, r, alone) -> bool:
    """Row r of a stacked NewtonStack against a lone problem's result."""
    return (stacked.x[r].tobytes() == np.asarray(alone.x).tobytes()
            and stacked.value[r].tobytes() == np.float64(alone.value).tobytes()
            and stacked.iterations[r] == alone.iterations
            and stacked.converged[r] == alone.converged)


@st.composite
def calibration_stacks(draw):
    """Absolute errors and variances (K, n) of a stack of Laplace
    calibrations in random order: scales over eight decades, rows whose
    errors the variances explain entirely (an optimum at alpha -> 0, at
    infinity in log space) and one row of zero variances, whose beta column
    vanishes and whose first step matrix is singular (it needs a ridge)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(2, 60))
    k = draw(st.integers(2, 7))
    nus = rng.exponential(size=(k, n)) * 10.0 ** rng.uniform(-4, 4, (k, 1))
    alpha = rng.choice([0.0, 1e-3, 1.0], size=(k, 1))
    nus[0], alpha[0] = 0.0, 1.0
    truth = alpha + nus * rng.exponential(size=(k, 1))
    errors = np.abs(rng.laplace(scale=np.sqrt(truth / 2.0)))
    order = rng.permutation(k)
    return errors[order], nus[order], int(np.argmin(order))


@given(calibration_stacks())
def test_a_stacked_calibration_row_is_solved_as_if_alone(case):
    errors, nus, zero_row = case
    columns = np.stack([np.ones_like(nus), nus], axis=2)
    alpha0 = np.maximum(2.0 * errors.mean(axis=1) ** 2, 1e-12)
    x0 = np.column_stack([np.log(alpha0), np.log(
        1e-6 * alpha0 / (nus.mean(axis=1) + 1e-30))])

    def evaluate(x, rows):
        return laplace_scale_nll(errors[rows], columns[rows], x)

    with pytest.raises(np.linalg.LinAlgError):  # that row needs the ridge
        np.linalg.cholesky(evaluate(x0[[zero_row]], [zero_row])[2])
    stacked = damped_newton(evaluate, x0, 300, rel_tol=1e-10)
    fits = fit_laplace_calibration(errors, np.zeros_like(errors), nus)
    for r in range(len(errors)):
        alone = newton(one_of(evaluate, r), x0[r], 300, rel_tol=1e-10)
        assert _same_bits(stacked, r, alone)
        assert [fits[r]] == fit_laplace_calibration(
            errors[[r]], 0.0 * errors[[r]], nus[[r]])


@given(st.data())
def test_a_stacked_eps_loo_retrain_is_solved_as_if_alone(data):
    """Logistic and mlp retrains; the mlp rows share one stacked forward
    and backward pass."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    if data.draw(st.sampled_from(("logistic", "mlp"))) == "logistic":
        problem = nonseparable_logistic(rng, data.draw(st.integers(10, 40)),
                                        data.draw(st.integers(1, 3)))
        model = train(make_model("logistic", d_in=problem.d_in), problem,
                      TrainConfig(steps=2000, grad_tol=1e-12))
        cfg = TrainConfig(steps=2000, grad_tol=1e-12)
    else:
        n, d_in = data.draw(st.integers(6, 24)), data.draw(st.integers(1, 2))
        problem = Dataset(rng.standard_normal((n, d_in)),
                          rng.standard_normal((n, 1)))
        model = train(make_model("mlp", d_in=d_in, hidden=(3,),
                                 seed=int(rng.integers(100))), problem,
                      TrainConfig(steps=60, polish_steps=10))
        cfg = TrainConfig(steps=25, grad_tol=1e-12)
    eps = data.draw(st.sampled_from((1e-2, 0.5, 1.0)))
    hess = nll_hessian(model, problem.inputs, problem.targets)
    evaluate = _retrain_stack(model, problem, eps, hess, np.arange(problem.n))
    # two or more rows, so that the retrains share each evaluate call
    sub = np.array(data.draw(st.lists(st.integers(0, problem.n - 1),
                                      min_size=2, max_size=6, unique=True)))
    stacked = damped_newton(lambda x, rows: evaluate(x, sub[rows]),
                            np.tile(model.params.data, (sub.size, 1)),
                            cfg.steps, grad_tol=cfg.grad_tol)
    every, _ = _downweighted_thetas(model, problem, eps, cfg)
    for r, i in enumerate(sub):
        alone = newton(one_of(evaluate, i), model.params.data, cfg.steps,
                       grad_tol=cfg.grad_tol)
        assert _same_bits(stacked, r, alone)
        assert every[i].tobytes() == alone.x.tobytes()


@given(st.sampled_from(MODEL_KINDS), st.integers(0, 2**16))
def test_a_stacked_objective_row_is_solved_as_if_alone(kind, seed):
    """Row r of _stacked_loss_and_grad equals a stack of row r alone, byte
    for byte, for every kind; for the mlp (one stacked forward and backward
    pass) and the bernoulli rate (row by row) it also equals _loss_and_grad
    of that row. The logistic and linear closed forms sum in another order
    than _loss_and_grad. A row outside the domain reads +inf."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 40)), int(rng.integers(1, 9))
    d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    hidden = tuple(int(h) for h in rng.integers(1, 33, rng.integers(0, 3)))
    if kind in ("bernoulli-rate", "logistic"):
        d_out = 1
    model = make_model(kind, d_in=d_in, d_out=d_out, hidden=hidden,
                       seed=seed)
    continuous = kind in ("mlp", "linear-regression")
    targets = (rng.standard_normal((n, d_out)) if continuous
               else (rng.random((n, 1)) < 0.5) * 1.0)
    problem = Dataset(rng.standard_normal((n, d_in)), targets)
    weights = rng.uniform(0.0, 2.0, (k, n)) * (rng.random((k, n)) < 0.7)
    weights[:, 0] = 1.0  # every row a positive total
    thetas = (rng.uniform(0.05, 0.95, (k, 1)) if kind == "bernoulli-rate"
              else model.params.data
              + 0.3 * rng.standard_normal((k, model.params.dim)))
    if rng.random() < 0.3:
        thetas[int(rng.integers(k)), 0] = math.inf
    values, grads = _stacked_loss_and_grad(model, problem, weights, thetas)
    for r in range(k):
        value, grad = _stacked_loss_and_grad(model, problem, weights[r:r + 1],
                                             thetas[r:r + 1])
        assert value.tobytes() == values[r:r + 1].tobytes()
        if math.isfinite(value[0]):
            assert grad.tobytes() == grads[r:r + 1].tobytes()
        if kind in ("mlp", "bernoulli-rate"):
            value, grad = _loss_and_grad(model, problem, weights[r],
                                         float(np.einsum("n->", weights[r])),
                                         thetas[r])
            assert np.float64(value).tobytes() == values[r].tobytes()
            if math.isfinite(value):
                assert grad.tobytes() == grads[r].tobytes()


def _stack_templates(k: int, mode: str, problem: Dataset, hidden,
                     seed: int):
    """The members' templates, data sets and seeds, derived from the
    ensemble's seed as train_ensemble derives them."""
    children = np.random.SeedSequence(seed).spawn(k)
    seeds = [int(child.generate_state(1)[0]) for child in children]
    templates = [make_model("mlp", d_in=problem.d_in, d_out=problem.d_out,
                            hidden=hidden, seed=s) for s in seeds]
    datas = [problem] * k
    if mode == "bootstrap-resample":
        rows = [np.random.default_rng(child).integers(0, problem.n, problem.n)
                for child in children]
        datas = [Dataset(problem.inputs[i], problem.targets[i]) for i in rows]
    return templates, datas, seeds


def _same_training(a, b) -> bool:
    return (a.params.data.tobytes() == b.params.data.tobytes()
            and a.diagnostics["steps"] == b.diagnostics["steps"]
            and np.float64(a.diagnostics["final_loss"]).tobytes()
            == np.float64(b.diagnostics["final_loss"]).tobytes()
            and a.diagnostics["final_grad_norm"]
            == b.diagnostics["final_grad_norm"]
            and a.diagnostics["converged"] == b.diagnostics["converged"])


@given(st.data())
def test_an_ensemble_member_trained_in_lockstep_is_trained_as_if_alone(data):
    """train_ensemble runs its mlp members' SGD as one stack; each member
    equals the same member trained alone by train(), bit for bit, in both
    modes and with zero example weights, whatever the stack's size."""
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2, 6))
    mode = data.draw(st.sampled_from(ENSEMBLE_MODES))
    n = data.draw(st.integers(3, 60))
    d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    hidden = tuple(data.draw(st.lists(st.integers(1, 12), max_size=2)))
    problem = Dataset(rng.standard_normal((n, d_in)),
                      np.tanh(rng.standard_normal((n, d_out))))
    weights = None
    if data.draw(st.booleans()):  # zero weights: all-zero batches happen
        weights = (rng.random(n) < 0.4) * rng.uniform(0.5, 1.5, n)
        weights[int(rng.integers(n))] = 1.0
    cfg = TrainConfig(steps=data.draw(st.integers(0, 120)),
                      batch=data.draw(st.integers(1, n + 4)),
                      polish_steps=data.draw(st.integers(0, 12)),
                      example_weights=weights)
    template = make_model("mlp", d_in=d_in, d_out=d_out, hidden=hidden)
    ens = train_ensemble(template, problem, k=k, mode=mode, seed=seed,
                         train_cfg=cfg)
    templates, datas, seeds = _stack_templates(k, mode, problem, hidden,
                                               seed)
    assert list(ens.seeds) == seeds
    for member, tmpl, member_data, member_seed in zip(ens.members, templates,
                                                      datas, seeds):
        alone = train(tmpl, member_data, replace(cfg, seed=member_seed))
        assert _same_training(member, alone)


@pytest.mark.parametrize("name", ["mlp", "mlp-weighted"])
def test_a_stack_of_one_reproduces_the_pinned_mlp_training(name):
    model, data, cfg = _pinned_training_cases()[name]
    trained, = _train_stack([model], [data], cfg, [cfg.seed])
    digest = hashlib.sha256(trained.params.data.tobytes()).hexdigest()
    assert digest == PINNED_TRAINING[name]


def convex_training_problem(kind: str, seed: int):
    """A model with its starting parameters, a data set and example
    weights. A bernoulli rate starts in (0.3, 0.95) with outcomes mostly
    1, so its first full Newton step leaves the domain in about one draw in
    five."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    weights = rng.choice([1.0, rng.exponential()], size=n)
    if kind == "bernoulli-rate":
        y = (rng.random(n) < rng.uniform(0.8, 1.0)).astype(float)
        y[:2] = 1.0, 0.0  # never all alike: that rate is set, not solved
        model = make_model(kind).with_params([rng.uniform(0.3, 0.95)])
        return model, Dataset(np.zeros((n, 1)), y), weights
    d = int(rng.integers(1, 4))
    if kind == "logistic":
        data = nonseparable_logistic(rng, n, d)
        weights = np.concatenate([weights, np.ones(2 * d)])
    else:
        x = rng.standard_normal((n + d, d))
        data = Dataset(x, x @ rng.standard_normal(d)
                       + rng.standard_normal(n + d))
        weights = np.concatenate([weights, np.ones(d)])
    model = make_model(kind, d_in=d).with_params(rng.standard_normal(d))
    return model, data, weights


@given(st.sampled_from(("bernoulli-rate", "logistic", "linear-regression")),
       st.integers(0, 2**16))
@example("bernoulli-rate", 1)  # its first full step leaves (0, 1)
def test_training_a_convex_model_is_the_scalar_newton_loop(kind, seed):
    """train() solves one problem as a stack of one; the scalar reference
    on the same objective gives the same bits, with a point outside the
    domain (+inf and a NaN gradient) rejected as a trial."""
    model, data, weights = convex_training_problem(kind, seed)
    wsum = float(np.einsum("n->", weights))
    outside = []

    def objective(theta):
        value, grad = _loss_and_grad(model, data, weights, wsum, theta)
        if not math.isfinite(value):
            outside.append(theta)
            assert np.isnan(grad).all()
            return value, grad, np.full((theta.size,) * 2, math.nan)
        return value, grad, nll_hessian(model.with_params(theta), data.inputs,
                                        data.targets, weights) / wsum

    fitted = train(model, data, TrainConfig(steps=200,
                                            example_weights=weights))
    reference = newton(objective, model.params.data, 200, grad_tol=1e-10)
    diag = fitted.diagnostics
    assert fitted.params.data.tobytes() == reference.x.tobytes()
    assert np.float64(diag["final_loss"]).tobytes() == \
        np.float64(reference.value).tobytes()
    assert diag["steps"] == reference.iterations
    assert diag["final_grad_norm"] == reference.grad_norm
    assert diag["converged"] == (reference.grad_norm <= 1e-6)
    if kind == "bernoulli-rate":  # where the first full step lands
        rate = model.params.data[0]
        _, grad, matrix = objective(model.params.data)
        if not 0.0 < rate - grad[0] / matrix[0, 0] < 1.0:
            assert outside


@given(laplace_problems())
def test_a_correlation_finetune_is_the_scalar_newton_loop(case):
    errors, columns = case
    assume(errors.size >= columns.shape[1] and np.ptp(errors) > 0.0
           and np.ptp(np.sqrt(columns.sum(axis=1))) > 0.0)
    names = [f"b{j}" for j in range(columns.shape[1])]
    scales = finetune_scales(columns, names, errors, objective="correlation")
    objective = one_of(lambda x, rows: _neg_correlation(
        errors, columns, x[0], CORRELATION_PENALTY), 0)
    start = np.zeros(len(names))
    reference = newton(objective, start, 500, rel_tol=1e-10)
    # a fit that ends above its start (a step accepted by gradient norm)
    # keeps the start
    end = reference.x if reference.value <= objective(start)[0] else start
    assert scales.log_scales.tobytes() == end.tobytes()
    assert scales.steps_taken == reference.iterations
    assert scales.converged == reference.converged
    plain = _neg_correlation(errors, columns, end)[0][0]
    assert scales.objective_value == -plain


@given(laplace_problems(), st.sampled_from(("loglik", "correlation")))
def test_finetune_never_ends_below_its_start(case, objective):
    errors, columns = case
    assume(errors.size >= columns.shape[1])
    if objective == "correlation":
        assume(np.ptp(errors) > 0.0 and np.ptp(np.sqrt(columns.sum(axis=1))) > 0.0)
    names = [f"b{j}" for j in range(columns.shape[1])]
    scales = finetune_scales(columns, names, errors, objective=objective)
    assert scales.objective_value >= scales.objective_at_init
    assert scales.steps_taken <= 500
    if objective == "loglik":  # exact Hessian: a few Newton iterations
        assert scales.converged and scales.steps_taken <= 30
    assert all(v >= 0.0 for v in scales.as_dict().values())


@given(st.data())
def test_quantity_ids_round_trip_through_the_parser(data):
    kind = data.draw(st.sampled_from(("power", "set-product", "rollout")))
    if kind == "rollout":
        model = make_model("mlp", d_in=3, d_out=3, hidden=(4,))
        functional = data.draw(st.sampled_from(ROLLOUT_FUNCTIONALS))
        horizon = data.draw(st.integers(1, 6))
        config = {"functional": functional, "horizon": horizon,
                  "component": data.draw(st.integers(0, 2)),
                  "window": data.draw(st.integers(1, horizon)),
                  "exponent": data.draw(st.floats(-5.0, 5.0,
                                                  allow_subnormal=False))}
    else:
        model = make_model("logistic", d_in=2)
        config = ({"exponent": data.draw(st.floats(-1e6, 1e6))}
                  if kind == "power" else {})
    u = make_qoi(kind, model, **config)
    again = parse_qoi(u.qoi_id, model)
    assert again.qoi_id == u.qoi_id
    assert again.kind == u.kind and dict(again.config) == dict(u.config)


@given(st.data())
def test_gradient_from_the_objective_forward_equals_mean_loglik_grad(data):
    """Training builds the mlp gradient from the forward pass its loss ran
    at the same parameters; the bytes equal a fresh -mean_loglik_grad.
    The weight-gradient einsum puts the wider factor last, and both operand
    orders give the same bytes on every layer input."""
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    hidden = tuple(data.draw(st.lists(st.integers(1, 30), max_size=3)))
    d_in, d_out = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 300))
    model = make_model("mlp", d_in=d_in, d_out=d_out, hidden=hidden,
                       seed=seed)
    theta = model.params.data + 0.3 * rng.standard_normal(model.params.dim)
    problem = Dataset(rng.standard_normal((n, d_in)),
                      rng.standard_normal((n, d_out)))
    weighting = data.draw(st.sampled_from(("ones", "uniform", "sparse")))
    weights = (np.ones(n) if weighting == "ones"
               else rng.uniform(0.0, 2.0, n) if weighting == "uniform"
               else (rng.random(n) < 0.3) * rng.uniform(0.5, 1.5, n))
    weights[rng.integers(n)] = 1.0  # a positive total
    wsum = float(np.einsum("n->", weights))
    value, reused = _loss_and_grad(model, problem, weights, wsum, theta)
    assert math.isfinite(value)
    fresh = mean_loglik_grad(model, problem.inputs, problem.targets, weights,
                             theta=theta)
    assert reused.tobytes() == (-fresh).tobytes()
    _, h_ins, _ = _mlp_forward_cache(model, problem.inputs, theta)
    for h_in in h_ins:
        g = rng.standard_normal((n, data.draw(st.integers(1, 30))))
        wide_last = np.einsum("nj,ni->ji", g, h_in).T
        assert (np.einsum("ni,nj->ij", h_in, g).tobytes()
                == np.ascontiguousarray(wide_last).tobytes())


# ---------------------------------------------------------------------------
# finiteness checks
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40), st.data())
def test_a_non_finite_entry_is_refused_at_any_position(values, data):
    """GradientDelta and as_float_array refuse a NaN, +inf or -inf wherever
    it sits, and accept the same vector with every entry finite. A gradient
    must also be a nonempty vector: the same values as a row, a column or
    an empty slice are refused."""
    vec = np.array(values)
    GradientDelta(vec)
    as_float_array(values)
    for bad in (vec[None, :], vec[:, None], vec[:0]):
        with pytest.raises(StructuralError):
            GradientDelta(bad)
    at = data.draw(st.integers(0, len(values) - 1))
    values[at] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    with pytest.raises(NumericalError):
        GradientDelta(np.array(values))
    with pytest.raises(ValueError):
        as_float_array(values)


@given(st.lists(st.sampled_from((1.7e308, -1.7e308)), min_size=2,
                max_size=40))
def test_finite_entries_whose_sum_overflows_are_accepted(values):
    """The checks test each entry, not a sum: vectors of +-1.7e308 whose sum
    overflows are finite and pass unchanged."""
    vec = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        assume(not np.isfinite(vec.sum()))
    assert GradientDelta(vec).vector.tobytes() == vec.tobytes()
    assert as_float_array(values).tobytes() == vec.tobytes()


# ---------------------------------------------------------------------------
# the command line contract
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory) -> Path:
    """A trained bernoulli model directory and its saved covariance."""
    root = tmp_path_factory.mktemp("cli-contract")
    with redirect_stdout(io.StringIO()):
        assert cli_main(["train", "--set", "model.kind=bernoulli-rate",
                         "--set", "data.kind=survival", "--set", "data.n=40",
                         "--out", str(root / "model")]) == 0
        assert cli_main(["sigma", "--model", str(root / "model"),
                         "--kind", "fisher-full", "--out",
                         str(root / "sigma")]) == 0
    return root


def _corrupt(data, raw: bytes) -> bytes:
    """raw truncated, with one byte changed, or emptied."""
    how = data.draw(st.sampled_from(("truncate", "flip", "empty")))
    if how == "empty":
        return b""
    at = data.draw(st.integers(0, len(raw) - 1))
    if how == "truncate":
        return raw[:at]
    return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) \
        + raw[at + 1:]


TRAIN_BASES = (
    ("model.kind=bernoulli-rate", "data.kind=survival", "data.n=60"),
    ("model.kind=logistic", "data.kind=survival", "data.n=60"),
    ("model.kind=mlp", "model.d_in=3", "model.d_out=3", "model.hidden=[3]",
     "data.kind=dynamics", "data.n=100"))
TRAIN_SETS = ("model.kind=bernoulli-rate", "model.kind=logistic",
              "model.kind=mlp", "model.kind=frobnicate", "model.hidden=[3]",
              "model.hidden=three", "model.d_in=3", "model.d_out=3",
              "model.d_in=-1", "model.bogus=1", "data.kind=survival",
              "data.kind=dynamics", "data.kind=file", "data.kind=weather",
              "data.n=100", "data.n=105", "data.n=-3", "data.n=many",
              "data.rate=0.5", "data.rate=2", "train.steps=0",
              "train.steps=3", "train.steps=-1", "train.steps=many",
              "train.steps=null", "train.learning_rate=1e9",
              "train.learning_rate=fast", "train.batch=0", "train.batch=-4",
              "train.polish_steps=0", "train.bogus=1",
              "data=5", "data.kind.deeper=1", "noequals", "=1")


@given(st.data())
def test_cli_runs_exit_0_1_or_2_and_leave_no_partial_directory(cli_files,
                                                               data):
    """Random subcommands with valid and invalid --set values, flags and
    corrupt model, data or covariance files: every run exits 0, 1 or 2
    without a traceback, no ".partial" staging directory survives, and a
    failed run creates no output directory."""
    command = data.draw(st.sampled_from(("train", "sigma", "deltavar",
                                         "oracle", "bench")))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model_dir, sigma_file = root / "model", root / "sigma.bin"
        model_dir.mkdir()
        files = {model_dir / "model.json": cli_files / "model" / "model.json",
                 model_dir / "data.npz": cli_files / "model" / "data.npz",
                 sigma_file: cli_files / "sigma" / "sigma.bin"}
        broken = data.draw(st.sampled_from((None, *files)))
        for target, source in files.items():
            raw = source.read_bytes()
            target.write_bytes(_corrupt(data, raw) if target == broken else raw)
        out = root / "out"
        argv = [command]
        if command == "train":
            sets = [*data.draw(st.sampled_from(TRAIN_BASES)),
                    *data.draw(st.lists(st.sampled_from(TRAIN_SETS),
                                        max_size=2)),
                    # every run trains for a few steps at most
                    data.draw(st.sampled_from(("train.steps=5",
                                               "train.steps=many",
                                               "train.steps=-2")))]
            argv += [arg for s in sets for arg in ("--set", s)]
        elif command == "bench":
            argv += ["--set", data.draw(st.sampled_from(
                ("scenario=eigen", "scenario=weather", "scenario=7")))]
            argv += ["--set", data.draw(st.sampled_from(
                ("params.mc_samples=300", "params.mc_samples=1",
                 "params.mc_samples=lots", "params.perturb_var=0",
                 "params.masses=5", "params.bogus=1", "params=[]")))]
        else:
            argv += ["--model", str(data.draw(st.sampled_from(
                (model_dir, root / "missing"))))]
        if command == "sigma":
            argv += ["--kind", data.draw(st.sampled_from(
                ("fisher-diag", "hessian", "sandwich", "frobnicate"))),
                "--reg", data.draw(st.sampled_from(("0", "1e-3", "-1",
                                                    "nan", "x")))]
        if command in ("deltavar", "oracle"):
            # half the draws are the valid quantity and input
            argv += ["--qoi", data.draw(st.just("power2") | st.sampled_from(
                ("power:exponent=2.5", "set-product", "power:exponent=ten",
                 "rollout:horizon=2"))),
                "--input", data.draw(st.just("0.9") | st.sampled_from(
                    ("0.2,0.3", "abc", "nan", "")))]
        if command == "deltavar":
            argv += ["--sigma", data.draw(st.sampled_from(
                ("fisher-diag", "fisher-full", str(sigma_file), "frobnicate")))]
        if command == "oracle":
            argv += ["--kind", data.draw(st.sampled_from(
                ("mahalanobis", "posterior-mc", "eps-loo", "frobnicate")))]
            option = data.draw(st.none() | st.sampled_from(
                ("samples=500", "samples=-5", "samples=some", "max_points=4",
                 "eps=0.01", "eps=nan", "bogus=1")))
            argv += [] if option is None else ["--set", option]
        if command in ("train", "sigma", "bench"):
            argv += ["--out", str(out)]
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        assert not list(root.rglob("*.partial")), argv
        if code != 0:
            assert not out.exists(), argv
