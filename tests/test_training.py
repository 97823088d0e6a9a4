"""Optimization loop: reverse-mode gradients against finite differences,
the adaptive-moment update rule, early stopping, evaluation metrics, and
the allocator thresholds that keep training steps from faulting."""

import csv
import dataclasses
import json
import resource
import sys
import warnings

import numpy as np
import pytest

import spectemp
from spectemp import autodiff as ad
from spectemp import cli
from spectemp import dataio
from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp import training as tr
from spectemp.dataio import WindowSet
from spectemp.errors import ConfigError, DataError, NumericalError, ParameterError

TRIANGLE = np.array([[0.0, 1.0, 1.0],
                     [1.0, 0.0, 1.0],
                     [1.0, 1.0, 0.0]])


def tiny_config(**overrides):
    base = dict(lookback=8, horizon=2, n_dims=1, blocks=1, degree=2,
                n_modes=3, decomp_window=3, adjacency_mode="provided")
    return mc.ModelConfig(**{**base, **overrides})


def tiny_state(config, seed=0, n=3):
    return mc.init_state(config, n, rng=seed, adjacency=TRIANGLE)


def random_windows(seed, count, n, t, h, d):
    rng = np.random.default_rng(seed)
    return WindowSet(inputs=rng.standard_normal((count, n, t, d)),
                     targets=rng.standard_normal((count, n, h, d)),
                     origins=np.arange(count))


# ---------------------------------------------------------------------------
# gradient correctness
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences_linear():
    config = tiny_config()
    state = tiny_state(config, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 8, 1))
    y = rng.standard_normal((4, 3, 2, 1))
    worst = tr.finite_difference_check(state, config, x, y)
    assert set(worst) == set(state.trainable())
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize("basis", [
    dict(basis="monomial"), dict(basis="bernstein"), dict(basis="chebyshev2"),
    dict(basis="gegenbauer", alpha=1.7), dict(basis="jacobi", jacobi_a=0.3, jacobi_b=-0.4),
], ids=lambda b: "-".join(str(v) for v in b.values()))
def test_gradients_match_finite_differences_every_basis(basis):
    config = tiny_config(n_dims=2, blocks=2, **basis)
    state = tiny_state(config, seed=9)
    rng = np.random.default_rng(10)
    # away from the identity, so every polynomial term and mode weight counts
    for name, value in state.params.items():
        state.params[name] = value + 0.1 * rng.standard_normal(value.shape)
    x = rng.standard_normal((4, 3, 8, 2))
    y = rng.standard_normal((4, 3, 2, 2))
    worst = tr.finite_difference_check(state, config, x, y)
    assert set(worst) == set(state.trainable())
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err}"


def test_gradients_match_finite_differences_nonlinear():
    config = tiny_config(variant="nonlinear")
    state = tiny_state(config, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 8, 1))
    y = rng.standard_normal((4, 3, 2, 1))
    worst = tr.finite_difference_check(state, config, x, y)
    assert any(name.endswith("attn_q") for name in worst)
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err}"


def test_gradients_match_finite_differences_learned_adjacency():
    config = tiny_config(adjacency_mode="learned", embed_dim=4)
    rng = np.random.default_rng(4)
    state = mc.init_state(config, 3, rng=4,
                          train_values=rng.standard_normal((3, 60, 1)))
    # the identity-scale embedding is tiny; grow it so the finite-difference
    # probe is not dominated by cancellation noise
    state.params["adjacency.embed"][:] = 0.5 * np.random.default_rng(5).standard_normal(
        state.params["adjacency.embed"].shape)
    x = rng.standard_normal((2, 3, 8, 1))
    y = rng.standard_normal((2, 3, 2, 1))
    worst = tr.finite_difference_check(state, config, x, y)
    assert worst["adjacency.embed"] < 1e-4


def test_gradients_return_loss_value():
    config = tiny_config()
    state = tiny_state(config, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3, 8, 1))
    y = rng.standard_normal((3, 3, 2, 1))
    grads, loss = tr.gradients(state, (x, y), config)
    assert loss == pytest.approx(mc.loss(mc.forward(x, state, config), y))
    assert set(grads) == set(state.trainable())


def test_gradients_with_every_parameter_frozen_return_only_the_loss():
    config = tiny_config()
    state = tiny_state(config, seed=6)
    state.frozen = frozenset(state.params)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3, 8, 1))
    y = rng.standard_normal((3, 3, 2, 1))
    grads, loss = tr.gradients(state, (x, y), config)
    assert grads == {}
    assert loss == mc.loss(mc.forward(x, state, config), y)


@pytest.mark.parametrize("overrides", [
    {}, {"variant": "nonlinear"}, {"adjacency_mode": "learned", "embed_dim": 4},
    {"variant": "nonlinear", "n_dims": 2},
], ids=["linear", "nonlinear", "learned", "attention"])
def test_gradients_share_no_memory(overrides):
    # the tape stores a parent's first gradient contribution as is, and that
    # can be a view another parent also holds
    config = tiny_config(**overrides)
    d = config.n_dims
    rng = np.random.default_rng(8)
    state = mc.init_state(config, 3, rng=8, adjacency=TRIANGLE,
                          train_values=rng.standard_normal((3, 60, d)))
    x = rng.standard_normal((4, 3, 8, d))
    y = rng.standard_normal((4, 3, 2, d))
    grads, _ = tr.gradients(state, (x, y), config)
    arrays = list(grads.values())
    for i, grad in enumerate(arrays):
        for other in arrays[i + 1:] + list(state.params.values()):
            assert not np.shares_memory(grad, other)


# ---------------------------------------------------------------------------
# optimizer update rule
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_computed():
    config = tiny_config()
    state = tiny_state(config, seed=8)
    before = {k: v.copy() for k, v in state.params.items()}
    grads = {k: np.full_like(v, 0.25) for k, v in state.trainable().items()}
    moments = tr.AdamMoments.for_state(state)
    lr = 1e-2
    moments = tr.optimizer_step(state, grads, lr, moments)

    # with zero moments, bias correction makes the first update
    # lr * g / (|g| + eps * sqrt(1 - beta2))
    g = 0.25
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expected = lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    for name in grads:
        delta = before[name] - state.params[name]
        assert np.abs(delta - expected).max() < 1e-12
    assert moments.step == 1


def test_adam_first_step_magnitude_bounded_by_lr():
    config = tiny_config()
    state = tiny_state(config, seed=9)
    before = {k: v.copy() for k, v in state.params.items()}
    rng = np.random.default_rng(10)
    grads = {k: rng.standard_normal(v.shape) for k, v in state.trainable().items()}
    tr.optimizer_step(state, grads, 3e-3, tr.AdamMoments.for_state(state))
    for name in grads:
        step = np.abs(state.params[name] - before[name]).max()
        assert step <= 3e-3 * (1 + 1e-9)


def test_adam_zero_gradient_is_noop():
    config = tiny_config()
    state = tiny_state(config, seed=11)
    before = {k: v.copy() for k, v in state.params.items()}
    grads = {k: np.zeros_like(v) for k, v in state.trainable().items()}
    tr.optimizer_step(state, grads, 1e-2, tr.AdamMoments.for_state(state))
    for name, value in before.items():
        assert np.array_equal(state.params[name], value)


def test_adam_two_steps_track_moments():
    config = tiny_config()
    state = tiny_state(config, seed=12)
    name = "head.weight"
    g1 = np.full_like(state.params[name], 1.0)
    g2 = np.full_like(state.params[name], -0.5)
    zero = {k: np.zeros_like(v) for k, v in state.trainable().items()}
    p0 = state.params[name].copy()
    moments = tr.AdamMoments.for_state(state)
    moments = tr.optimizer_step(state, {**zero, name: g1}, 1e-2, moments)
    moments = tr.optimizer_step(state, {**zero, name: g2}, 1e-2, moments)

    m = 0.0
    v = 0.0
    p = p0.copy()
    for t, g in ((1, 1.0), (2, -0.5)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        p = p - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.abs(state.params[name] - p).max() < 1e-12
    assert moments.step == 2


def reference_optimizer_step(params, grads, lr, m, v, t, beta1=0.9, beta2=0.999,
                             eps=1e-8):
    """The per-array update loop ``optimizer_step`` replaced, kept as its
    oracle: rebinds each entry of ``params``, ``m`` and ``v``."""
    for name, grad in grads.items():
        m[name] = beta1 * m[name] + (1.0 - beta1) * grad
        v[name] = beta2 * v[name] + (1.0 - beta2) * grad * grad
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def race_state(**overrides):
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    bundle = ex.prepare_synth(task, 0)
    config = ex.task_model_config(task, **overrides)
    state = mc.init_state(config, task.n_nodes, rng=0, adjacency=bundle.adjacency)
    return state, config, bundle.train_windows


def test_flat_adam_is_bitwise_equal_to_the_per_array_loop():
    state, config, windows = race_state()
    lr = ex.RACE_PRESET["lr"]
    params = {k: v.copy() for k, v in state.trainable().items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    moments = tr.AdamMoments.for_state(state)
    for step in range(200):
        start = (64 * step) % (windows.count - 64)
        batch = (windows.inputs[start:start + 64], windows.targets[start:start + 64])
        grads, _ = tr.gradients(state, batch, config)
        moments = tr.optimizer_step(state, grads, lr, moments)
        reference_optimizer_step(params, grads, lr, m, v, step + 1)
    assert moments.step == 200
    for name, value in params.items():
        assert np.array_equal(state.params[name], value), name
        assert state.params[name] is moments.views[name]
        assert np.array_equal(moments.unflatten(moments.m)[name], m[name]), name
        assert np.array_equal(moments.unflatten(moments.v)[name], v[name]), name


def test_flat_vector_is_in_sorted_name_order_and_updates_in_place():
    config = tiny_config(blocks=2)
    state = tiny_state(config, seed=40)
    moments = tr.AdamMoments.for_state(state)
    assert moments.names == tuple(sorted(state.params))
    assert np.array_equal(moments.params,
                          np.concatenate([state.params[k].ravel() for k in moments.names]))
    held = dict(state.params)
    grads = {k: np.ones_like(p) for k, p in state.trainable().items()}
    tr.optimizer_step(state, grads, 1e-2, moments)
    assert all(state.params[k] is held[k] for k in held)
    assert all(np.shares_memory(state.params[k], moments.params) for k in held)


def test_frozen_parameter_stays_out_of_the_vector():
    task = ex.SynthTask()
    config = ex.task_model_config(task, blocks=1)
    state, _ = ex.low_pass_control_state(config, task.n_nodes, 0,
                                         adjacency=np.ones((8, 8)) - np.eye(8))
    frozen = state.params["block0.theta"]
    before = frozen.copy()
    moments = tr.AdamMoments.for_state(state)
    assert "block0.theta" not in moments.names
    assert moments.params.size == sum(v.size for v in state.trainable().values())
    grads = {k: np.ones_like(p) for k, p in state.params.items()}   # frozen included
    for _ in range(3):
        tr.optimizer_step(state, grads, 1e-2, moments)
    assert state.params["block0.theta"] is frozen
    assert np.array_equal(frozen, before)
    assert not np.shares_memory(frozen, moments.params)


def test_train_leaves_the_callers_arrays_unchanged():
    config = tiny_config()
    state = tiny_state(config, seed=41)
    held = dict(state.params)
    copies = {k: v.copy() for k, v in held.items()}
    tc = tr.TrainConfig(lr=1e-2, batch_size=4, epochs=3, seed=42)
    trained, run = tr.train(config, tc, random_windows(43, 12, 3, 8, 2, 1),
                            val_windows=random_windows(44, 6, 3, 8, 2, 1), state=state)
    for name, value in held.items():
        assert np.array_equal(value, copies[name]), name
        assert not np.shares_memory(trained.params[name], value)
    assert list(trained.params) == list(held)
    assert not np.array_equal(trained.params["head.weight"], copies["head.weight"])


def test_train_leaves_the_callers_params_bound_and_can_rerun():
    config = tiny_config()
    state = tiny_state(config, seed=41)
    held = dict(state.params)
    tc = tr.TrainConfig(lr=1e-2, batch_size=4, epochs=3, seed=42)
    windows = random_windows(43, 12, 3, 8, 2, 1), random_windows(44, 6, 3, 8, 2, 1)
    first, run1 = tr.train(config, tc, *windows, state=state)
    assert all(state.params[name] is value for name, value in held.items())
    assert list(state.params) == list(held)
    second, run2 = tr.train(config, tc, *windows, state=state)
    assert run1.epoch_losses == run2.epoch_losses and run1.val_mae == run2.val_mae
    for name, value in first.params.items():
        assert np.array_equal(value, second.params[name]), name


def test_optimizer_step_rejects_a_missing_gradient():
    config = tiny_config()
    state = tiny_state(config, seed=45)
    moments = tr.AdamMoments.for_state(state)
    before = moments.params.copy()
    grads = {k: np.ones_like(v) for k, v in state.trainable().items()}
    del grads["block0.fine_im"]
    with pytest.raises(ParameterError, match="'block0.fine_im'"):
        tr.optimizer_step(state, grads, 1e-2, moments)
    assert moments.step == 0
    assert np.array_equal(moments.params, before)


def test_optimizer_step_rejects_a_rebound_parameter():
    config = tiny_config()
    state = tiny_state(config, seed=46)
    moments = tr.AdamMoments.for_state(state)
    grads = {k: np.ones_like(v) for k, v in state.trainable().items()}
    state.params["head.weight"] = state.params["head.weight"] + 1.0
    with pytest.raises(ParameterError, match="'head.weight'"):
        tr.optimizer_step(state, grads, 1e-2, moments)
    assert moments.step == 0


def test_optimizer_step_names_the_first_parameter_an_update_leaves_non_finite():
    # lr * m_hat = 4e308 overflows on the first step; the update reports it
    # itself, not the next step's gradients, and without a RuntimeWarning
    config = tiny_config()
    state = tiny_state(config, seed=49)
    moments = tr.AdamMoments.for_state(state)
    grads = {k: np.full_like(v, 4.0) for k, v in state.trainable().items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"'{moments.names[0]}'"):
            tr.optimizer_step(state, grads, 1e308, moments)


# "a+b" poisons two trainable parameters: the first in state.trainable()
# order is named (block0.theta, though block0.fine_re sorts first)
@pytest.mark.parametrize("name", ["block0.theta", "block0.fine_re", "head.weight",
                                  "block0.fine_re+block0.theta"])
def test_gradients_name_the_parameter_that_makes_them_non_finite(name):
    config = tiny_config()
    state = tiny_state(config, seed=47)
    poisoned = name.split("+")
    # only the poisoned parameters are trainable, so only their gradients are computed
    state.frozen = frozenset(state.params).difference(poisoned)
    for each in poisoned:
        state.params[each].reshape(-1)[1] = np.nan
    first = next(each for each in state.trainable() if each in poisoned)
    rng = np.random.default_rng(48)
    batch = (rng.standard_normal((2, 3, 8, 1)), rng.standard_normal((2, 3, 2, 1)))
    with pytest.raises(NumericalError, match=f"'{first}'"):
        tr.gradients(state, batch, config)


def count_tape_work(monkeypatch):
    """Counts of ``_matmul`` and ``Tensor.__init__`` calls from now on."""
    counts = {"matmul": 0, "tensors": 0}
    matmul, init = ad._matmul, ad.Tensor.__init__

    def counted_matmul(*args):
        counts["matmul"] += 1
        return matmul(*args)

    def counted_init(self, *args, **kwargs):
        counts["tensors"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad, "_matmul", counted_matmul)
    monkeypatch.setattr(ad.Tensor, "__init__", counted_init)
    return counts


def race_step_counts(monkeypatch, **overrides):
    state, config, windows = race_state(**overrides)
    batch = (windows.inputs[:64], windows.targets[:64])
    tr.gradients(state, batch, config)          # builds the cached operators
    counts = count_tape_work(monkeypatch)
    tr.gradients(state, batch, config)
    return counts


def test_linear_race_step_tape_size(monkeypatch):
    # one contraction per temporal stage, and a tensor only for a value the
    # backward pass replays: at most 32 matmuls and 37 tape tensors per
    # linear race step
    counts = race_step_counts(monkeypatch)
    assert counts["matmul"] <= 32 and counts["tensors"] <= 37, counts


def test_nonlinear_race_step_tape_size(monkeypatch):
    # the attention scores and value mix run as broadcast products over
    # (batch, node) rows, not as matmuls
    counts = race_step_counts(monkeypatch, variant="nonlinear")
    assert counts["matmul"] <= 60 and counts["tensors"] <= 73, counts


@pytest.mark.parametrize("adjacency", ["provided", "learned"])
def test_attention_runs_its_named_ops_once_per_block(monkeypatch, adjacency):
    # the benchmark times attention by wrapping these names, so the model
    # must call them, once per block and pass
    state, config, windows = race_state(variant="nonlinear", adjacency_mode=adjacency)
    calls = {"node_scores": 0, "node_apply": 0, "softmax_last": 0}
    for name in calls:
        def counted(*args, op=getattr(ad, name), name=name):
            calls[name] += 1
            return op(*args)
        monkeypatch.setattr(ad, name, counted)
    softmax_per_pass = config.blocks + (adjacency == "learned")
    mc.forward(windows.inputs[:64], state, config)
    assert calls == {"node_scores": config.blocks, "node_apply": config.blocks,
                     "softmax_last": softmax_per_pass}, calls
    tr.gradients(state, (windows.inputs[:64], windows.targets[:64]), config)
    assert calls == {"node_scores": 2 * config.blocks, "node_apply": 2 * config.blocks,
                     "softmax_last": 2 * softmax_per_pass}, calls


def test_learned_adjacency_race_step_tape_size(monkeypatch):
    # the half-sum and the diagonal mask of the learned adjacency are one product
    counts = race_step_counts(monkeypatch, adjacency_mode="learned")
    assert counts["matmul"] <= 57 and counts["tensors"] <= 85, counts


@pytest.mark.parametrize("overrides", [{}, {"variant": "nonlinear"},
                                       {"adjacency_mode": "learned"},
                                       {"variant": "nonlinear", "adjacency_mode": "learned"}])
def test_inference_builds_no_tape(monkeypatch, overrides):
    state, config, windows = race_state(**overrides)
    held = WindowSet(windows.inputs[:256], windows.targets[:256], windows.origins[:256])
    counts = count_tape_work(monkeypatch)
    prediction = mc.forward(held.inputs, state, config)
    mc.loss(prediction, held.targets)
    mc.embed(held.inputs, state, config)
    mc.tggc_block(held.inputs[0], state, config, block=1)
    tr.evaluate(state, config, held)
    assert counts["tensors"] == 0 and counts["matmul"] > 0, counts


def test_nonpositive_learning_rate_rejected():
    config = tiny_config()
    state = tiny_state(config, seed=13)
    grads = {k: np.zeros_like(v) for k, v in state.trainable().items()}
    with pytest.raises(ConfigError):
        tr.optimizer_step(state, grads, 0.0, tr.AdamMoments.for_state(state))
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=0)
    for key, value in (("patience", -3), ("seed", -5), ("lr", np.nan), ("lr", np.inf)):
        with pytest.raises(ConfigError, match=f"train.{key}"):
            tr.TrainConfig(**{key: value})
    for lr in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="learning rate"):
            tr.optimizer_step(state, grads, lr, tr.AdamMoments.for_state(state))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_zero_model_reports_target_magnitudes():
    config = tiny_config()
    state = tiny_state(config, seed=14)
    state.params["head.weight"][:] = 0.0
    windows = random_windows(15, 6, 3, 8, 2, 1)
    scores = tr.evaluate(state, config, windows)
    assert scores["mae"] == pytest.approx(np.mean(np.abs(windows.targets)))
    assert scores["rmse"] == pytest.approx(
        np.sqrt(np.mean(windows.targets ** 2)))


def test_evaluate_rmse_dominates_mae():
    config = tiny_config()
    state = tiny_state(config, seed=16)
    windows = random_windows(17, 5, 3, 8, 2, 1)
    scores = tr.evaluate(state, config, windows)
    assert scores["rmse"] >= scores["mae"] > 0


def test_evaluate_empty_set_rejected():
    config = tiny_config()
    state = tiny_state(config, seed=18)
    empty = WindowSet(inputs=np.zeros((0, 3, 8, 1)),
                      targets=np.zeros((0, 3, 2, 1)),
                      origins=np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        tr.evaluate(state, config, empty)


def test_evaluate_chunking_consistent():
    config = tiny_config()
    state = tiny_state(config, seed=19)
    windows = random_windows(20, 9, 3, 8, 2, 1)
    a = tr.evaluate(state, config, windows, chunk=2)
    b = tr.evaluate(state, config, windows, chunk=256)
    assert a["mae"] == pytest.approx(b["mae"])
    assert a["rmse"] == pytest.approx(b["rmse"])


@pytest.mark.parametrize("chunk", [0, -2])
def test_predict_and_evaluate_reject_a_chunk_below_one(monkeypatch, chunk):
    config = tiny_config()
    state = tiny_state(config, seed=21)
    windows = random_windows(22, 5, 3, 8, 2, 1)
    forwards = []
    monkeypatch.setattr(mc, "forward", lambda *args: forwards.append(args))
    for run in (tr.predict, tr.evaluate):
        with pytest.raises(ParameterError, match="chunk must be >= 1"):
            run(state, config, windows, chunk=chunk)
    assert not forwards


@pytest.mark.parametrize("chunk", [2.5, 3.0, True, "4", None])
def test_predict_and_evaluate_reject_a_chunk_that_is_not_an_integer(monkeypatch, chunk):
    config = tiny_config()
    state = tiny_state(config, seed=21)
    windows = random_windows(22, 5, 3, 8, 2, 1)
    forwards = []
    monkeypatch.setattr(mc, "forward", lambda *args: forwards.append(args))
    for run in (tr.predict, tr.evaluate):
        with pytest.raises(ParameterError, match="chunk must be an integer"):
            run(state, config, windows, chunk=chunk)
    assert not forwards


def test_predict_takes_a_numpy_integer_chunk():
    config = tiny_config()
    state = tiny_state(config, seed=23)
    windows = random_windows(24, 5, 3, 8, 2, 1)
    assert np.array_equal(tr.predict(state, config, windows, chunk=np.int64(2))[0],
                          tr.predict(state, config, windows, chunk=2)[0])


def _race_model(**overrides):
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    bundle = ex.prepare_synth(task, 0)
    config = ex.task_model_config(task, **overrides)
    adjacency = None if config.adjacency_mode == "learned" else bundle.adjacency
    state = mc.init_state(config, task.n_nodes, rng=3, adjacency=adjacency)
    test = bundle.test_windows
    return state, config, WindowSet(test.inputs[:40], test.targets[:40], test.origins[:40])


@pytest.mark.parametrize("variant", ["linear", "nonlinear"])
@pytest.mark.parametrize("adjacency_mode", ["pearson", "provided", "learned"])
def test_predict_equals_forwarding_each_chunk(variant, adjacency_mode):
    state, config, windows = _race_model(variant=variant, adjacency_mode=adjacency_mode)
    params = state.params
    x = windows.inputs
    whole = mc.forward(x, state, config)
    for chunk in (1, 7, 16, 256):
        predicted, _ = tr.predict(state, config, windows, chunk=chunk)
        # the binding changes no bit of any chunk's forecast
        each = np.concatenate([mc.forward(x[start:start + chunk], state, config)
                               for start in range(0, len(x), chunk)])
        assert predicted.tobytes() == each.tobytes(), chunk
        # chunks of two or more windows are bitwise the whole-set forward
        # (see test_forecasts_do_not_depend_on_the_chunk_size)
        if chunk > 1:
            assert predicted.tobytes() == whole.tobytes()
        else:
            assert np.abs(predicted - whole).max() <= 1e-13 * np.abs(whole).max()
    # the binding lived on predict's own copy of the state
    assert list(state.cache) == [config]
    assert state.params is params and type(params) is dict


@pytest.mark.parametrize("basis", ex.BASIS_ORDER)
@pytest.mark.parametrize("variant", mc.VARIANTS)
def test_forecasts_do_not_depend_on_the_chunk_size(basis, variant):
    # No forward product sums over windows, and BLAS rounds each element
    # the same whatever the window count, so a chunk of two or more windows
    # gives each forecast the bits of one forward of the whole set. A chunk
    # of one window makes each (d, n) time mix a vector-matrix product,
    # which numpy runs as a BLAS gemv; that rounds differently, by ulps.
    state, config, _ = _race_model(basis=basis, variant=variant)
    rng = np.random.default_rng(41)
    for name, value in state.params.items():
        state.params[name] = value + 0.1 * rng.standard_normal(value.shape)
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    test = ex.prepare_synth(task, 0).test_windows
    windows = WindowSet(test.inputs[:300], test.targets[:300], test.origins[:300])
    whole = mc.forward(windows.inputs, state, config)
    for chunk in (2, 3, 5, 7, 16, 100, 256, 1000):
        assert tr.predict(state, config, windows, chunk=chunk)[0].tobytes() == whole.tobytes()
    single, _ = tr.predict(state, config, windows, chunk=1)
    assert np.abs(single - whole).max() <= 1e-14 * np.abs(whole).max()


@pytest.mark.parametrize("variant,ceiling", [("linear", 5), ("relu_only", 5),
                                             ("nonlinear", 3)])
def test_activations_keep_one_contiguous_layout(monkeypatch, variant, ceiling):
    # Every block's activation is a contiguous (D, N, B, T) array, so each
    # product of a forward comes out contiguous. A gradient step leaves
    # only the stage operators' parameter-sized gradients and the head's
    # input gradient strided: `ceiling` products in all.
    state, config, windows = race_state(variant=variant)
    x, y = windows.inputs[:64], windows.targets[:64]
    results, matmul = [], ad._matmul
    monkeypatch.setattr(ad, "_matmul",
                        lambda spec, a, b: results.append(matmul(spec, a, b)) or results[-1])
    # the benchmark wraps graph_mix and time_mix by name, and counts
    # graph_mix's flops from its signal with the nodes on axis 1
    signals = {"graph_mix": [], "time_mix": []}
    for name, seen in signals.items():
        def recorded(m, v, op=getattr(ad, name), seen=seen):
            seen.append(ad._value(v).shape)
            return op(m, v)
        monkeypatch.setattr(ad, name, recorded)
    mc.forward(x, state, config)
    assert results and all(out.flags.c_contiguous for out in results)
    assert signals["graph_mix"] and signals["time_mix"]
    assert {shape[:2] for shape in signals["graph_mix"]} == {(config.n_dims, state.n_nodes)}
    results.clear()
    tr.gradients(state, (x, y), config)
    assert sum(not out.flags.c_contiguous for out in results) <= ceiling


def test_evaluate_binds_again_after_a_parameter_changes_in_place():
    state, config, windows = _race_model()
    tr.evaluate(state, config, windows, chunk=16)
    state.params["block0.theta"][1] += 0.25     # in place, as Adam updates
    state.params["block1.coarse_re"] *= 0.5
    predicted, _ = tr.predict(state, config, windows, chunk=16)
    fresh = dataclasses.replace(
        state, params={name: value.copy() for name, value in state.params.items()},
        cache={})
    want = np.concatenate([mc.forward(windows.inputs[start:start + 16], fresh, config)
                           for start in range(0, windows.count, 16)])
    assert predicted.tobytes() == want.tobytes()
    assert tr.evaluate(state, config, windows, chunk=16) == dataio.forecast_errors(
        want, windows.targets)


def test_evaluate_builds_each_blocks_operators_once(monkeypatch):
    state, config, windows = _race_model()
    windows = WindowSet(np.concatenate([windows.inputs] * 2)[:48],
                        np.concatenate([windows.targets] * 2)[:48], np.arange(48))
    specs = []
    contract = ad.contract
    monkeypatch.setattr(ad, "contract",
                        lambda spec, a, b: specs.append(spec) or contract(spec, a, b))
    tr.evaluate(state, config, windows, chunk=16)
    assert specs.count("kd,kij->dij") == config.blocks
    assert specs.count("zndij,zijpq->dnpq") == 2 * config.blocks
    assert specs.count("dij,djbt->dibt") == 3 * config.blocks


def _windows_with_nan(count, at):
    windows = random_windows(34, count, 3, 8, 2, 1)
    windows.inputs[at, 1, 5, 0] = np.nan
    return windows


def test_evaluate_names_the_non_finite_window_in_the_set():
    config = tiny_config()
    state = tiny_state(config, seed=35)
    with pytest.raises(DataError, match="window 280, node 1"):
        tr.evaluate(state, config, _windows_with_nan(351, 280))


def test_train_names_the_non_finite_window_in_the_set():
    config = tiny_config()
    tc = tr.TrainConfig(batch_size=32, epochs=1, seed=36)
    with pytest.raises(DataError, match="window 280, node 1"):
        tr.train(config, tc, _windows_with_nan(351, 280), adjacency=TRIANGLE)
    with pytest.raises(DataError, match="window 280, node 1"):
        tr.train(config, tc, random_windows(37, 64, 3, 8, 2, 1),
                 val_windows=_windows_with_nan(351, 280), adjacency=TRIANGLE)


def test_train_checks_validation_windows_before_any_step(monkeypatch):
    config = tiny_config()
    calls = []
    monkeypatch.setattr(tr, "gradients", lambda *a: calls.append(a))
    with pytest.raises(DataError, match="window 280, node 1"):
        tr.train(config, tr.TrainConfig(batch_size=32, epochs=1, seed=39),
                 random_windows(40, 64, 3, 8, 2, 1),
                 val_windows=_windows_with_nan(351, 280),
                 state=tiny_state(config, seed=38))
    assert calls == []


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_training_reduces_loss_on_learnable_signal():
    config = tiny_config()
    teacher = tiny_state(config, seed=21)
    rng = np.random.default_rng(22)
    for value in teacher.params.values():
        value += 0.05 * rng.standard_normal(value.shape)
    inputs = rng.standard_normal((48, 3, 8, 1))
    targets = mc.forward(inputs, teacher, config)
    windows = WindowSet(inputs=inputs, targets=targets,
                        origins=np.arange(48))
    tc = tr.TrainConfig(lr=2e-2, batch_size=16, epochs=200, seed=23)
    state, run = tr.train(config, tc, windows, adjacency=TRIANGLE)
    assert run.epoch_losses[-1] < 1e-3
    assert run.epoch_losses[-1] < run.epoch_losses[0]


def test_training_is_bitwise_deterministic():
    config = tiny_config()
    windows = random_windows(24, 20, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=3e-3, batch_size=8, epochs=5, seed=25)
    s1, r1 = tr.train(config, tc, windows, adjacency=TRIANGLE)
    s2, r2 = tr.train(config, tc, windows, adjacency=TRIANGLE)
    assert r1.epoch_losses == r2.epoch_losses
    for name in s1.params:
        assert np.array_equal(s1.params[name], s2.params[name])


def test_training_seed_changes_trajectory():
    config = tiny_config()
    windows = random_windows(26, 20, 3, 8, 2, 1)
    r1 = tr.train(config, tr.TrainConfig(lr=3e-3, batch_size=8, epochs=3,
                                         seed=0), windows,
                  adjacency=TRIANGLE)[1]
    r2 = tr.train(config, tr.TrainConfig(lr=3e-3, batch_size=8, epochs=3,
                                         seed=1), windows,
                  adjacency=TRIANGLE)[1]
    assert r1.epoch_losses != r2.epoch_losses


def test_early_stopping_on_stale_validation():
    config = tiny_config()
    train_w = random_windows(27, 24, 3, 8, 2, 1)
    val_w = random_windows(28, 12, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=1e-2, batch_size=8, epochs=400, patience=3, seed=29)
    state, run = tr.train(config, tc, train_w, val_windows=val_w,
                          adjacency=TRIANGLE)
    assert run.stopped_early
    assert run.epochs_run < tc.epochs
    assert 0 <= run.best_epoch < run.epochs_run
    # the returned parameters are the ones that scored the best validation MAE
    scores = tr.evaluate(state, config, val_w)
    assert scores["mae"] == pytest.approx(min(run.val_mae))


def test_empty_train_set_rejected():
    config = tiny_config()
    empty = WindowSet(inputs=np.zeros((0, 3, 8, 1)),
                      targets=np.zeros((0, 3, 2, 1)),
                      origins=np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        tr.train(config, tr.TrainConfig(), empty, adjacency=TRIANGLE)


def test_epoch_loss_is_sample_weighted():
    # with a batch size that splits 5 = 4 + 1, the epoch loss must equal the
    # sample-weighted mean, not the mean of batch means. Given a state, train
    # draws nothing before the epoch's permutation, so the split is this one.
    config = tiny_config()
    windows = random_windows(30, 5, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=1e-9, batch_size=4, epochs=1, seed=31)
    first, last = np.split(np.random.default_rng(31).permutation(5), [4])
    state0 = tiny_state(config, seed=32)
    expected_first = mc.loss(
        mc.forward(windows.inputs[first], state0, config), windows.targets[first])
    expected_last = mc.loss(
        mc.forward(windows.inputs[last], state0, config), windows.targets[last])
    _, run = tr.train(config, tc, windows,
                      state=mc.init_state(config, 3, rng=32, adjacency=TRIANGLE))
    # lr is vanishingly small, so the second batch sees near-initial params
    blended = (4 * expected_first + 1 * expected_last) / 5
    assert run.epoch_losses[0] == pytest.approx(blended, rel=1e-6)


def test_history_csv_layout(tmp_path, monkeypatch):
    # history.csv is written by `spectemp train`; capture the run it records
    runs, ex_fit = [], ex.fit

    def fit(*args):
        state, run = ex_fit(*args)
        runs.append(run)
        return state, run

    monkeypatch.setattr(ex, "fit", fit)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "task": {"n_per_group": 2, "length": 240, "periods": 8,
                 "noise_sigma": 0.2, "lookback": 8, "horizon": 2},
        "model": {"blocks": 1, "degree": 2, "n_modes": 4, "decomp_window": 3},
        "train": {"epochs": 3, "batch_size": 64, "lr": 3e-3, "seed": 35}}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (run,) = runs
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_mae", "val_rmse", "seconds"]
    assert len(rows) == 1 + run.epochs_run
    assert rows[1] == ["0", repr(run.epoch_losses[0]), repr(run.val_mae[0]),
                       repr(run.val_rmse[0]), f"{run.seconds[0]:.6f}"]


def test_run_metadata():
    config = tiny_config()
    windows = random_windows(36, 8, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=3e-3, batch_size=4, epochs=2, seed=37)
    _, run = tr.train(config, tc, windows, adjacency=TRIANGLE)
    assert run.epochs_run == 2
    assert run.seed == 37
    assert run.config["train"]["lr"] == 3e-3
    assert run.config["model"]["lookback"] == 8
    assert not run.stopped_early


@pytest.mark.parametrize("axis", ["basis", "structure"])
def test_ablation_run_scores_every_variant_of_an_axis(axis):
    task = ex.SynthTask(n_per_group=2, length=200, lookback=12, horizon=2)
    result = ex.ablation_run(axis, task, [0], tr.TrainConfig(epochs=1))
    names = [name for name, _ in ex.ablation_variants(axis)]
    assert result["variants"] == names
    assert [row["variant"] for row in result["rows"]] == names
    assert all(np.isfinite(row["mae"]) for row in result["rows"])


# ---------------------------------------------------------------------------
# allocator thresholds
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not spectemp.MALLOC_PINNED, reason="pinned on glibc only")
def test_warm_training_steps_fault_no_pages_in():
    # At N=208, B=16 a step's arrays are a few hundred KB each. With glibc's
    # default thresholds every step maps and faults them in again (about
    # 2,700 minor faults a step); with the pinned thresholds the heap keeps
    # them.
    data = dataio.synth_signed_groups(104, 120, noise_sigma=0.05, seed=1, periods=20)
    windows = dataio.make_windows(data, 12, 3)
    config = mc.ModelConfig(lookback=12, horizon=3, basis="gegenbauer", degree=4,
                            adjacency_mode="pearson")
    state = mc.init_state(config, data.n_variables, rng=1, train_values=data.values)
    moments = tr.AdamMoments.for_state(state)
    batch = (windows.inputs[:16], windows.targets[:16])
    for step in range(25):
        if step == 5:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        grads, _ = tr.gradients(state, batch, config)
        moments = tr.optimizer_step(state, grads, 1e-3, moments)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 20
    assert per_step < 100, per_step


class FakeLibc:
    """A C library whose mallopt records its options and returns ``answer``."""

    def __init__(self, glibc: bool, answer: int):
        self.calls = []
        self.mallopt = lambda option, value: self.calls.append(option) or answer
        if glibc:
            self.gnu_get_libc_version = None


def test_malloc_thresholds_stay_alone_off_glibc(monkeypatch):
    libc = FakeLibc(glibc=False, answer=1)
    monkeypatch.setattr(spectemp.ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(sys, "platform", "linux")
    assert spectemp._pin_malloc_thresholds() is False
    monkeypatch.setattr(sys, "platform", "darwin")
    assert spectemp._pin_malloc_thresholds() is False
    assert libc.calls == []


def test_malloc_trim_threshold_is_not_pinned_alone(monkeypatch):
    libc = FakeLibc(glibc=True, answer=0)
    monkeypatch.setattr(spectemp.ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(sys, "platform", "linux")
    assert spectemp._pin_malloc_thresholds() is False
    assert libc.calls == [spectemp._M_MMAP_THRESHOLD]
