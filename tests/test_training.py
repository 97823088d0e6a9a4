"""Optimization loop: reverse-mode gradients against finite differences,
the adaptive-moment update rule, early stopping, and evaluation metrics."""

import csv

import numpy as np
import pytest

from spectemp import model_core as mc
from spectemp import training as tr
from spectemp.dataio import WindowSet
from spectemp.errors import ConfigError, DataError

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
    dict(basis="monomial"), dict(basis="monomial", monomial_on_laplacian=True),
    dict(basis="bernstein"), dict(basis="chebyshev2"),
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


@pytest.mark.parametrize("overrides", [
    {}, {"variant": "nonlinear"}, {"adjacency_mode": "learned", "embed_dim": 4},
    {"use_attention": True, "n_dims": 2},
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
    # with shuffling off and a batch size that splits 5 = 4 + 1, the epoch
    # loss must equal the sample-weighted mean, not the mean of batch means
    config = tiny_config()
    windows = random_windows(30, 5, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=1e-9, batch_size=4, epochs=1, shuffle=False, seed=31)
    state0 = tiny_state(config, seed=32)
    expected_first = mc.loss(
        mc.forward(windows.inputs[:4], state0, config), windows.targets[:4])
    expected_last = mc.loss(
        mc.forward(windows.inputs[4:], state0, config), windows.targets[4:])
    _, run = tr.train(config, tc, windows,
                      state=mc.init_state(config, 3, rng=32, adjacency=TRIANGLE))
    # lr is vanishingly small, so the second batch sees near-initial params
    blended = (4 * expected_first + 1 * expected_last) / 5
    assert run.epoch_losses[0] == pytest.approx(blended, rel=1e-6)


def test_history_csv_layout(tmp_path):
    config = tiny_config()
    train_w = random_windows(33, 12, 3, 8, 2, 1)
    val_w = random_windows(34, 6, 3, 8, 2, 1)
    tc = tr.TrainConfig(lr=3e-3, batch_size=4, epochs=3, seed=35)
    _, run = tr.train(config, tc, train_w, val_windows=val_w,
                      adjacency=TRIANGLE)
    path = tmp_path / "history.csv"
    tr.write_history_csv(path, run)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_mae", "val_rmse", "seconds"]
    assert len(rows) == 1 + run.epochs_run
    assert float(rows[1][1]) == pytest.approx(run.epoch_losses[0])
    assert float(rows[1][2]) == pytest.approx(run.val_mae[0])


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
