"""Gradient computation, the adaptive-moment optimizer, and the training loop.

Gradients come from the reverse-mode tape in `autodiff`, so complex filter
weights differentiate through their real and imaginary parts separately.
The loop is deliberately plain: seeded shuffling, fixed-order minibatches,
one validation pass per epoch, and early stopping on validation MAE.
Given the same seed, config, and platform, a run reproduces bitwise.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import model_core as mc
from .autodiff import check_finite_gradients
from .dataio import NormStats, WindowSet, denormalize
from .errors import ConfigError, DataError, ShapeError

__all__ = [
    "AdamMoments",
    "TrainConfig",
    "TrainRun",
    "gradients",
    "optimizer_step",
    "train",
    "evaluate",
    "write_history_csv",
    "finite_difference_check",
]


@dataclass
class AdamMoments:
    """First/second moment accumulators plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_state(cls, state: mc.ModelState) -> "AdamMoments":
        trainable = state.trainable()
        return cls(m={k: np.zeros_like(p) for k, p in trainable.items()},
                   v={k: np.zeros_like(p) for k, p in trainable.items()})


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings, separate from the architecture config."""

    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    patience: int = 15
    seed: int = 0
    shuffle: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("moment decays must lie in [0, 1)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainRun:
    """Per-epoch history of one run, exportable as CSV."""

    epoch_losses: list = field(default_factory=list)
    val_mae: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    seed: int = 0
    config: dict = field(default_factory=dict)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)


def gradients(state: mc.ModelState, batch, config: mc.ModelConfig) -> tuple[dict, float]:
    """Reverse-mode gradients of the training loss on one (inputs, targets)
    batch. Returns ({name: gradient}, loss value); raises a numerical error
    naming the first parameter with a non-finite gradient.
    """
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 3:
        x, y = x[None], y[None]
    if x.ndim != 4 or y.ndim != 4 or x.shape[:2] != y.shape[:2]:
        raise ShapeError(f"bad batch shapes {x.shape} / {y.shape}")
    params = mc.wrap_params(state, requires_grad=True)
    # A diverging run overflows here; the finite-gradient check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        prediction, _ = mc._forward_graph(params, x, state, config)
        node = mc.loss_node(prediction, y)
        node.backward()
    check_finite_gradients(params)
    grads = {name: params[name].grad for name in state.trainable()}
    return grads, float(node.data)


def optimizer_step(state: mc.ModelState, grads: dict, lr: float,
                   moments: AdamMoments, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> AdamMoments:
    """One adaptive-moment update with bias correction, in place on the
    state's parameter arrays. Parameters without a gradient entry (frozen
    or untouched) are left alone.
    """
    if lr <= 0:
        raise ConfigError("learning rate must be positive")
    moments.step += 1
    t = moments.step
    for name, grad in grads.items():
        if name in state.frozen:
            continue
        m = moments.m[name] = beta1 * moments.m[name] + (1.0 - beta1) * grad
        v = moments.v[name] = beta2 * moments.v[name] + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        state.params[name] = state.params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return moments


def evaluate(state: mc.ModelState, config: mc.ModelConfig, windows: WindowSet,
             stats: NormStats | None = None, chunk: int = 256) -> dict:
    """Forecast errors over a window set: MAE and RMSE, averaged over every
    sample, node, step, and dimension. With ``stats``, both predictions and
    targets are mapped back to the raw scale first.
    """
    if windows.count == 0:
        raise DataError("cannot evaluate on an empty window set")
    mc.require_finite_windows(windows.inputs)
    preds = []
    for start in range(0, windows.count, chunk):
        preds.append(mc.forward(windows.inputs[start:start + chunk], state, config))
    predicted = np.concatenate(preds, axis=0)
    actual = windows.targets
    if stats is not None:
        predicted = denormalize(predicted, stats)
        actual = denormalize(actual, stats)
    err = predicted - actual
    return {"mae": float(np.abs(err).mean()),
            "rmse": float(np.sqrt((err ** 2).mean()))}


def _epoch_batches(count: int, batch_size: int, rng, shuffle: bool):
    order = rng.permutation(count) if shuffle else np.arange(count)
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def train(config: mc.ModelConfig, tc: TrainConfig, train_windows: WindowSet,
          val_windows: WindowSet | None = None,
          state: mc.ModelState | None = None,
          adjacency=None, train_values: np.ndarray | None = None,
          stats: NormStats | None = None) -> tuple[mc.ModelState, TrainRun]:
    """Minibatch training with per-epoch validation and early stopping.

    The returned state carries the best-validation parameters when a
    validation set is given (falling back to the final parameters
    otherwise). Epoch losses are sample-weighted means of the batch
    objective, so the history does not depend on the batch split.
    """
    if train_windows.count == 0:
        raise DataError("cannot train on an empty window set")
    # Checked here, not per batch, so an error names the window's index in
    # the set passed in; `evaluate` does the same for the validation set.
    mc.require_finite_windows(train_windows.inputs)
    rng = np.random.default_rng(tc.seed)
    if state is None:
        n_nodes = train_windows.inputs.shape[1]
        state = mc.init_state(config, n_nodes, rng=rng,
                              train_values=train_values, adjacency=adjacency)
    moments = AdamMoments.for_state(state)
    run = TrainRun(seed=tc.seed,
                   config={"model": config.to_dict(), "train": tc.to_dict()})

    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(tc.epochs):
        t0 = time.perf_counter()
        total, weight = 0.0, 0
        for batch_idx in _epoch_batches(train_windows.count, tc.batch_size,
                                        rng, tc.shuffle):
            batch = (train_windows.inputs[batch_idx], train_windows.targets[batch_idx])
            grads, batch_loss = gradients(state, batch, config)
            moments = optimizer_step(state, grads, tc.lr, moments,
                                     beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps)
            total += batch_loss * len(batch_idx)
            weight += len(batch_idx)
        run.epoch_losses.append(total / weight)

        if val_windows is not None and val_windows.count:
            scores = evaluate(state, config, val_windows, stats=stats)
            run.val_mae.append(scores["mae"])
            run.val_rmse.append(scores["rmse"])
            if scores["mae"] < best_val - 1e-12:
                best_val = scores["mae"]
                best_params = {k: v.copy() for k, v in state.params.items()}
                run.best_epoch = epoch
                stale = 0
            else:
                stale += 1
        run.seconds.append(time.perf_counter() - t0)
        if val_windows is not None and stale > tc.patience:
            run.stopped_early = True
            break

    if best_params is not None:
        state = dataclasses.replace(state, params=best_params)
    return state, run


def write_history_csv(path, run: TrainRun) -> None:
    """One row per epoch: epoch, train_loss, val_mae, val_rmse, seconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mae", "val_rmse", "seconds"])
        for i, loss in enumerate(run.epoch_losses):
            writer.writerow([
                i, repr(loss),
                repr(run.val_mae[i]) if i < len(run.val_mae) else "",
                repr(run.val_rmse[i]) if i < len(run.val_rmse) else "",
                f"{run.seconds[i]:.6f}",
            ])


def finite_difference_check(state: mc.ModelState, config: mc.ModelConfig,
                            x: np.ndarray, y: np.ndarray, h: float = 1e-5,
                            max_entries: int = 12, seed: int = 0) -> dict:
    """Central-difference verification of the tape gradients.

    Samples up to ``max_entries`` coordinates per parameter and returns the
    worst relative error per parameter name. Intended for small test
    models; cost is two forward passes per probed coordinate.
    """
    grads, _ = gradients(state, (x, y), config)
    rng = np.random.default_rng(seed)
    report = {}

    def loss_at() -> float:
        arr_x = x if x.ndim == 4 else x[None]
        arr_y = y if y.ndim == 4 else y[None]
        return mc.loss(mc.forward(arr_x, state, config), arr_y)

    for name, grad in grads.items():
        flat_param = state.params[name].reshape(-1)
        flat_grad = grad.reshape(-1)
        n_probe = min(max_entries, flat_param.size)
        coords = rng.choice(flat_param.size, size=n_probe, replace=False)
        worst = 0.0
        for c in coords:
            keep = flat_param[c]
            flat_param[c] = keep + h
            up = loss_at()
            flat_param[c] = keep - h
            down = loss_at()
            flat_param[c] = keep
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(numeric), abs(flat_grad[c]), 1e-8)
            worst = max(worst, abs(numeric - flat_grad[c]) / denom)
        report[name] = worst
    return report
