"""Gradient computation, the adaptive-moment optimizer, and the training loop.

Gradients come from the reverse-mode tape in `autodiff`, so complex filter
weights differentiate through their real and imaginary parts separately.
The loop is deliberately plain: seeded shuffling, fixed-order minibatches,
one validation pass per epoch, and early stopping on validation MAE.
Given the same seed, config, and platform, a run reproduces bitwise.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model_core as mc
from .dataio import NormStats, WindowSet, denormalize, forecast_errors
from .errors import ConfigError, DataError, NumericalError, ParameterError, ShapeError

__all__ = [
    "AdamMoments",
    "TrainConfig",
    "TrainRun",
    "gradients",
    "optimizer_step",
    "train",
    "predict",
    "evaluate",
    "finite_difference_check",
]


# Adam's moment decay rates and denominator offset: Kingma & Ba's (2015) defaults
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamMoments:
    """Adaptive-moment state over one flat float64 vector of parameters,
    for Adam with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.

    ``for_state`` copies a state's trainable arrays into ``params`` in
    sorted-name order (the checkpoint payload's order) and rebinds each of
    those ``state.params`` entries to a view of the vector, so that
    ``optimizer_step`` updates the parameters in place. The moments ``m``
    and ``v`` are laid out as ``params`` is; ``step`` counts the updates.
    """

    names: tuple
    shapes: tuple
    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    views: dict = field(init=False, repr=False)   # name -> view of ``params``

    def __post_init__(self):
        self.views = self.unflatten(self.params)

    @classmethod
    def for_state(cls, state: mc.ModelState) -> "AdamMoments":
        names = tuple(sorted(state.trainable()))
        arrays = [state.params[name] for name in names]
        params = _flat(arrays)
        moments = cls(names, tuple(a.shape for a in arrays), params,
                      np.zeros_like(params), np.zeros_like(params))
        state.params.update(moments.views)
        return moments

    def unflatten(self, vector: np.ndarray) -> dict:
        """{name: view of ``vector``}, for a vector laid out as ``params``."""
        views, start = {}, 0
        for name, shape in zip(self.names, self.shapes):
            size = math.prod(shape)
            views[name] = vector[start:start + size].reshape(shape)
            start += size
        return views


def _flat(arrays) -> np.ndarray:
    """The arrays raveled and concatenated into one new float64 vector."""
    return np.concatenate([np.empty(0), *arrays], axis=None)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings, separate from the architecture config."""

    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    patience: int = 15
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"train.lr must be positive and finite, got {self.lr}")
        for key in ("batch_size", "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"train.{key} must be >= 1, got {getattr(self, key)}")
        for key in ("patience", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must be >= 0, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainRun:
    """Per-epoch history of one run."""

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
    (x, _), (y, _) = map(mc._promote, batch)
    if x.shape[:2] != y.shape[:2]:
        raise ShapeError(f"bad batch shapes {x.shape} / {y.shape}")
    leaves = {name: ad.Tensor(value) for name, value in state.trainable().items()}
    # A diverging run overflows here; the finite-gradient check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        prediction = mc._forward_graph({**state.params, **leaves}, x, state, config)
        node = mc.loss_node(prediction, y)
        if not leaves:      # every parameter frozen: the pass built no tape
            return {}, float(node)
        node.backward()
    grads = {name: leaf.grad for name, leaf in leaves.items()}
    if not np.isfinite(_flat(grads.values())).all():
        name = next(name for name, grad in grads.items() if not np.isfinite(grad).all())
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    return grads, float(node.data)


def optimizer_step(state: mc.ModelState, grads: dict, lr: float,
                   moments: AdamMoments) -> AdamMoments:
    """One Adam update with bias correction, beta1 = 0.9, beta2 = 0.999 and
    eps = 1e-8, made in place on ``moments.params``: the trainable entries
    of ``state.params`` are views of that vector (see
    ``AdamMoments.for_state``), so they hold the updated values and no
    entry is rebound. ``grads`` must hold every name in
    ``moments.names``; other entries, such as frozen parameters, are
    ignored. A missing gradient, or a ``state.params`` entry rebound after
    ``for_state`` (so no longer its view), raises ``ParameterError``. An
    update that leaves a parameter non-finite raises ``NumericalError``
    naming the first such parameter in ``moments.names`` order.
    """
    if not 0 < lr < math.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    names = moments.names
    missing = set(names).difference(grads)
    if missing:
        raise ParameterError(f"no gradient for parameter {min(missing)!r}")
    bound = map(state.params.get, names)
    if not all(map(operator.is_, bound, moments.views.values())):
        stale = min(name for name, view in moments.views.items()
                    if state.params.get(name) is not view)
        raise ParameterError(f"state.params[{stale!r}] was rebound after "
                             "AdamMoments.for_state, so the optimizer no longer updates it")
    grad = _flat(map(grads.__getitem__, names))
    if grad.size != moments.params.size:
        raise ShapeError(f"gradients hold {grad.size} values for "
                         f"{moments.params.size} parameters")
    moments.step += 1
    t = moments.step
    m, v, params = moments.m, moments.v, moments.params
    # The operations and their order are those of the per-array update
    # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    # p = p - lr m_hat / (sqrt(v_hat) + eps), so the result is bitwise equal.
    # A diverging step overflows here; the finite-parameter check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(m, _BETA1, out=m)
        work = np.multiply(grad, 1.0 - _BETA1)
        np.add(m, work, out=m)
        np.multiply(v, _BETA2, out=v)
        np.multiply(grad, 1.0 - _BETA2, out=work)
        np.multiply(work, grad, out=work)
        np.add(v, work, out=v)
        np.divide(m, 1.0 - _BETA1 ** t, out=work)
        np.multiply(work, lr, out=work)
        np.divide(v, 1.0 - _BETA2 ** t, out=grad)
        np.sqrt(grad, out=grad)
        np.add(grad, _EPS, out=grad)
        np.divide(work, grad, out=work)
        np.subtract(params, work, out=params)
    if not np.isfinite(params).all():
        name = next(name for name in names if not np.isfinite(moments.views[name]).all())
        raise NumericalError(f"the update left non-finite values in parameter {name!r}")
    return moments


def predict(state: mc.ModelState, config: mc.ModelConfig, windows: WindowSet,
            stats: NormStats | None = None,
            chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Forecasts of a window set and its targets; with ``stats``, both on
    the raw scale.

    The inputs are checked for non-finite values once, so an error names
    the window's index in ``windows``. The set then goes through
    ``model_core.forward`` at most ``chunk`` windows at a time. The
    parameters are bound to each block's graph and temporal operators once
    per call: a copy of ``state`` that lives only for the call holds the
    binding as its params, and every chunk's forward applies it, so a
    chunk costs only the operators' application. ``state`` itself keeps
    its params and its cache as they were. Each chunk's forecast is bitwise that of ``forward`` on
    the chunk alone; matmul rounds by the column count, so other chunk
    sizes can differ in the last bits.
    """
    if isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral):
        raise ParameterError(f"chunk must be an integer, got {chunk!r}")
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    if windows.count == 0:
        raise DataError("cannot evaluate on an empty window set")
    mc.require_finite_windows(windows.inputs)
    bound = mc._bound_state(state, config)
    predicted = np.empty((windows.count, state.n_nodes, config.horizon, config.n_dims))
    for start in range(0, windows.count, chunk):
        predicted[start:start + chunk] = mc.forward(windows.inputs[start:start + chunk],
                                                    bound, config)
    actual = windows.targets
    if stats is not None:
        predicted = denormalize(predicted, stats)
        actual = denormalize(actual, stats)
    return predicted, actual


def evaluate(state: mc.ModelState, config: mc.ModelConfig, windows: WindowSet,
             stats: NormStats | None = None, chunk: int = 256) -> dict:
    """Forecast errors over a window set: MAE and RMSE, averaged over every
    sample, node, step, and dimension. With ``stats``, both predictions and
    targets are mapped back to the raw scale first.
    """
    return forecast_errors(*predict(state, config, windows, stats, chunk))


def _epoch_batches(count: int, batch_size: int, rng):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def train(config: mc.ModelConfig, tc: TrainConfig, train_windows: WindowSet,
          val_windows: WindowSet | None = None,
          state: mc.ModelState | None = None,
          adjacency=None) -> tuple[mc.ModelState, TrainRun]:
    """Minibatch training with per-epoch validation and early stopping.

    The returned state carries the best-validation parameters when a
    validation set is given (falling back to the final parameters
    otherwise). Epoch losses are sample-weighted means of the batch
    objective, so the history does not depend on the batch split.
    Validation scores ``val_windows`` as given, on the normalized scale.
    A given ``state`` keeps its ``params`` entries as they were bound.
    """
    if train_windows.count == 0:
        raise DataError("cannot train on an empty window set")
    # Checked here, not per batch or per epoch, so an error names the
    # window's index in the set passed in before any parameter is stepped.
    mc.require_finite_windows(train_windows.inputs)
    if val_windows is not None:
        mc.require_finite_windows(val_windows.inputs)
    rng = np.random.default_rng(tc.seed)
    if state is None:
        n_nodes = train_windows.inputs.shape[1]
        state = mc.init_state(config, n_nodes, rng=rng, adjacency=adjacency)
    # for_state rebinds the entries of a copy, not of the caller's dict
    state = dataclasses.replace(state, params=dict(state.params))
    moments = AdamMoments.for_state(state)
    run = TrainRun(seed=tc.seed,
                   config={"model": config.to_dict(), "train": tc.to_dict()})

    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(tc.epochs):
        t0 = time.perf_counter()
        total, weight = 0.0, 0
        for batch_idx in _epoch_batches(train_windows.count, tc.batch_size, rng):
            batch = (train_windows.inputs[batch_idx], train_windows.targets[batch_idx])
            grads, batch_loss = gradients(state, batch, config)
            moments = optimizer_step(state, grads, tc.lr, moments)
            total += batch_loss * len(batch_idx)
            weight += len(batch_idx)
        run.epoch_losses.append(total / weight)

        if val_windows is not None and val_windows.count:
            scores = evaluate(state, config, val_windows)
            run.val_mae.append(scores["mae"])
            run.val_rmse.append(scores["rmse"])
            if scores["mae"] < best_val - 1e-12:
                best_val = scores["mae"]
                best_params = moments.params.copy()
                run.best_epoch = epoch
                stale = 0
            else:
                stale += 1
        run.seconds.append(time.perf_counter() - t0)
        if val_windows is not None and stale > tc.patience:
            run.stopped_early = True
            break

    if best_params is not None:
        best = moments.unflatten(best_params)
        state = dataclasses.replace(state, params={
            name: best[name] if name in best else value.copy()
            for name, value in state.params.items()})
    return state, run


def finite_difference_check(state: mc.ModelState, config: mc.ModelConfig,
                            x: np.ndarray, y: np.ndarray) -> dict:
    """Central-difference verification of the tape gradients.

    Steps up to 12 coordinates per parameter, drawn by ``default_rng(0)``,
    by h = 1e-5 both ways and returns the worst relative error per name.
    Intended for small test models: two forward passes per coordinate.
    """
    h = 1e-5
    grads, _ = gradients(state, (x, y), config)
    rng = np.random.default_rng(0)
    report = {}

    def loss_at() -> float:
        return mc.loss(mc.forward(x, state, config), y)

    for name, grad in grads.items():
        flat_param = state.params[name].reshape(-1)
        flat_grad = grad.reshape(-1)
        coords = rng.choice(flat_param.size, size=min(12, flat_param.size), replace=False)
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
