"""Experiment recipes shared by the command-line harness and the test suite.

Each recipe is a plain function from a task description plus seeds to a
dictionary of results, so the CLI can dump them as JSON/CSV and tests can
assert on them directly. The synthetic task is the two-group sin/cos
dataset: group relations are sign-blind (|correlation| hides the quarter-
period offset), which is exactly the regime where a learnable polynomial
graph filter should beat a fixed low-pass one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import model_core as mc
from .dataio import (IMPUTES, LAYOUTS, NORM_METHODS, Dataset, NormStats, WindowSet,
                     compute_norm_stats, dataset_manifest, forecast_errors, load_csv,
                     make_windows, normalize, persistence_baseline, split,
                     synth_signed_groups)
from .errors import ConfigError, ParameterError
from .model_core import ModelConfig, ModelState
from .spectral_graph import BASES as BASIS_ORDER
from .training import TrainConfig, TrainRun, evaluate, train

__all__ = [
    "SynthTask",
    "DataSource",
    "SynthBundle",
    "prepare_data",
    "prepare_synth",
    "fit",
    "task_model_config",
    "low_pass_control_state",
    "silhouette_score",
    "embedding_matrix",
    "signed_groups_experiment",
    "convergence_race",
    "race_passes",
    "forecast_experiment",
    "ablation_variants",
    "ablation_run",
    "ablation_direction_check",
    "RACE_PRESET",
    "SILHOUETTE_PRESET",
    "FORECAST_PRESET",
    "ABLATION_PRESETS",
]

ORTHOGONAL_BASES = ("chebyshev2", "gegenbauer", "jacobi")
POWER_BASES = ("monomial", "bernstein")

# Tuned regimes for the directional experiments. Each exposes the mechanism
# it tests: the basis race and the group-separation comparison need heavy
# observation noise so the graph filter is load-bearing; the projector
# ablation needs a slow clean tone that the Fourier modes align with; the
# fine-stage ablation needs a fast tone that the truncated coarse stage
# clips, leaving the decomposition path to carry it.
RACE_PRESET = {"noise_sigma": 0.5, "lr": 1e-2, "epochs": 20, "batch_size": 64}
SILHOUETTE_PRESET = {"noise_sigma": 0.5, "lr": 3e-3, "epochs": 30, "batch_size": 64}
FORECAST_PRESET = {"noise_sigma": 0.05, "lr": 3e-3, "epochs": 40, "batch_size": 64}
ABLATION_PRESETS = {
    "random_projector": {"task": {"noise_sigma": 0.05},
                         "config": {},
                         "override": {"projector": "random"}},
    "no_fine": {"task": {"noise_sigma": 0.3, "periods": 200},
                "config": {"decomp_window": 7, "n_modes": 3},
                "override": {"use_fine": False}},
}


@dataclass(frozen=True)
class SynthTask:
    """Geometry of the forecasting problem. ``lookback``, ``horizon``,
    ``stride`` and the train/val/test ``ratios`` cut the windows of any
    source, a CSV file included; the other fields shape the synthetic
    series."""

    n_per_group: int = 4
    length: int = 2000
    periods: int = 20
    noise_sigma: float = 0.05
    lookback: int = 24
    horizon: int = 3
    stride: int = 1
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigError(f"task.noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.periods < 1:
            raise ConfigError(f"task.periods must be >= 1, got {self.periods}")

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_per_group


@dataclass(frozen=True)
class DataSource:
    """Where the series come from: the synthetic task when ``csv`` is
    unset, otherwise a CSV file (see ``dataio.load_csv``), split by the
    task's ``ratios``. ``normalize`` is "none", "zscore" or "minmax", with
    statistics from the training split."""

    csv: str | None = None
    layout: str = "time_major"
    impute: str | None = None
    normalize: str = "none"

    def __post_init__(self):
        for key, valid in (("layout", LAYOUTS), ("impute", IMPUTES),
                           ("normalize", ("none",) + NORM_METHODS)):
            if getattr(self, key) not in valid:
                raise ConfigError(f"data.{key} must be one of {list(valid)}, "
                                  f"got {getattr(self, key)!r}")


@dataclass
class SynthBundle:
    """A prepared task: splits, windows, adjacency."""

    dataset: Dataset
    train_windows: WindowSet
    val_windows: WindowSet
    test_windows: WindowSet
    adjacency: np.ndarray
    stats: NormStats | None         # training-split normalization, if any

    def manifest(self, seed: int) -> dict:
        return dataset_manifest(self.dataset, self.stats, seed)


def prepare_data(task: SynthTask, seed: int,
                 source: DataSource = DataSource()) -> SynthBundle:
    """Generate (or load), split chronologically, normalize with
    training-split statistics, window, and build the adjacency
    (window-level mean |correlation| over the training split only)."""
    if source.csv is None:
        ds = synth_signed_groups(task.n_per_group, task.length,
                                 noise_sigma=task.noise_sigma, seed=seed,
                                 periods=task.periods)
    else:
        ds = load_csv(source.csv, layout=source.layout, impute=source.impute)
    parts = split(ds, task.ratios)
    stats = None
    if source.normalize != "none":
        stats = compute_norm_stats(parts[0], source.normalize)
        parts = [normalize(part, stats) for part in parts]
    train_ds, val_ds, test_ds = parts
    adjacency = mc.windowed_mean_correlation(train_ds.values, task.lookback).matrix
    w = lambda d: make_windows(d, task.lookback, task.horizon, task.stride)
    return SynthBundle(dataset=ds, train_windows=w(train_ds), val_windows=w(val_ds),
                       test_windows=w(test_ds), adjacency=adjacency,
                       stats=stats)


def prepare_synth(task: SynthTask, seed: int) -> SynthBundle:
    """``prepare_data`` on the synthetic task."""
    return prepare_data(task, seed)


def fit(config: ModelConfig, tc: TrainConfig, bundle: SynthBundle, seed: int,
        state: ModelState | None = None,
        validate: bool = True) -> tuple[ModelState, TrainRun]:
    """Train on the bundle's windows, starting from ``state`` or else from
    a fresh state whose parameters ``seed`` draws (the adjacency follows
    ``config.adjacency_mode``). Validates on the validation windows unless
    ``validate`` is False."""
    if state is None:
        state = mc.init_state(config, bundle.dataset.n_variables, rng=seed,
                              adjacency=bundle.adjacency)
    return train(config, tc, bundle.train_windows,
                 bundle.val_windows if validate else None, state=state)


def task_model_config(task: SynthTask, **overrides) -> ModelConfig:
    base = dict(lookback=task.lookback, horizon=task.horizon, adjacency_mode="provided")
    base.update(overrides)
    return ModelConfig(**base)


def low_pass_control_state(config: ModelConfig, n_nodes: int, seed: int,
                           adjacency: np.ndarray) -> tuple[ModelState, ModelConfig]:
    """The fixed-filter control: degree-1 Gegenbauer (alpha=1) with frozen
    positive coefficients (0.5, 0.25), a pure low-pass on the graph. The
    temporal stages and head stay trainable, so the only handicap is the
    inability to learn signed node mixing.
    """
    control_cfg = dataclasses.replace(config, degree=1, basis="gegenbauer",
                                      alpha=1.0, jacobi_a=None, jacobi_b=None)
    state = mc.init_state(control_cfg, n_nodes, rng=seed, adjacency=adjacency)
    state.frozen = frozenset(f"block{m}.theta" for m in range(control_cfg.blocks))
    for name in state.frozen:
        state.params[name] = np.repeat(np.array([[0.5], [0.25]]),
                                       state.params[name].shape[1], axis=1)
    return state, control_cfg


# ---------------------------------------------------------------------------
# cluster separation
# ---------------------------------------------------------------------------

def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient with euclidean distances.

    s(i) = (b - a) / max(a, b) where a is the mean distance to the rest of
    i's own cluster and b the smallest mean distance to another cluster;
    singleton clusters contribute 0.
    """
    x = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ParameterError(f"need (N, F) points and (N,) labels, got {x.shape}, {y.shape}")
    uniq = np.unique(y)
    if uniq.size < 2:
        raise ParameterError("silhouette needs at least two clusters")
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    scores = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        own = y == y[i]
        n_own = own.sum()
        if n_own <= 1:
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, y == other].mean() for other in uniq if other != y[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def embedding_matrix(state: ModelState, config: ModelConfig, windows: WindowSet,
                     n_eval: int = 8) -> np.ndarray:
    """Per-node features for cluster separation: the final-block
    representations of ``n_eval`` evenly spaced windows, flattened and
    concatenated per node into an (N, n_eval*T*D) matrix."""
    picks = np.unique(np.linspace(0, windows.count - 1,
                                  min(n_eval, windows.count), dtype=int))
    reps = mc.embed(windows.inputs[picks], state, config)   # (P, N, T, D)
    return np.transpose(reps, (1, 0, 2, 3)).reshape(reps.shape[1], -1)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def signed_groups_experiment(task: SynthTask, seed: int, tc: TrainConfig,
                             n_eval: int = 8) -> dict:
    """Train the full model and the frozen low-pass control on the same
    data, then compare silhouette scores of their test-window embeddings
    on the group labels. ``tc`` is run with ``seed``."""
    tc = dataclasses.replace(tc, seed=seed)
    bundle = prepare_synth(task, seed)
    config = task_model_config(task)

    model_state, model_run = fit(config, tc, bundle, seed)
    control_state, control_cfg = low_pass_control_state(config, task.n_nodes,
                                                        seed, bundle.adjacency)
    control_state, control_run = fit(control_cfg, tc, bundle, seed,
                                     state=control_state)

    model_emb = embedding_matrix(model_state, config, bundle.test_windows, n_eval)
    control_emb = embedding_matrix(control_state, control_cfg,
                                   bundle.test_windows, n_eval)
    return {
        "seed": seed,
        "labels": bundle.dataset.labels,
        "model_embeddings": model_emb,
        "control_embeddings": control_emb,
        "model_silhouette": silhouette_score(model_emb, bundle.dataset.labels),
        "control_silhouette": silhouette_score(control_emb, bundle.dataset.labels),
        "model_run": model_run,
        "control_run": control_run,
        "model_state": model_state,
        "model_config": config,
        "control_state": control_state,
        "control_config": control_cfg,
        "bundle": bundle,
    }


def convergence_race(task: SynthTask, seeds, epochs: int = RACE_PRESET["epochs"],
                     lr: float = RACE_PRESET["lr"],
                     batch_size: int = RACE_PRESET["batch_size"]) -> dict:
    """Same data, same init noise, same shuffling; only the polynomial
    family changes, over ``BASIS_ORDER``. Returns per-basis per-seed
    epoch-loss curves. The training settings default to ``RACE_PRESET``."""
    curves = {basis: [] for basis in BASIS_ORDER}
    for seed in seeds:
        bundle = prepare_synth(task, seed)
        tc = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed)
        for basis in BASIS_ORDER:
            config = task_model_config(task, basis=basis)
            _, run = fit(config, tc, bundle, seed, validate=False)
            curves[basis].append(list(run.epoch_losses))
    return {"bases": list(BASIS_ORDER), "seeds": list(seeds), "curves": curves,
            "epochs": epochs, "lr": lr}


def race_passes(race: dict) -> list[bool]:
    """Per-seed verdicts: every orthogonal basis ends the race with lower
    final-epoch training loss than every power basis."""
    verdicts = []
    for i in range(len(race["seeds"])):
        finals = {b: race["curves"][b][i][-1] for b in race["bases"]}
        ortho = max(finals[b] for b in ORTHOGONAL_BASES)
        power = min(finals[b] for b in POWER_BASES)
        verdicts.append(bool(ortho < power))
    return verdicts


def forecast_experiment(task: SynthTask, seed: int, tc: TrainConfig) -> dict:
    """Full-model forecasting on the synthetic task, judged on the test
    split against the persistence baseline. ``tc`` is run with ``seed``."""
    tc = dataclasses.replace(tc, seed=seed)
    bundle = prepare_synth(task, seed)
    config = task_model_config(task)
    state, run = fit(config, tc, bundle, seed)
    scores = evaluate(state, config, bundle.test_windows)
    base = forecast_errors(persistence_baseline(bundle.test_windows),
                           bundle.test_windows.targets)
    return {
        "seed": seed,
        "model_mae": scores["mae"],
        "model_rmse": scores["rmse"],
        "persistence_mae": base["mae"],
        "persistence_rmse": base["rmse"],
        "improvement": 1.0 - scores["mae"] / base["mae"],
        "run": run,
        "state": state,
        "config": config,
        "bundle": bundle,
    }


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

def ablation_variants(axis: str) -> list[tuple[str, dict]]:
    """Named config overrides for one ablation axis."""
    if axis == "basis":
        return [(basis, {"basis": basis}) for basis in BASIS_ORDER]
    if axis == "structure":
        return [
            ("full", {}),
            ("shared_theta", {"share_theta_dims": True}),
            ("shared_filter_dims", {"share_filter_dims": True}),
            ("shared_filter_vars", {"share_filter_vars": True}),
            ("random_projector", {"projector": "random"}),
            ("no_coarse", {"use_coarse": False}),
            ("no_fine", {"use_fine": False}),
        ]
    if axis == "nonlinearity":
        return [
            ("linear", {}),
            ("relu_only", {"use_relu": True, "use_attention": False}),
            ("nonlinear", {"variant": "nonlinear"}),
        ]
    raise ConfigError(
        f"unknown ablation axis {axis!r}; valid axes: basis, structure, nonlinearity")


def _variant_rows(task: SynthTask, variants, seeds,
                  tc: TrainConfig | None) -> list[dict]:
    """Train every (name, overrides) variant on each seed's bundle and
    score test MAE and RMSE, one row per (seed, variant)."""
    base_tc = tc or TrainConfig(lr=3e-3, epochs=30, batch_size=64)
    rows = []
    for seed in seeds:
        bundle = prepare_synth(task, seed)
        run_tc = dataclasses.replace(base_tc, seed=seed)
        for name, overrides in variants:
            config = task_model_config(task, **overrides)
            state, run = fit(config, run_tc, bundle, seed)
            scores = evaluate(state, config, bundle.test_windows)
            rows.append({"variant": name, "seed": seed,
                         "mae": scores["mae"], "rmse": scores["rmse"],
                         "epochs_run": run.epochs_run})
    return rows


def ablation_run(axis: str, task: SynthTask, seeds,
                 tc: TrainConfig | None = None) -> dict:
    """Train every variant of one axis across the seeds and score test MAE
    and RMSE. Rows come back per (variant, seed) plus per-variant means."""
    variants = ablation_variants(axis)
    rows = _variant_rows(task, variants, seeds, tc)
    summary = []
    for name, _ in variants:
        picked = [r for r in rows if r["variant"] == name]
        entry = {"variant": name}
        for metric in ("mae", "rmse"):
            values = [r[metric] for r in picked]
            entry[f"mean_{metric}"] = float(np.mean(values))
            entry[f"std_{metric}"] = float(np.std(values))
        summary.append({**entry, "n_seeds": len(picked)})
    return {"axis": axis, "rows": rows, "summary": summary,
            "variants": [name for name, _ in variants]}


def ablation_direction_check(variant: str, seeds,
                             tc: TrainConfig | None = None) -> dict:
    """Head-to-head run of one structural ablation against the full model
    on that ablation's preset regime. Returns per-seed MAE pairs and a
    per-seed verdict (True when the ablated model is worse)."""
    if variant not in ABLATION_PRESETS:
        raise ConfigError(f"unknown ablation direction {variant!r}; "
                          f"expected one of {sorted(ABLATION_PRESETS)}")
    seeds = list(seeds)
    preset = ABLATION_PRESETS[variant]
    rows = _variant_rows(SynthTask(**preset["task"]),
                         [("full", preset["config"]),
                          ("ablated", {**preset["config"], **preset["override"]})],
                         seeds, tc)
    full_mae, ablated_mae = ([r["mae"] for r in rows if r["variant"] == name]
                             for name in ("full", "ablated"))
    worse = [a > f for f, a in zip(full_mae, ablated_mae)]
    return {"variant": variant, "seeds": seeds, "full_mae": full_mae,
            "ablated_mae": ablated_mae, "worse": worse,
            "n_worse": int(sum(worse))}
