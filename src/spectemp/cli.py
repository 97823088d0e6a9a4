"""Command-line harness: training runs, ablations, theory checks, temporal
WL testing, and the synthetic signed-groups experiment.

Every command reads an optional JSON config file, applies ``--set`` dotted
overrides on top, runs, and leaves a ``manifest.json`` in the output
directory recording the full effective configuration plus the artifacts
written. ``config.read_section`` reads each section into a dataclass that
declares its keys, types and defaults (``SynthTask``, ``DataSource``,
``ModelConfig``, ``TrainConfig`` and the command sections below); an
unknown section or key, or a wrongly typed value, is a config error.
Training, forecasting and the recipes share ``experiments.prepare_data``
and ``experiments.fit``. Exit codes: 0 success, 2 usage or config errors,
3 data errors (malformed checkpoints and non-finite inputs included), 4
numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

from . import __version__
from . import experiments as ex
from . import model_core as mc
from .config import read_section
from .dataio import forecast_errors
from .errors import (ConfigError, DataError, NumericalError, ParameterError,
                     ShapeError)
from .frequency_temporal import column_sampling_check
from .model_core import ModelConfig
from .spectral_graph import (Adjacency, eigendecompose, fit_weight_alpha,
                             normalized_laplacian, orthogonality_residual,
                             signal_density)
from .temporal_wl import (check_spectral_conditions, distinguishable,
                          fixture_path, read_dtdg, refine_to_stable, wl_test)
from .training import TrainConfig, evaluate, predict

DEFAULT_SEEDS = 5
SECTIONS = ("task", "data", "model", "train", "forecast", "ablate", "theory",
            "twl", "synth")


# ---------------------------------------------------------------------------
# per-command config sections
# ---------------------------------------------------------------------------

def _check_seeds(key: str, seeds) -> None:
    if seeds is not None and min(seeds) < 0:
        raise ConfigError(f"{key} must list seeds >= 0, got {seeds}")


@dataclass(frozen=True)
class ForecastSection:
    checkpoint: str | None = None           # required: a .stck path


@dataclass(frozen=True)
class AblateSection:
    axis: str | None = None                 # required: basis, structure, nonlinearity
    seeds: list[int] | None = None          # default: --seed and the next four

    def __post_init__(self):
        _check_seeds("ablate.seeds", self.seeds)


@dataclass(frozen=True)
class ColumnSamplingSection:
    n: int = 32
    t: int = 64
    k: int = 4
    s: int = 32
    trials: int = 500

    def __post_init__(self):
        if min(self.n, self.t, self.trials) < 1:
            raise ConfigError("theory.column_sampling n, t and trials must be >= 1")


@dataclass(frozen=True)
class RaceSection:
    epochs: int = ex.RACE_PRESET["epochs"]
    lr: float = ex.RACE_PRESET["lr"]
    seeds: list[int] | None = None          # default: [--seed]

    def __post_init__(self):
        _check_seeds("theory.race.seeds", self.seeds)


@dataclass(frozen=True)
class TheorySection:
    column_sampling: ColumnSamplingSection = field(
        default_factory=ColumnSamplingSection)
    race: RaceSection = field(default_factory=RaceSection)


@dataclass(frozen=True)
class TwlSection:
    left: str = str(fixture_path("wl_pair_left"))
    right: str = str(fixture_path("wl_pair_right"))
    steps: int | None = None                # refinement round cap; default N*T
    pair: tuple[int, int, int] | None = None    # (u, v, t) query on left

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"twl.steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class SynthSection:
    seeds: list[int] | None = None          # default: --seed and the next four
    n_eval: int = 8

    def __post_init__(self):
        _check_seeds("synth.seeds", self.seeds)
        if self.n_eval < 1:
            raise ConfigError(f"synth.n_eval must be >= 1, got {self.n_eval}")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _set_nested(config: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {dotted!r}: {part!r} is not a section")
    node[parts[-1]] = value


def load_config(args) -> dict:
    config: dict = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8-sig") as fh:
            try:
                config = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
                raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in args.set or ():
        key, value = _parse_override(item)
        _set_nested(config, key, value)
    unknown = sorted(set(config) - set(SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config sections {unknown}; expected some of "
                          f"{list(SECTIONS)}")
    return config


def _write_json(path, payload) -> None:
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer, np.floating, np.bool_)):
            return obj.item()
        raise TypeError(f"not JSON-serializable: {type(obj)}")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _long_rows(array: np.ndarray):
    """Long format: one (index..., value) row per entry, in C order."""
    return ([*idx, repr(float(array[idx]))] for idx in np.ndindex(array.shape))


class Run:
    """One command invocation. Every section it reads goes into the
    manifest's effective config and every file it names into the
    manifest's output list."""

    def __init__(self, args, config: dict):
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        self.args, self.config, self.seed = args, config, args.seed
        self.out = args.out or os.path.join("spectemp_out", args.command)
        self.effective: dict = {}
        self.outputs: list[str] = []

    def read(self, name: str, cls, **fallback):
        section = read_section(cls, self.config.get(name, {}), name, **fallback)
        self.effective[name] = dataclasses.asdict(section)
        return section

    def read_train_per_seed(self, seeds_key: str, **fallback) -> TrainConfig:
        """The train section of a command that trains once for each seed in
        ``seeds_key``. Each run takes its seed from there, so ``train.seed``
        is an error and the manifest's train section records no seed."""
        train = self.config.get("train", {})
        if isinstance(train, dict) and "seed" in train:
            raise ConfigError(f"train.seed does not apply to {self.args.command}, which "
                              f"trains once with each seed in {seeds_key}; set "
                              f"{seeds_key} instead")
        tc = self.read("train", TrainConfig, **fallback)
        del self.effective["train"]["seed"]
        return tc

    def path(self, name: str) -> str:
        path = os.path.join(self.out, name)
        self.outputs.append(path)
        return path

    def write_csv(self, name: str, header: list, rows) -> None:
        """A header row, then ``rows``; dict rows are read in header order."""
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([row[key] for key in header] if isinstance(row, dict)
                             else row for row in rows)

    def write_manifest(self, wall_s: float) -> None:
        _write_json(os.path.join(self.out, "manifest.json"), {
            "command": self.args.command, "version": __version__,
            "seed": self.seed, "effective_config": self.effective,
            "outputs": sorted(self.outputs), "environment": _environment(wall_s)})


def _environment(wall_s: float) -> dict:
    """What the command ran on: the Python, numpy and scipy versions, the
    BLAS numpy was built with, the cores this process may use, and the
    command's wall time in seconds."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy < 1.26 takes no mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "cores": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count()),
            "wall_s": wall_s}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_window_geometry(model_cfg: ModelConfig, task: ex.SynthTask) -> None:
    """The model's lookback and horizon must be those the task cuts."""
    for key in ("lookback", "horizon"):
        if getattr(model_cfg, key) != getattr(task, key):
            raise ConfigError(f"model.{key}={getattr(model_cfg, key)} differs from "
                              f"task.{key}={getattr(task, key)}, which cuts the windows")


def cmd_train(run: Run) -> None:
    task = run.read("task", ex.SynthTask)
    source = run.read("data", ex.DataSource)
    model_cfg = run.read("model", ModelConfig, lookback=task.lookback,
                         horizon=task.horizon, n_dims=1)
    _check_window_geometry(model_cfg, task)
    tc = run.read("train", TrainConfig, seed=run.seed)
    bundle = ex.prepare_data(task, run.seed, source)
    state, history = ex.fit(model_cfg, tc, bundle, run.seed)
    scores = evaluate(state, model_cfg, bundle.test_windows, stats=bundle.stats)

    mc.save_checkpoint(run.path("checkpoint.stck"), state, model_cfg)
    blank = [""] * history.epochs_run       # for a run without validation
    run.write_csv("history.csv", ["epoch", "train_loss", "val_mae", "val_rmse", "seconds"],
                  zip(range(history.epochs_run), history.epoch_losses,
                      history.val_mae or blank, history.val_rmse or blank,
                      [f"{seconds:.6f}" for seconds in history.seconds]))
    _write_json(run.path("metrics.json"), {
        "mae": scores["mae"], "rmse": scores["rmse"],
        "epochs_run": history.epochs_run, "best_epoch": history.best_epoch,
        "stopped_early": history.stopped_early})
    run.effective["dataset"] = bundle.manifest(run.seed)
    print(f"test mae {scores['mae']:.6f} rmse {scores['rmse']:.6f} "
          f"({history.epochs_run} epochs)")


def cmd_forecast(run: Run) -> None:
    section = run.read("forecast", ForecastSection)
    task = run.read("task", ex.SynthTask)
    source = run.read("data", ex.DataSource)
    if not section.checkpoint:
        raise ConfigError("forecast needs forecast.checkpoint (a .stck path)")
    if not os.path.exists(section.checkpoint):
        raise ConfigError(f"checkpoint not found: {section.checkpoint}")
    state, model_cfg = mc.load_checkpoint(section.checkpoint)
    _check_window_geometry(model_cfg, task)
    bundle = ex.prepare_data(task, run.seed, source)
    windows = bundle.test_windows
    predicted, actual = predict(state, model_cfg, windows, bundle.stats)

    run.write_csv("predictions.csv",
                  ["window_origin", "node_id", "step", "dim", "value"],
                  ([int(windows.origins[i]), *rest]
                   for i, *rest in _long_rows(predicted)))
    _write_json(run.path("metrics.json"), {**forecast_errors(predicted, actual),
                                           "windows": int(windows.count)})
    run.effective.update(model=model_cfg.to_dict(), dataset=bundle.manifest(run.seed))
    print(f"wrote {windows.count} windows of forecasts")


def cmd_ablate(run: Run) -> None:
    section = run.read("ablate", AblateSection,
                       seeds=list(range(run.seed, run.seed + DEFAULT_SEEDS)))
    if section.axis is None:
        valid = "basis, structure, nonlinearity"
        raise ConfigError(f"ablate needs ablate.axis; valid axes: {valid}")
    task = run.read("task", ex.SynthTask)
    tc = run.read_train_per_seed("ablate.seeds")
    result = ex.ablation_run(section.axis, task, section.seeds, tc=tc)

    run.write_csv("ablation_rows.csv",
                  ["variant", "seed", "mae", "rmse", "epochs_run"], result["rows"])
    run.write_csv("ablation_summary.csv",
                  ["variant", "mean_mae", "std_mae", "mean_rmse", "std_rmse",
                   "n_seeds"], result["summary"])
    run.effective["variants"] = result["variants"]
    for row in result["summary"]:
        print(f"{row['variant']:20s} mae {row['mean_mae']:.4f} "
              f"+/- {row['std_mae']:.4f}")


def cmd_theory(run: Run) -> None:
    section = run.read("theory", TheorySection)
    task = run.read("task", ex.SynthTask)

    # column-sampling projection bound
    cs = section.column_sampling
    rng = np.random.default_rng(run.seed)
    a = rng.standard_normal((cs.n, cs.t))
    w = rng.standard_normal((cs.t, 3))
    cs_report = column_sampling_check(a, w, k=cs.k, s=cs.s, trials=cs.trials,
                                      seed=run.seed)

    # quadrature orthogonality per basis
    ortho = {basis: {str(alpha): orthogonality_residual(basis, jmax=4, alpha=alpha)
                     for alpha in (0.5, 1.0, 2.0)}
             for basis in ex.BASIS_ORDER}

    # density fit on a synthetic snapshot
    bundle = ex.prepare_synth(task, run.seed)
    spectrum = eigendecompose(normalized_laplacian(Adjacency(bundle.adjacency)))
    density = signal_density(spectrum, bundle.train_windows.inputs[0, :, -1, :])
    alpha_fit, alpha_residual = fit_weight_alpha(density)

    # basis convergence race
    seeds = section.race.seeds or [run.seed]
    race_task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    race = ex.convergence_race(race_task, seeds, epochs=section.race.epochs,
                               lr=section.race.lr)
    curves = [np.mean(race["curves"][b], axis=0) for b in race["bases"]]
    run.write_csv("race.csv", ["epoch"] + list(race["bases"]),
                  ([epoch] + [repr(float(c[epoch])) for c in curves]
                   for epoch in range(race["epochs"])))

    _write_json(run.path("theory.json"), {
        "column_sampling": {
            **dataclasses.asdict(cs),
            "mean_lhs": cs_report.mean_lhs, "max_lhs": cs_report.max_lhs,
            "rhs": cs_report.rhs, "epsilon": cs_report.epsilon,
            "violation_rate": cs_report.violation_rate},
        "orthogonality": ortho,
        "density": {"eigenvalues": spectrum.eigenvalues.tolist(),
                    "fitted_alpha": alpha_fit, "fit_residual": alpha_residual},
        "race": {"seeds": seeds, "epochs": race["epochs"], "lr": race["lr"],
                 "final_losses": {b: [c[-1] for c in race["curves"][b]]
                                  for b in race["bases"]}},
    })
    print(f"column-sampling violation rate {cs_report.violation_rate:.3f}")
    print(f"fitted alpha {alpha_fit:.2f}")
    for basis in ex.BASIS_ORDER:
        print(f"orthogonality residual {basis:12s} alpha=1: "
              f"{ortho[basis]['1.0']:.2e}")


def cmd_twl(run: Run) -> None:
    section = run.read("twl", TwlSection)
    steps = section.steps
    left = read_dtdg(section.left)
    right = read_dtdg(section.right)

    report = wl_test(left, right, steps=steps)
    lines = [f"wl_test: {report.verdict} (round {report.rounds})"]

    for name, graph in (("left", left), ("right", right)):
        state = refine_to_stable(graph, max_rounds=steps)
        per_snapshot = [len(set(state.colors[:, t].tolist()))
                        for t in range(graph.n_steps)]
        lines.append(f"{name}: stable colors per snapshot {per_snapshot}")

    if section.pair is not None:
        u, v, t = section.pair
        verdict = distinguishable(left, u, v, t, steps=steps)
        lines.append(f"distinguishable(left, {u}, {v}, t={t}): {verdict}")

    spectral = {}
    for name, graph in (("left", left), ("right", right)):
        if graph.topology_fixed and graph.features is not None:
            rep = check_spectral_conditions(graph)
            spectral[name] = {
                "repeated_eigenvalues": rep.repeated_eigenvalues,
                "missing_components": [list(map(int, pair))
                                       for pair in rep.missing_components],
            }
            lines.append(f"{name}: repeated eigenvalues {rep.repeated_eigenvalues}")
        else:
            lines.append(f"{name}: spectral conditions not applicable "
                         "(needs fixed topology and features)")

    _write_json(run.path("twl.json"), {
        "left": section.left, "right": section.right, "verdict": report.verdict,
        "rounds": report.rounds, "spectral": spectral})
    print("\n".join(lines))


def cmd_synth(run: Run) -> None:
    preset = ex.SILHOUETTE_PRESET
    section = run.read("synth", SynthSection,
                       seeds=list(range(run.seed, run.seed + DEFAULT_SEEDS)))
    # The silhouette preset fills every key the task and train sections omit.
    task = run.read("task", ex.SynthTask, noise_sigma=preset["noise_sigma"])
    tc = run.read_train_per_seed(
        "synth.seeds", **{key: preset[key] for key in ("lr", "epochs", "batch_size")})

    rows, first = [], None
    for seed in section.seeds:
        result = ex.signed_groups_experiment(task, seed, tc=tc, n_eval=section.n_eval)
        first = first or result
        rows.append({"seed": seed,
                     "model_silhouette": result["model_silhouette"],
                     "control_silhouette": result["control_silhouette"],
                     "model_wins": result["model_silhouette"]
                                   > result["control_silhouette"]})
    run.write_csv("silhouettes.csv", list(rows[0]), rows)

    labels = first["labels"]
    for tag in ("model", "control"):
        wide = first[f"{tag}_embeddings"]
        run.write_csv(f"embeddings_{tag}.csv",
                      ["node_id", "group"] + [f"f{j}" for j in range(wide.shape[1])],
                      ([i, int(labels[i])] + [repr(float(v)) for v in wide[i]]
                       for i in range(wide.shape[0])))
        last = first["bundle"].test_windows.inputs[-1]
        rep = mc.embed(last, first[f"{tag}_state"], first[f"{tag}_config"])
        run.write_csv(f"embeddings_{tag}_long.csv", ["node_id", "t", "dim", "value"],
                      _long_rows(rep))
    run.write_csv("labels.csv", ["node_id", "group"],
                  ([i, int(g)] for i, g in enumerate(labels)))

    run.effective["dataset"] = first["bundle"].manifest(section.seeds[0])
    for r in rows:
        print(f"seed {r['seed']}: model {r['model_silhouette']:+.4f} "
              f"control {r['control_silhouette']:+.4f}")
    print(f"model wins {sum(r['model_wins'] for r in rows)}/{len(rows)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectemp",
        description="Spectral-temporal graph forecasting experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "train": (cmd_train, "train a model and report test metrics"),
        "ablate": (cmd_ablate, "run one ablation axis across seeds"),
        "theory": (cmd_theory, "column sampling, orthogonality, density, race"),
        "twl": (cmd_twl, "temporal WL refinement on DTDG files"),
        "synth": (cmd_synth, "signed-groups embedding separation experiment"),
        "forecast": (cmd_forecast, "forecast from a saved checkpoint"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted config override, repeatable")
        p.add_argument("--out", help="output directory "
                                     f"(default spectemp_out/{name})")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
    return parser


def _missing_dirs(path: str) -> list[str]:
    """The directories ``os.makedirs(path)`` would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    """Run one command. A failed run exits 2, 3 or 4 and removes the
    output directories it created, as long as they are still empty."""
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    created = []
    try:
        run = Run(args, load_config(args))
        created = _missing_dirs(run.out)
        os.makedirs(run.out, exist_ok=True)
        args.func(run)
        run.write_manifest(time.perf_counter() - started)
        return 0
    except (ConfigError, ParameterError, ShapeError) as err:
        code, message = 2, f"error: {err}"
    except (DataError, OSError) as err:
        code, message = 3, f"data error: {err}"
    except NumericalError as err:
        code, message = 4, f"numerical error: {err}"
    print(message, file=sys.stderr)
    for path in created:
        try:
            os.rmdir(path)
        except FileNotFoundError:  # makedirs failed before it got there
            pass
        except OSError:  # not empty: it holds what the run wrote before it failed
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
