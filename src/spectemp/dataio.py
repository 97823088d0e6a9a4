"""Dataset loading, normalization, chronological splits, and windowing.

Raw series are arrays shaped (N, L, D): N variables over L time steps with
D feature dimensions (CSV inputs always produce D = 1). Splits are
contiguous in time and normalization statistics always come from the
training split, so no information flows backwards from validation or test
data.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ParameterError, ShapeError

__all__ = [
    "Dataset",
    "NormStats",
    "WindowSet",
    "load_csv",
    "save_csv",
    "compute_norm_stats",
    "normalize",
    "denormalize",
    "split",
    "make_windows",
    "synth_signed_groups",
    "persistence_baseline",
    "forecast_errors",
    "dataset_manifest",
]


@dataclass(frozen=True)
class Dataset:
    """A named multivariate series plus optional side information."""

    values: np.ndarray              # (N, L, D)
    name: str = "dataset"
    labels: np.ndarray | None = None      # per-variable group labels

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise ShapeError(f"values must be (N, L, D), got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def n_variables(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    @property
    def n_dims(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class NormStats:
    """Per-variable affine transform: normalized = (x - loc) / scale."""

    method: str                  # "zscore" | "minmax"
    loc: np.ndarray              # (N, 1, D)
    scale: np.ndarray            # (N, 1, D), strictly positive
    degenerate: tuple = ()       # variable indices whose scale was patched to 1


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

LAYOUTS = ("time_major", "variable_major")
IMPUTES = (None, "ffill")
NORM_METHODS = ("zscore", "minmax")


def load_csv(path, layout: str = "time_major", impute: str | None = None) -> Dataset:
    """Parse a numeric CSV into a Dataset (D = 1) named after the file stem.

    time_major: rows are time steps, columns variables; variable_major is
    the transpose. NaN/empty cells raise DataError unless impute="ffill",
    which forward-fills per variable (leading gaps take the first valid
    value). A leading UTF-8 byte order mark is skipped. Infinite cells,
    bytes that are not UTF-8 and unparseable CSV always raise DataError;
    an unknown ``layout`` or ``impute`` raises ParameterError.
    """
    if layout not in LAYOUTS:
        raise ParameterError(f"unknown layout {layout!r}")
    if impute not in IMPUTES:
        raise ParameterError(f"unknown impute {impute!r}; expected one of {list(IMPUTES)}")
    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for line_no, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                parsed = []
                for col_no, cell in enumerate(row, start=1):
                    cell = cell.strip()
                    if cell == "" or cell.lower() == "nan":
                        parsed.append(np.nan)
                        continue
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        if line_no == 1:
                            parsed = None  # header row
                            break
                        raise DataError(
                            f"{path}: line {line_no}, column {col_no}: "
                            f"non-numeric cell {cell!r}") from None
                if parsed is not None:
                    rows.append((line_no, parsed))
    except (UnicodeDecodeError, csv.Error) as err:
        # bytes that are not UTF-8, or a field past the csv module's limit
        raise DataError(f"{path}: unreadable CSV: {err}") from None
    if not rows:
        raise DataError(f"{path}: no numeric rows")
    width = len(rows[0][1])
    for line_no, row in rows:
        if len(row) != width:
            raise DataError(f"{path}: line {line_no}: expected {width} columns,"
                            f" got {len(row)}")
    table = np.asarray([row for _, row in rows], dtype=np.float64)
    infinite = np.argwhere(np.isinf(table))
    if infinite.size:
        r, c = infinite[0]
        raise DataError(f"{path}: line {rows[r][0]}, column {c + 1}: "
                        f"non-finite cell {table[r, c]!r}")
    if layout == "time_major":
        table = table.T  # -> (N, L)
    missing = np.isnan(table)
    if missing.any():
        if impute != "ffill":
            var_idx, step_idx = np.nonzero(missing)
            raise DataError(
                f"{path}: NaN at variable {int(var_idx[0])}, step {int(step_idx[0])};"
                f" pass impute='ffill' to fill forward")
        empty = missing.all(axis=1)
        if empty.any():
            raise DataError(f"{path}: variable {int(np.argmax(empty))} is entirely NaN")
        # each cell reads the last valid step at or before it; a leading gap
        # reads the first valid step, which the running maximum then passes.
        # Filled in place, so the table keeps its memory layout.
        first = np.argmax(~missing, axis=1)[:, None]
        source = np.where(missing, first, np.arange(table.shape[1]))
        table[:] = np.take_along_axis(table, np.maximum.accumulate(source, axis=1), axis=1)
    return Dataset(values=table[:, :, None],
                   name=os.path.splitext(os.path.basename(str(path)))[0])


def save_csv(dataset: Dataset, path) -> None:
    """Write a D = 1 dataset time-major, the layout ``load_csv`` reads by default."""
    if dataset.n_dims != 1:
        raise ShapeError("CSV export supports D = 1 only")
    table = dataset.values[:, :, 0].T
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in table:
            writer.writerow([repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def compute_norm_stats(train: Dataset, method: str) -> NormStats:
    """Statistics from (what must be) the training split."""
    if method not in NORM_METHODS:
        raise ParameterError(f"unknown normalization {method!r}")
    v = train.values
    if method == "zscore":
        loc = v.mean(axis=1, keepdims=True)
        scale = v.std(axis=1, keepdims=True)
    else:
        loc = v.min(axis=1, keepdims=True)
        scale = v.max(axis=1, keepdims=True) - loc
    flat = scale.reshape(train.n_variables, -1)
    degenerate = tuple(np.flatnonzero((flat <= 1e-12).any(axis=1)).tolist())
    scale = np.where(scale > 1e-12, scale, 1.0)
    return NormStats(method=method, loc=loc, scale=scale, degenerate=degenerate)


def normalize(dataset: Dataset, stats: NormStats) -> Dataset:
    values = (dataset.values - stats.loc) / stats.scale
    return replace(dataset, values=values)


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map model-space values (..., N, T, D) back to the raw scale."""
    arr = np.asarray(values, dtype=np.float64)
    return arr * stats.scale + stats.loc


# ---------------------------------------------------------------------------
# splits and windows
# ---------------------------------------------------------------------------

def split(dataset: Dataset, ratios=(0.6, 0.2, 0.2)) -> tuple[Dataset, Dataset, Dataset]:
    """Chronological train/val/test split; lengths floor(L*r) with the
    remainder going to the last part."""
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise ParameterError(f"ratios must be three nonnegative values summing to 1,"
                             f" got {ratios}")
    length = dataset.length
    n_train = int(length * ratios[0])
    n_val = int(length * ratios[1])
    parts = []
    bounds = [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, length)]
    for tag, (lo, hi) in zip(("train", "val", "test"), bounds):
        parts.append(replace(dataset, values=dataset.values[:, lo:hi, :],
                             name=f"{dataset.name}.{tag}"))
    return tuple(parts)


@dataclass(frozen=True)
class WindowSet:
    """Sliding forecasting windows: inputs (B, N, T, D), targets (B, N, H, D)."""

    inputs: np.ndarray
    targets: np.ndarray
    origins: np.ndarray  # (B,) start index of each input window

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


def make_windows(dataset: Dataset, lookback: int, horizon: int,
                 stride: int = 1) -> WindowSet:
    """Windows starting every ``stride`` steps, as read-only views of
    ``dataset.values``: no window is copied. Gathering a batch by fancy
    indexing (``inputs[idx]``) makes the copy."""
    if lookback < 1 or horizon < 1 or stride < 1:
        raise ParameterError("lookback, horizon, and stride must be positive")
    length = dataset.length
    count = (length - lookback - horizon) // stride + 1
    if count < 1:
        raise ParameterError(
            f"series of length {length} is too short for T={lookback}, H={horizon}")
    # (N, L - W + 1, D, W) -> every stride-th start -> (B, N, W, D); no copy
    spans = np.lib.stride_tricks.sliding_window_view(
        dataset.values, lookback + horizon, axis=1)
    spans = spans[:, ::stride].transpose(1, 0, 3, 2)
    inputs, targets = spans[:, :, :lookback], spans[:, :, lookback:]
    origins = np.arange(count) * stride
    return WindowSet(inputs=inputs, targets=targets, origins=origins)


# ---------------------------------------------------------------------------
# synthetic generator and baseline
# ---------------------------------------------------------------------------

def synth_signed_groups(n_per_group: int, length: int, noise_sigma: float = 0.1,
                        seed: int = 0, periods: int = 20) -> Dataset:
    """Two groups of oscillating series with a quarter-period offset.

    Group 0 follows a_i sin(2 pi * periods * t / length), group 1 follows
    b_i cos(...), amplitudes drawn uniformly from [0.5, 2.0], plus white
    noise of the given sigma. Labels mark group membership.
    """
    if n_per_group < 1 or length < 2:
        raise ParameterError("need at least one series per group and length >= 2")
    rng = np.random.default_rng(seed)
    phase = 2.0 * np.pi * periods * np.arange(length) / length
    amplitudes = rng.uniform(0.5, 2.0, size=2 * n_per_group)
    values = np.empty((2 * n_per_group, length, 1))
    for i in range(n_per_group):
        values[i, :, 0] = amplitudes[i] * np.sin(phase)
    for i in range(n_per_group, 2 * n_per_group):
        values[i, :, 0] = amplitudes[i] * np.cos(phase)
    values += noise_sigma * rng.standard_normal(values.shape)
    labels = np.repeat([0, 1], n_per_group)
    return Dataset(values=values, name="synth_signed_groups", labels=labels)


def persistence_baseline(windows: WindowSet) -> np.ndarray:
    """Repeat each window's last observation across the horizon."""
    last = windows.inputs[:, :, -1:, :]
    horizon = windows.targets.shape[2]
    return np.repeat(last, horizon, axis=2)


def forecast_errors(predicted: np.ndarray, actual: np.ndarray) -> dict:
    """MAE and RMSE over every entry, both from one ``predicted - actual``."""
    predicted, actual = np.asarray(predicted), np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ShapeError(f"shape mismatch {predicted.shape} vs {actual.shape}")
    error = predicted - actual
    return {"mae": float(np.abs(error).mean()),
            "rmse": float(np.sqrt((error ** 2).mean()))}


def dataset_manifest(dataset: Dataset, stats: NormStats | None = None,
                     seed: int | None = None) -> dict:
    """The ``dataset`` record of a run's manifest: name, shape, the
    normalization method ("none" when ``stats`` is None) and any degenerate
    variables, the seed and the group labels. The split ratios are not
    repeated here: every command that writes this record also records the
    ``task`` section, whose ``ratios`` cut the split."""
    manifest = {
        "name": dataset.name,
        "n_variables": dataset.n_variables,
        "length": dataset.length,
        "n_dims": dataset.n_dims,
        "normalization": stats.method if stats else "none",
    }
    if stats is not None and stats.degenerate:
        manifest["degenerate_variables"] = list(stats.degenerate)
    if seed is not None:
        manifest["seed"] = seed
    if dataset.labels is not None:
        manifest["labels"] = np.asarray(dataset.labels).tolist()
    return manifest
