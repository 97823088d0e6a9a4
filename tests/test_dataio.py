"""Dataset loading, normalization, splitting, windowing, synthesis, metrics."""

import numpy as np
import pytest

from spectemp.dataio import (Dataset, compute_norm_stats, dataset_manifest,
                             denormalize, forecast_errors, load_csv,
                             make_windows, normalize, persistence_baseline,
                             save_csv, split, synth_signed_groups)
from spectemp.errors import DataError, ParameterError, ShapeError


def linear_dataset(n=3, length=40, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length, 1)).cumsum(axis=1)
    return Dataset(values=values, name="walk")


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------

def test_load_csv_time_major(tmp_path):
    path = tmp_path / "series.csv"
    rows = ["%f,%f,%f" % (i, 10 * i, 100 * i) for i in range(10)]
    path.write_text("\n".join(rows) + "\n")
    ds = load_csv(path)
    assert ds.values.shape == (3, 10, 1)
    assert ds.values[1, 4, 0] == pytest.approx(40.0)


def test_load_csv_rejects_nan_by_default(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nnan,3.0\n")
    with pytest.raises(DataError, match="NaN at variable 0"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_load_csv_rejects_infinite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(DataError, match="line 3, column 2"):
        load_csv(path, impute="ffill")


def test_load_csv_ffill_imputation(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text("1.0,2.0\nnan,3.0\n5.0,4.0\n")
    ds = load_csv(path, impute="ffill")
    assert ds.values[0, 1, 0] == pytest.approx(1.0)


def ffill_oracle(table):
    """The replaced per-element forward fill, kept as the oracle."""
    table = table.copy()
    for series in table:
        valid = np.flatnonzero(~np.isnan(series))
        series[:valid[0]] = series[valid[0]]
        for t in range(1, series.size):
            if np.isnan(series[t]):
                series[t] = series[t - 1]
    return table


def write_table(path, table, layout):
    rows = table.T if layout == "time_major" else table
    path.write_text("".join(",".join("nan" if np.isnan(x) else repr(float(x)) for x in row)
                            + "\n" for row in rows))


@pytest.mark.parametrize("layout", ["time_major", "variable_major"])
def test_load_csv_ffill_matches_the_per_element_fill(tmp_path, layout):
    rng = np.random.default_rng(11)
    path = tmp_path / "gappy.csv"
    for _ in range(30):
        n, length = rng.integers(1, 6), rng.integers(1, 25)
        table = rng.standard_normal((n, length))
        table[rng.random((n, length)) < rng.uniform(0.0, 0.8)] = np.nan
        for row in table:
            lead, trail = rng.integers(0, length + 1, size=2)
            row[:lead] = np.nan                  # a leading gap
            row[length - trail:] = np.nan        # a trailing gap
            row[rng.integers(length)] = rng.standard_normal()   # one valid step
        write_table(path, table, layout)
        loaded = load_csv(path, layout=layout, impute="ffill").values[:, :, 0]
        assert np.array_equal(loaded, ffill_oracle(table))


def test_load_csv_ffill_names_the_first_entirely_nan_variable(tmp_path):
    table = np.arange(20.0).reshape(5, 4)
    table[[1, 3]] = np.nan
    table[0, 2] = np.nan
    path = tmp_path / "empty.csv"
    write_table(path, table, "time_major")
    with pytest.raises(DataError, match="variable 1 is entirely NaN"):
        load_csv(path, impute="ffill")


@pytest.mark.parametrize("has_nan", [False, True])
def test_load_csv_rejects_an_unknown_impute(tmp_path, has_nan):
    path = tmp_path / "series.csv"
    path.write_text(f"1.0,2.0\n{'nan' if has_nan else '3.0'},4.0\n")
    with pytest.raises(ParameterError, match="'fill'"):
        load_csv(path, impute="fill")


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1.0,2.0\n3.0,\xb04.0\n".encode("latin-1"))
    with pytest.raises(DataError, match="unreadable CSV"):
        load_csv(path)


def test_load_csv_rejects_a_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text('"' + "1" * 200_000 + '"\n')
    with pytest.raises(DataError, match="unreadable CSV"):
        load_csv(path)


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # read as text, the mark made "\ufeff1.0" a non-numeric first cell, so
    # the first data row was taken for a header and dropped
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ds = load_csv(path)
    assert ds.values[:, :, 0].tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
    assert ds.name == "bom"


def test_csv_roundtrip(tmp_path):
    ds = linear_dataset()
    path = tmp_path / "walk.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.allclose(back.values, ds.values, atol=1e-12)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_zscore_normalization_statistics():
    ds = linear_dataset(seed=1)
    stats = compute_norm_stats(ds, "zscore")
    normed = normalize(ds, stats)
    means = normed.values.mean(axis=1)
    stds = normed.values.std(axis=1)
    assert np.abs(means).max() < 1e-9
    assert np.abs(stds - 1.0).max() < 1e-9


def test_minmax_normalization_range():
    ds = linear_dataset(seed=2)
    normed = normalize(ds, compute_norm_stats(ds, "minmax"))
    assert normed.values.min() >= -1e-12
    assert normed.values.max() <= 1.0 + 1e-12


def test_normalization_inverse_is_exact():
    ds = linear_dataset(seed=3)
    for method in ("zscore", "minmax"):
        stats = compute_norm_stats(ds, method)
        normed = normalize(ds, stats)
        assert np.abs(denormalize(normed.values, stats) - ds.values).max() < 1e-10


def test_zscore_constant_variable_uses_unit_scale():
    values = np.ones((2, 10, 1))
    values[1] = np.arange(10).reshape(1, 10, 1)
    stats = compute_norm_stats(Dataset(values=values), "zscore")
    assert stats.scale[0, 0, 0] == 1.0
    assert 0 in stats.degenerate
    values = np.concatenate([values, values[:1], values[1:]])
    for method in ("zscore", "minmax"):
        assert compute_norm_stats(Dataset(values=values), method).degenerate == (0, 2)


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        compute_norm_stats(linear_dataset(), "box-cox")


# ---------------------------------------------------------------------------
# splits and windows
# ---------------------------------------------------------------------------

def test_split_60_20_20():
    ds = linear_dataset(length=100)
    a, b, c = split(ds, (0.6, 0.2, 0.2))
    assert (a.length, b.length, c.length) == (60, 20, 20)
    glued = np.concatenate([a.values, b.values, c.values], axis=1)
    assert np.array_equal(glued, ds.values)


def test_split_70_20_10():
    ds = linear_dataset(length=1000)
    a, b, c = split(ds, (0.7, 0.2, 0.1))
    assert (a.length, b.length, c.length) == (700, 200, 100)


def test_split_rejects_bad_ratios():
    with pytest.raises(ParameterError):
        split(linear_dataset(), (0.5, 0.2, 0.2))


def test_window_count_minimal():
    ds = linear_dataset(length=15)
    windows = make_windows(ds, 12, 3)
    assert windows.count == 1


def test_window_count_formula():
    ds = linear_dataset(length=20)
    windows = make_windows(ds, 12, 3, stride=1)
    assert windows.count == 6
    assert make_windows(ds, 12, 3, stride=2).count == 3


def test_windows_align_targets_to_input_end():
    ds = linear_dataset(length=30, seed=4)
    windows = make_windows(ds, 5, 2)
    for i, origin in enumerate(windows.origins):
        assert np.array_equal(windows.inputs[i],
                              ds.values[:, origin:origin + 5, :])
        assert np.array_equal(windows.targets[i],
                              ds.values[:, origin + 5:origin + 7, :])


def test_windows_impossible_geometry():
    with pytest.raises(ParameterError):
        make_windows(linear_dataset(length=10), 12, 3)


def stacked_windows(values, lookback, horizon, stride):
    """The copying construction ``make_windows`` replaced, kept as its oracle."""
    count = (values.shape[1] - lookback - horizon) // stride + 1
    inputs = np.stack([values[:, i * stride:i * stride + lookback, :]
                       for i in range(count)])
    targets = np.stack([values[:, i * stride + lookback:i * stride + lookback + horizon, :]
                        for i in range(count)])
    return inputs, targets, np.arange(count) * stride


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 5])
@pytest.mark.parametrize("dims", [1, 3])
@pytest.mark.parametrize("length", [11, 12, 16, 47])
def test_windows_match_stacked_copies(stride, dims, length):
    """Length 11 at T=7, H=4 gives exactly one window for every stride."""
    values = np.random.default_rng(length * dims + stride).standard_normal(
        (4, length, dims))
    windows = make_windows(Dataset(values=values), 7, 4, stride=stride)
    inputs, targets, origins = stacked_windows(values, 7, 4, stride)
    assert _same_bits(windows.inputs, inputs)
    assert _same_bits(windows.targets, targets)
    assert _same_bits(windows.origins, origins)
    if length == 11:
        assert windows.count == 1


def test_windows_are_read_only_views_of_the_split():
    train, _, _ = split(linear_dataset(length=60, seed=6), (0.6, 0.2, 0.2))
    windows = make_windows(train, 6, 2, stride=2)
    assert np.shares_memory(windows.inputs, train.values)
    assert np.shares_memory(windows.targets, train.values)
    before = train.values.copy()
    with pytest.raises(ValueError):
        windows.inputs[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        windows.targets[0, 0, 0, 0] = 1.0
    assert np.array_equal(train.values, before)
    # a gathered batch is a writable copy
    batch = windows.inputs[np.array([2, 0])]
    assert batch.flags.writeable and not np.shares_memory(batch, train.values)


def test_windows_deterministic():
    ds = linear_dataset(length=25, seed=5)
    a = make_windows(ds, 6, 2)
    b = make_windows(ds, 6, 2)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.origins, b.origins)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_shapes_and_labels():
    ds = synth_signed_groups(4, 200, noise_sigma=0.1, seed=0)
    assert ds.values.shape == (8, 200, 1)
    assert np.array_equal(ds.labels, [0, 0, 0, 0, 1, 1, 1, 1])


def test_synth_noise_free_correlation_structure():
    ds = synth_signed_groups(3, 1000, noise_sigma=0.0, seed=1)
    flat = ds.values[:, :, 0]
    corr = np.corrcoef(flat)
    within = corr[0, 1], corr[0, 2], corr[3, 4], corr[3, 5]
    cross = corr[0, 3], corr[1, 4], corr[2, 5]
    assert min(within) > 1.0 - 1e-9
    assert max(abs(c) for c in cross) < 1e-6


def test_synth_statistical_correlation_with_noise():
    ds = synth_signed_groups(4, 2000, noise_sigma=0.1, seed=2)
    flat = ds.values[:, :, 0]
    corr = np.abs(np.corrcoef(flat))
    labels = ds.labels
    same = [corr[i, j] for i in range(8) for j in range(i + 1, 8)
            if labels[i] == labels[j]]
    diff = [corr[i, j] for i in range(8) for j in range(i + 1, 8)
            if labels[i] != labels[j]]
    assert np.mean(same) > 0.8
    assert np.mean(diff) < 0.3


def test_synth_reproducible():
    a = synth_signed_groups(2, 300, noise_sigma=0.2, seed=7)
    b = synth_signed_groups(2, 300, noise_sigma=0.2, seed=7)
    assert np.array_equal(a.values, b.values)


def test_synth_amplitudes_in_documented_range():
    ds = synth_signed_groups(50, 400, noise_sigma=0.0, seed=3)
    amps = np.abs(ds.values[:, :, 0]).max(axis=1)
    assert amps.min() > 0.45 and amps.max() < 2.05


# ---------------------------------------------------------------------------
# baseline and metrics
# ---------------------------------------------------------------------------

def test_persistence_constant_series():
    values = np.full((2, 20, 1), 5.0)
    windows = make_windows(Dataset(values=values), 6, 3)
    predicted = persistence_baseline(windows)
    assert forecast_errors(predicted, windows.targets)["mae"] == 0.0


def test_persistence_ramp_hand_value():
    values = np.arange(20, dtype=float).reshape(1, 20, 1)
    windows = make_windows(Dataset(values=values), 6, 3)
    predicted = persistence_baseline(windows)
    assert predicted.shape == windows.targets.shape
    assert forecast_errors(predicted, windows.targets)["mae"] == pytest.approx(2.0)


def test_mae_rmse_hand_values():
    scores = forecast_errors(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    assert scores["mae"] == pytest.approx(1.5)
    assert scores["rmse"] == pytest.approx(np.sqrt(2.5))


def test_rmse_dominates_mae():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        scores = forecast_errors(a, b)
        assert scores["rmse"] >= scores["mae"] - 1e-12


def test_metric_shape_mismatch():
    with pytest.raises(ShapeError):
        forecast_errors(np.ones(3), np.ones(4))


def test_forecast_errors_on_window_views_match_two_subtractions():
    rng = np.random.default_rng(9)
    windows = make_windows(Dataset(values=rng.standard_normal((5, 60, 2))), 8, 3)
    actual = windows.targets
    assert not actual.flags.writeable and not actual.flags.c_contiguous
    predicted = rng.standard_normal(actual.shape)
    assert forecast_errors(predicted, actual) == {
        "mae": float(np.abs(predicted - actual).mean()),
        "rmse": float(np.sqrt(((predicted - actual) ** 2).mean()))}


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_fields():
    ds = synth_signed_groups(2, 100, seed=9)
    stats = compute_norm_stats(ds, "zscore")
    manifest = dataset_manifest(ds, stats, seed=9)
    assert manifest["n_variables"] == 4
    assert manifest["length"] == 100
    assert manifest["normalization"] == "zscore"
    assert manifest["seed"] == 9
    assert "split_ratios" not in manifest
    assert manifest["labels"] == [0, 0, 1, 1]
