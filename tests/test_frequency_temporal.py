"""DFT suite, mode indices, decomposition, FDM stages, attention, and the
column-sampling bound."""

import numpy as np
import pytest

from spectemp import frequency_temporal
from spectemp.errors import ParameterError, ShapeError
from spectemp.frequency_temporal import (TemporalFDMParams, coarse_fdm,
                                         column_sampling_check, decompose, dft,
                                         fine_fdm, idft, lowest_modes,
                                         moving_average_matrix,
                                         spectral_attention)


def identity_params(t, s=None, window=1, n=1, d=1):
    s = t if s is None else s
    idx = lowest_modes(t, s)
    weights = np.broadcast_to(np.eye(s, dtype=np.complex128), (n, d, s, s)).copy()
    return TemporalFDMParams(mode_indices=idx, weights=weights,
                             decomp_window=window)


# ---------------------------------------------------------------------------
# DFT / IDFT
# ---------------------------------------------------------------------------

def test_dft_constant_series():
    out = dft(np.full(4, 2.5))
    assert np.allclose(out, [10.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_dft_delta_series():
    out = dft(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, 1.0, atol=1e-12)


def test_idft_unit_spectrum():
    t = 6
    f = np.zeros(t, dtype=np.complex128)
    f[0] = t
    assert np.allclose(idft(f), 1.0, atol=1e-12)


@pytest.mark.parametrize("t", [7, 8, 12, 64])
def test_dft_roundtrip_parseval_conjugate_symmetry(t):
    rng = np.random.default_rng(t)
    x = rng.standard_normal(t)
    f = dft(x)
    back = idft(f)
    assert np.abs(back.real - x).max() < 1e-9
    assert np.abs(back.imag).max() < 1e-9
    # Parseval with the unnormalized-forward convention
    assert abs((np.abs(x) ** 2).sum() - (np.abs(f) ** 2).sum() / t) < 1e-9
    for k in range(1, t):
        assert abs(f[k] - np.conj(f[t - k])) < 1e-10


def test_dft_matches_numpy_fft():
    rng = np.random.default_rng(9)
    for t in (1, 2, 5, 8, 13, 32, 48):
        x = rng.standard_normal(t) + 1j * rng.standard_normal(t)
        assert np.abs(dft(x) - np.fft.fft(x)).max() < 1e-9 * max(1.0, t)
        assert np.abs(idft(x) - np.fft.ifft(x)).max() < 1e-9


def test_dft_respects_axis_argument():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 8, 2))
    assert np.allclose(dft(x, axis=1), np.fft.fft(x, axis=1), atol=1e-10)


def test_dft_rejects_empty():
    with pytest.raises((ParameterError, ShapeError)):
        dft(np.array([]))


# ---------------------------------------------------------------------------
# mode indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("indices", [[1, 1], [-1, 2]], ids=["duplicate", "negative"])
def test_params_reject_duplicate_and_negative_indices(indices):
    with pytest.raises(ParameterError):
        TemporalFDMParams(mode_indices=np.array(indices),
                          weights=np.zeros((1, 1, 2, 2), dtype=complex))


def test_coarse_rejects_index_past_length():
    params = TemporalFDMParams(mode_indices=np.array([0, 4]),
                               weights=np.ones((1, 1, 2, 2), dtype=complex))
    with pytest.raises(ParameterError, match=r"\[0, 4\)"):
        coarse_fdm(np.ones((1, 4, 1)), params)


def test_empty_mode_set_filters_to_zero():
    params = TemporalFDMParams(mode_indices=np.array([], dtype=int),
                               weights=np.zeros((1, 1, 0, 0), dtype=complex))
    z = np.random.default_rng(12).standard_normal((2, 6, 1))
    assert np.all(coarse_fdm(z, params) == 0.0)


def test_empty_mode_set_attends_to_the_trend():
    rng = np.random.default_rng(13)
    attn = tuple(rng.standard_normal((6, 6)) for _ in range(3))
    params = TemporalFDMParams(mode_indices=np.array([], dtype=int),
                               weights=np.zeros((1, 1, 0, 0), dtype=complex),
                               attention=attn)
    trend, seasonal = rng.standard_normal((2, 2, 6, 1))
    assert np.array_equal(spectral_attention(trend, seasonal, params), trend)


# ---------------------------------------------------------------------------
# moving-average decomposition
# ---------------------------------------------------------------------------

def test_decompose_constant_series():
    z = np.full((1, 5, 1), 3.0)
    trend, seasonal = decompose(z, 3)
    assert np.allclose(trend[0, :, 0], [0.0, 0.0, 3.0, 3.0, 3.0])
    assert np.allclose(seasonal[0, :, 0], [3.0, 3.0, 0.0, 0.0, 0.0])


def test_decompose_window_one_is_all_trend():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((2, 6, 2))
    trend, seasonal = decompose(z, 1)
    assert np.array_equal(trend, z)
    assert np.all(seasonal == 0.0)


def test_decompose_ramp_hand_values():
    z = np.arange(4.0).reshape(1, 4, 1)
    trend, _ = decompose(z, 2)
    assert np.allclose(trend[0, :, 0], [0.0, 0.5, 1.5, 2.5])


def test_decompose_reconstructs_exactly():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((3, 9, 2))
    for w in (1, 2, 4, 9):
        trend, seasonal = decompose(z, w)
        assert np.abs(trend + seasonal - z).max() < 1e-12


def test_decompose_rejects_oversized_window():
    with pytest.raises(ParameterError):
        decompose(np.zeros((1, 4, 1)), 5)


def test_moving_average_matrix_rows():
    m = moving_average_matrix(5, 3)
    assert np.allclose(m[0], 0.0) and np.allclose(m[1], 0.0)
    assert np.allclose(m[2, :3], 1.0 / 3.0)
    assert np.allclose(m[4, 2:], 1.0 / 3.0)
    assert m.shape == (5, 5)


# ---------------------------------------------------------------------------
# coarse and fine FDM stages
# ---------------------------------------------------------------------------

def test_coarse_identity_map():
    rng = np.random.default_rng(16)
    z = rng.standard_normal((3, 8, 2))
    out = coarse_fdm(z, identity_params(8))
    assert np.abs(out - z).max() < 1e-10


def test_coarse_zero_weights():
    z = np.random.default_rng(17).standard_normal((2, 6, 1))
    params = TemporalFDMParams(mode_indices=lowest_modes(6, 6),
                               weights=np.zeros((1, 1, 6, 6), dtype=complex))
    assert np.all(coarse_fdm(z, params) == 0.0)


def test_coarse_linearity():
    rng = np.random.default_rng(18)
    z1 = rng.standard_normal((2, 8, 2))
    z2 = rng.standard_normal((2, 8, 2))
    w = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    params = TemporalFDMParams(mode_indices=lowest_modes(8, 3), weights=w)
    combined = coarse_fdm(2.0 * z1 - 3.0 * z2, params)
    parts = 2.0 * coarse_fdm(z1, params) - 3.0 * coarse_fdm(z2, params)
    assert np.abs(combined - parts).max() < 1e-9


def test_fine_identity_map():
    rng = np.random.default_rng(19)
    z = rng.standard_normal((2, 8, 1))
    out = fine_fdm(z, identity_params(8, window=3))
    assert np.abs(out - z).max() < 1e-10


def test_fine_pure_trend_passthrough():
    # window 1 makes the seasonal component zero, so any weights pass trend
    rng = np.random.default_rng(20)
    z = rng.standard_normal((2, 6, 1))
    w = rng.standard_normal((1, 1, 3, 3)) + 1j * rng.standard_normal((1, 1, 3, 3))
    params = TemporalFDMParams(mode_indices=lowest_modes(6, 3), weights=w,
                               decomp_window=1)
    assert np.abs(fine_fdm(z, params) - z).max() < 1e-10


def test_fine_matches_composed_primitives():
    rng = np.random.default_rng(21)
    n, t, d, s, w = 3, 12, 2, 5, 4
    z = rng.standard_normal((n, t, d))
    weights = (rng.standard_normal((n, d, s, s))
               + 1j * rng.standard_normal((n, d, s, s)))
    idx = lowest_modes(t, s)
    params = TemporalFDMParams(mode_indices=idx, weights=weights,
                               decomp_window=w)

    trend, seasonal = decompose(z, w)
    full = np.zeros((n, t, d), dtype=complex)
    full[:, idx] = np.einsum("nid,ndij->njd", dft(seasonal, axis=1)[:, idx], weights)
    rebuilt = idft(full, axis=1).real
    assert np.abs(fine_fdm(z, params) - (trend + rebuilt)).max() < 1e-10


def test_coarse_matches_composed_primitives():
    rng = np.random.default_rng(22)
    n, t, d, s = 2, 10, 1, 4
    z = rng.standard_normal((n, t, d))
    weights = (rng.standard_normal((n, d, s, s))
               + 1j * rng.standard_normal((n, d, s, s)))
    idx = lowest_modes(t, s)
    params = TemporalFDMParams(mode_indices=idx, weights=weights)
    full = np.zeros((n, t, d), dtype=complex)
    full[:, idx] = np.einsum("nid,ndij->njd", dft(z, axis=1)[:, idx], weights)
    rebuilt = idft(full, axis=1).real
    assert np.abs(coarse_fdm(z, params) - rebuilt).max() < 1e-10


# ---------------------------------------------------------------------------
# spectral attention
# ---------------------------------------------------------------------------

def attention_params(t, s, seed=0):
    rng = np.random.default_rng(seed)
    idx = lowest_modes(t, s)
    weights = np.broadcast_to(np.eye(s, dtype=complex), (1, 1, s, s)).copy()
    attn = tuple(np.eye(t) + 0.01 * rng.standard_normal((t, t))
                 for _ in range(3))
    return TemporalFDMParams(mode_indices=idx, weights=weights,
                             decomp_window=3, attention=attn)


def test_attention_zero_seasonal_returns_trend():
    rng = np.random.default_rng(23)
    trend = rng.standard_normal((2, 8, 1))
    out = spectral_attention(trend, np.zeros_like(trend), attention_params(8, 3))
    assert np.array_equal(out, trend)


def test_attention_output_shape_and_finite():
    rng = np.random.default_rng(24)
    trend = rng.standard_normal((3, 8, 2))
    seasonal = rng.standard_normal((3, 8, 2))
    out = spectral_attention(trend, seasonal, attention_params(8, 4, seed=1))
    assert out.shape == (3, 8, 2)
    assert np.all(np.isfinite(out))


def test_attention_requires_projections():
    z = np.zeros((1, 4, 1))
    with pytest.raises(ParameterError):
        spectral_attention(z, z, identity_params(4))


# ---------------------------------------------------------------------------
# column-sampling bound
# ---------------------------------------------------------------------------

def test_column_sampling_exact_rank_projects_exactly():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((32, 4)) @ rng.standard_normal((4, 64))
    w = rng.standard_normal((64, 3))
    report = column_sampling_check(a, w, k=4, s=32, trials=50, seed=0)
    assert report.max_lhs < 1e-8


def column_sampling_reference(a, w, s, trials, seed):
    """One pinv per trial, index sets drawn in trial order."""
    rng = np.random.default_rng(seed)
    aw = a @ w
    lhs = []
    for _ in range(trials):
        cols = a[:, rng.choice(a.shape[1], size=s, replace=False)]
        lhs.append(np.linalg.norm(aw - cols @ np.linalg.pinv(cols) @ aw))
    return np.array(lhs)


def test_column_sampling_matches_a_pinv_per_trial():
    # criterion 7's matrices: 500 trials span a partial last block, and the
    # rank-4 matrix makes every sampled column set rank deficient
    assert 500 % frequency_temporal._TRIAL_BLOCK
    rng = np.random.default_rng(107)
    a = rng.standard_normal((32, 64))
    w = rng.standard_normal((64, 16))
    exact = rng.standard_normal((32, 4)) @ rng.standard_normal((4, 64))
    for matrix, trials in ((a, 500), (exact, 50), (exact, 130)):
        report = column_sampling_check(matrix, w, k=4, s=32, trials=trials, seed=107)
        lhs = column_sampling_reference(matrix, w, 32, trials, 107)
        assert abs(report.mean_lhs - lhs.mean()) <= 1e-12 * max(1.0, lhs.mean())
        assert abs(report.max_lhs - lhs.max()) <= 1e-12 * max(1.0, lhs.max())
        assert report.violation_rate == np.mean(lhs > report.rhs)
        assert report.trials == trials


def test_column_sampling_zero_w():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((8, 16))
    report = column_sampling_check(a, np.zeros((16, 2)), k=2, s=8, trials=10)
    assert report.max_lhs == 0.0 and report.rhs == 0.0


def test_column_sampling_reports_epsilon():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((16, 32))
    w = rng.standard_normal((32, 2))
    report = column_sampling_check(a, w, k=3, s=16, trials=20)
    assert report.epsilon == pytest.approx(np.sqrt(9.0 / 16.0))
    assert 0.0 <= report.violation_rate <= 1.0


def test_column_sampling_rejects_bad_geometry():
    a = np.ones((4, 6))
    w = np.ones((6, 1))
    with pytest.raises(ParameterError):
        column_sampling_check(a, w, k=2, s=7, trials=5)
    with pytest.raises(ParameterError):
        column_sampling_check(a, w, k=5, s=3, trials=5)
    for trials in (0, -3):
        with pytest.raises(ParameterError, match="trial"):
            column_sampling_check(a, w, k=2, s=3, trials=trials)
    with pytest.raises(ShapeError):
        column_sampling_check(a, np.ones((5, 1)), k=2, s=3, trials=5)
