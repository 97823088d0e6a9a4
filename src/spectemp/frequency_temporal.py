"""Frequency-domain temporal filtering for multivariate windows.

Series live in arrays shaped (N, T, D): N variables, T time steps, D
feature dimensions. The discrete Fourier transform follows the unnormalized
forward convention

    F(k) = sum_t x(t) exp(-2 pi i k t / T),      x(t) = (1/T) sum_k F(k) exp(+2 pi i k t / T),

computed by `numpy.fft` (``fft``/``ifft``) for every length. The model
itself never calls these: it folds mode selection into dense S x T kernels.

Two filtering pipelines share one spectral core: two private steps keep
the S listed modes of the window's transform and rebuild a real series
from S modes (scatter into zeros, invert, real part); between them the
kept modes are multiplied by per-variable complex S x S weights.

* coarse: applied to the raw window;
* fine:   the window is first split into trend (moving average, the first
  w-1 outputs zero-padded) and seasonal parts, the seasonal part is
  filtered, and the trend is added back.

`spectral_attention` is the nonlinear variant of the fine stage: queries
come from the trend, keys/values from the seasonal part, attention happens
over the retained modes, and the result is added onto the trend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "TemporalFDMParams",
    "ColumnSamplingReport",
    "dft",
    "idft",
    "moving_average_matrix",
    "decompose",
    "coarse_fdm",
    "fine_fdm",
    "spectral_attention",
    "column_sampling_check",
]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _transform(fft, values, axis: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape[axis] == 0:
        raise ShapeError("cannot transform an empty axis")
    return fft(arr, axis=axis)


def dft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized forward transform along ``axis``."""
    return _transform(np.fft.fft, x, axis)


def idft(f: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse transform (the 1/T convention)."""
    return _transform(np.fft.ifft, f, axis)


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemporalFDMParams:
    """Parameters of one frequency-domain temporal stage.

    weights is complex with shape (N or 1, D or 1, S, S); size-1 leading
    axes share one filter across variables and/or feature dimensions.
    attention, when present, holds the three real (T, T) time-mixing
    projections of the nonlinear stage (query, key, value).
    """

    mode_indices: np.ndarray
    weights: np.ndarray
    decomp_window: int = 1
    attention: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        idx = np.asarray(self.mode_indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=np.complex128)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError(f"weights must be (N|1, D|1, S, S), got {w.shape}")
        if idx.ndim != 1 or idx.size != w.shape[2]:
            raise ShapeError("weights mode axis must match the number of mode indices")
        if idx.size and (idx.min() < 0 or np.unique(idx).size != idx.size):
            raise ParameterError(f"mode indices must be unique and >= 0, got {idx}")
        if self.decomp_window < 1:
            raise ParameterError("decomposition window must be >= 1")
        object.__setattr__(self, "mode_indices", idx)
        object.__setattr__(self, "weights", w)


def lowest_modes(t: int, s: int) -> np.ndarray:
    """Default mode policy: the S lowest frequency indices."""
    if not 1 <= s <= t:
        raise ParameterError(f"mode count must lie in [1, T], got S={s}, T={t}")
    return np.arange(s, dtype=np.intp)


# ---------------------------------------------------------------------------
# trend / seasonal decomposition
# ---------------------------------------------------------------------------

def moving_average_matrix(t: int, window: int) -> np.ndarray:
    """(T, T) operator: row i averages entries i-w+1..i, zero for i < w-1."""
    if not 1 <= window <= t:
        raise ParameterError(f"window must lie in [1, T], got w={window}, T={t}")
    mat = np.zeros((t, t))
    for i in range(window - 1, t):
        mat[i, i - window + 1:i + 1] = 1.0 / window
    return mat


def decompose(z: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., T, D) into (trend, seasonal); they sum back exactly."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim < 2:
        raise ShapeError("decompose expects at least (T, D)")
    mat = moving_average_matrix(arr.shape[-2], window)
    trend = np.einsum("ts,...sd->...td", mat, arr)
    return trend, arr - trend


# ---------------------------------------------------------------------------
# filtering pipelines
# ---------------------------------------------------------------------------

def _keep_modes(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The listed modes of an (N, T, D) window's transform, as (N, S, D)."""
    spectrum = dft(z, axis=1)
    if idx.size and idx.max() >= spectrum.shape[1]:
        raise ParameterError(
            f"mode indices must lie within [0, {spectrum.shape[1]}), got {idx}")
    return spectrum[:, idx, :]


def _rebuild(kept: np.ndarray, idx: np.ndarray, t: int) -> np.ndarray:
    """Scatter (N, S, D) modes into zeros of length T, invert, real part."""
    full = np.zeros((kept.shape[0], t, kept.shape[2]), dtype=np.complex128)
    full[:, idx, :] = kept
    return idft(full, axis=1).real


def _filter_modes(z: np.ndarray, params: TemporalFDMParams) -> np.ndarray:
    """keep modes -> complex weights -> rebuild."""
    n, t, d = z.shape
    idx = params.mode_indices
    w = np.broadcast_to(params.weights, (n, d) + params.weights.shape[2:])
    filtered = np.einsum("nid,ndij->njd", _keep_modes(z, idx), w)
    return _rebuild(filtered, idx, t)


def coarse_fdm(z: np.ndarray, params: TemporalFDMParams) -> np.ndarray:
    """Filter the raw window over its retained frequency modes."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"window must be (N, T, D), got {arr.shape}")
    return _filter_modes(arr, params)


def fine_fdm(z: np.ndarray, params: TemporalFDMParams) -> np.ndarray:
    """Trend + filtered seasonal component."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"window must be (N, T, D), got {arr.shape}")
    trend, seasonal = decompose(arr, params.decomp_window)
    return trend + _filter_modes(seasonal, params)


def spectral_attention(trend: np.ndarray, seasonal: np.ndarray,
                       params: TemporalFDMParams) -> np.ndarray:
    """Mode-space attention between trend queries and seasonal keys/values.

    Scores are the real part of Q K^T over retained modes, scaled by
    sqrt(S * D); softmax rows mix the seasonal value modes, and the
    reconstructed result is added onto the trend.
    """
    if params.attention is None:
        raise ParameterError("params.attention must hold the three projections")
    zt = np.asarray(trend, dtype=np.float64)
    zs = np.asarray(seasonal, dtype=np.float64)
    if zt.shape != zs.shape or zt.ndim != 3:
        raise ShapeError("trend and seasonal parts must both be (N, T, D)")
    n, t, d = zt.shape
    idx = params.mode_indices
    proj_q, proj_k, proj_v = params.attention

    def project(mat, part):
        return _keep_modes(np.maximum(np.einsum("ij,njd->nid", mat, part), 0.0), idx)

    q = project(proj_q, zt)
    k = project(proj_k, zs)
    v = project(proj_v, zs)
    scores = np.einsum("nid,njd->nij", q, k).real / np.sqrt(idx.size * d)
    # initial=-inf admits an empty mode set, which rebuilds to zeros: the trend
    scores -= scores.max(axis=-1, keepdims=True, initial=-np.inf)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return zt + _rebuild(np.einsum("nij,njd->nid", weights, v), idx, t)


# ---------------------------------------------------------------------------
# column-sampling projection quality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnSamplingReport:
    """Monte Carlo check of the column-sampling projection bound.

    For random S-column subsets A' of A, compares
    lhs = ||A W - A' pinv(A') A W||_F against
    rhs = (1 + eps) ||W||_F ||A - A_k||_F with eps = c sqrt(k^2 / S), c = 1.
    """

    mean_lhs: float
    max_lhs: float
    rhs: float
    epsilon: float
    violation_rate: float
    trials: int


_TRIAL_BLOCK = 64  # trials batched through one stacked pinv


def column_sampling_check(a: np.ndarray, w: np.ndarray, k: int, s: int,
                          trials: int = 500, seed: int = 0) -> ColumnSamplingReport:
    a = np.asarray(a, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if a.ndim != 2 or w.ndim != 2 or w.shape[0] != a.shape[1]:
        raise ShapeError("need A (N, T) and W (T, M)")
    t = a.shape[1]
    if not 1 <= s <= t:
        raise ParameterError(f"sample size S must lie in [1, T], got {s}")
    if not 1 <= k <= min(a.shape):
        raise ParameterError(f"target rank k must lie in [1, min(N, T)], got {k}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")

    singular = np.linalg.svd(a, compute_uv=False)
    tail = float(np.sqrt((singular[k:] ** 2).sum()))
    epsilon = float(np.sqrt(k * k / s))
    rhs = (1.0 + epsilon) * float(np.linalg.norm(w)) * tail

    # The index sets are drawn one trial at a time, in order, from the one
    # generator; pinv and the products then run batched over a block of at
    # most _TRIAL_BLOCK trials, so memory stays bounded for any trial count.
    rng = np.random.default_rng(seed)
    aw = a @ w
    lhs_values = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        count = min(_TRIAL_BLOCK, trials - start)
        idx = np.stack([rng.choice(t, size=s, replace=False) for _ in range(count)])
        cols = a.T[idx].transpose(0, 2, 1)                # (count, N, S)
        projected = cols @ np.linalg.pinv(cols) @ aw
        lhs_values[start:start + count] = np.linalg.norm(aw - projected, axis=(1, 2))
    violations = float(np.mean(lhs_values > rhs))
    return ColumnSamplingReport(mean_lhs=float(lhs_values.mean()),
                                max_lhs=float(lhs_values.max()),
                                rhs=rhs, epsilon=epsilon,
                                violation_rate=violations, trials=trials)
