"""The spectral-temporal forecasting model.

One block chains a polynomial graph convolution (node mixing) with two
frequency-domain temporal stages: a coarse stage filtering the raw window
and a fine stage filtering the seasonal component on top of the trend.
The nonlinear variant inserts a rectified-linear activation after the
graph convolution and swaps the fine stage's fixed complex weights for
mode-space attention between trend queries and seasonal keys/values.
Blocks stack with additive residual connections, and a shared linear head
maps each variable's flattened representation (T*D) to its forecast
(H*D).

The forward pass is written against the tape ops in `autodiff`, so the
same code serves inference (constant parameters) and training (parameters
wrapped with gradients enabled). Complex filter weights are stored as
separate real and imaginary arrays.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, ParameterError, ShapeError
from .frequency_temporal import lowest_modes, moving_average_matrix
from .spectral_graph import (Adjacency, Recurrence, basis_recurrence,
                             normalized_laplacian, polynomial_stack)

__all__ = [
    "ModelConfig",
    "ModelState",
    "latent_correlation",
    "windowed_mean_correlation",
    "init_state",
    "forward",
    "embed",
    "tggc_block",
    "loss",
    "reported_loss",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"STCK"
CHECKPOINT_VERSION = 1
_PREAMBLE_BYTES = 16        # magic, u32 version, u64 header length


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and data-geometry settings (training knobs live apart)."""

    lookback: int = 12
    horizon: int = 3
    n_dims: int = 1
    blocks: int = 2
    degree: int = 4
    alpha: float = 1.0
    basis: str = "gegenbauer"
    jacobi_a: float | None = None
    jacobi_b: float | None = None
    n_modes: int = 5
    mode_policy: str = "lowest"          # "lowest" | "random"
    decomp_window: int = 3
    variant: str = "linear"              # "linear" | "nonlinear"
    use_relu: bool | None = None         # override; default follows variant
    use_attention: bool | None = None    # override; default follows variant
    residual: bool = True
    adjacency_mode: str = "pearson"      # "pearson" | "learned" | "provided"
    embed_dim: int = 16                  # learned-adjacency embedding width
    projector: str = "dft"               # "dft" | "random"
    use_coarse: bool = True
    use_fine: bool = True
    share_theta_dims: bool = False       # one coefficient column for all dims
    share_filter_dims: bool = False      # one temporal filter per variable
    share_filter_vars: bool = False      # one temporal filter for all variables
    monomial_on_laplacian: bool = False

    def __post_init__(self):
        try:
            self.recurrence()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if self.variant not in ("linear", "nonlinear"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.adjacency_mode not in ("pearson", "learned", "provided"):
            raise ConfigError(f"unknown adjacency mode {self.adjacency_mode!r}")
        if self.projector not in ("dft", "random"):
            raise ConfigError(f"unknown projector {self.projector!r}")
        if self.mode_policy not in ("lowest", "random"):
            raise ConfigError(f"unknown mode policy {self.mode_policy!r}")
        if not 1 <= self.n_modes <= self.lookback:
            raise ConfigError(f"n_modes must lie in [1, lookback], got {self.n_modes}")
        if not 1 <= self.decomp_window <= self.lookback:
            raise ConfigError("decomp_window must lie in [1, lookback]")
        if self.blocks < 1 or self.degree < 0:
            raise ConfigError("blocks must be >= 1 and degree >= 0")

    def recurrence(self) -> Recurrence:
        return basis_recurrence(self.basis, self.degree, self.alpha, self.jacobi_a,
                                self.jacobi_b, self.monomial_on_laplacian)

    @property
    def relu_enabled(self) -> bool:
        return self.variant == "nonlinear" if self.use_relu is None else self.use_relu

    @property
    def attention_enabled(self) -> bool:
        return (self.variant == "nonlinear" if self.use_attention is None
                else self.use_attention)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ModelState:
    """Parameters plus the static operators derived from config and data."""

    params: dict                    # name -> float64 ndarray
    n_nodes: int
    mode_sets: tuple                # per block: (coarse indices, fine indices)
    a_hat: np.ndarray | None = None       # I - L for pearson/provided modes
    laplacian: np.ndarray | None = None
    projector_matrix: np.ndarray | None = None  # orthogonal rows, random projector
    frozen: frozenset = frozenset()

    def trainable(self) -> dict:
        return {k: v for k, v in self.params.items() if k not in self.frozen}


# ---------------------------------------------------------------------------
# adjacency construction
# ---------------------------------------------------------------------------

def latent_correlation(x: np.ndarray, embedding: np.ndarray | None = None) -> Adjacency:
    """Data-driven adjacency for one (N, T, D) window.

    Default mode: |Pearson| correlations of the flattened (T*D) series with
    the diagonal zeroed; constant series get zero correlation with
    everything (rather than NaN). When ``embedding`` (a (T*D, E) weight
    matrix) is given, the learned mode runs instead: per-variable linear
    embedding, dot-product scores scaled by 1/sqrt(E), row softmax, then
    symmetrization and diagonal removal.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ShapeError(f"expected (N, T, D), got {arr.shape}")
    flat = arr.reshape(arr.shape[0], -1)
    if embedding is not None:
        w = np.asarray(embedding, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != flat.shape[1]:
            raise ShapeError(f"embedding must be (T*D, E), got {w.shape}")
        emb = flat @ w
        scores = emb @ emb.T / np.sqrt(w.shape[1])
        scores -= scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        attn = expd / expd.sum(axis=1, keepdims=True)
        sym = (attn + attn.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        return Adjacency(sym)
    centered = flat - flat.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=1))
    safe = np.where(norms > 1e-12, norms, 1.0)
    unit = centered / safe[:, None]
    corr = np.abs(unit @ unit.T)
    corr[norms <= 1e-12, :] = 0.0
    corr[:, norms <= 1e-12] = 0.0
    np.fill_diagonal(corr, 0.0)
    corr = np.clip((corr + corr.T) / 2.0, 0.0, 1.0)
    return Adjacency(corr)


def windowed_mean_correlation(values: np.ndarray, lookback: int,
                              max_windows: int = 64) -> Adjacency:
    """Average of |Pearson| adjacencies over evenly spaced training windows.

    This is what the trainer feeds the model in pearson mode: window-level
    correlations (which is what the model sees at run time) rather than one
    whole-split correlation, computed from training data only.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    length = arr.shape[1]
    if length < lookback:
        raise ShapeError("series shorter than one window")
    starts = np.unique(np.linspace(0, length - lookback,
                                   min(max_windows, length - lookback + 1),
                                   dtype=int))
    acc = np.zeros((arr.shape[0], arr.shape[0]))
    for s in starts:
        acc += latent_correlation(arr[:, s:s + lookback, :]).matrix
    acc /= len(starts)
    np.fill_diagonal(acc, 0.0)
    return Adjacency(acc)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _identity_coefficients(config: ModelConfig, width: int) -> np.ndarray:
    """Coefficients that make the filter the identity map.

    For bases with P_0 = 1 that is e_0; the Bernstein family sums to one,
    so all-ones coefficients reproduce the input.
    """
    theta = np.zeros((config.degree + 1, width))
    if config.basis == "bernstein":
        theta[:] = 1.0
    else:
        theta[0] = 1.0
    return theta


def _draw_modes(config: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    if config.mode_policy == "lowest":
        return lowest_modes(config.lookback, config.n_modes)
    idx = rng.choice(config.lookback, size=config.n_modes, replace=False)
    return np.sort(idx).astype(np.intp)


def init_state(config: ModelConfig, n_nodes: int, rng: np.random.Generator | int,
               train_values: np.ndarray | None = None,
               adjacency: np.ndarray | Adjacency | None = None) -> ModelState:
    """Identity-plus-noise initialization; adjacency resolved per config.

    pearson mode requires ``train_values`` (training-split series);
    provided mode requires ``adjacency``; learned mode adds an embedding
    parameter instead of a fixed operator.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    t, d, s = config.lookback, config.n_dims, config.n_modes
    # Noise scale keeps near-identity blocks within a few percent of the
    # identity map even after the polynomial stack amplifies order-k terms.
    sigma = 0.004

    a_hat = lap = None
    params: dict[str, np.ndarray] = {}
    if config.adjacency_mode == "provided":
        if adjacency is None:
            raise ConfigError("provided adjacency mode needs an adjacency")
        adj = adjacency if isinstance(adjacency, Adjacency) else Adjacency(adjacency)
        if adj.n_nodes != n_nodes:
            raise ShapeError("adjacency size does not match n_nodes")
        lap = normalized_laplacian(adj)
        a_hat = np.eye(n_nodes) - lap
    elif config.adjacency_mode == "pearson":
        if train_values is None:
            raise ConfigError("pearson adjacency mode needs training values")
        adj = windowed_mean_correlation(train_values, config.lookback)
        if adj.n_nodes != n_nodes:
            raise ShapeError("training values variable count does not match n_nodes")
        lap = normalized_laplacian(adj)
        a_hat = np.eye(n_nodes) - lap
    else:
        params["adjacency.embed"] = sigma * rng.standard_normal((t * d, config.embed_dim))

    theta_width = 1 if config.share_theta_dims else d
    filter_vars = 1 if config.share_filter_vars else n_nodes
    filter_dims = 1 if config.share_filter_dims else d

    mode_sets = []
    for m in range(config.blocks):
        idx_coarse = _draw_modes(config, rng)
        idx_fine = _draw_modes(config, rng)
        mode_sets.append((idx_coarse, idx_fine))
        params[f"block{m}.theta"] = (_identity_coefficients(config, theta_width)
                                     + sigma * rng.standard_normal((config.degree + 1,
                                                                    theta_width)))
        if config.use_coarse:
            params[f"block{m}.coarse_re"] = (np.eye(s)[None, None]
                                             + sigma * rng.standard_normal(
                                                 (filter_vars, filter_dims, s, s)))
            params[f"block{m}.coarse_im"] = sigma * rng.standard_normal(
                (filter_vars, filter_dims, s, s))
        if config.use_fine:
            if config.attention_enabled:
                for tag in ("q", "k", "v"):
                    params[f"block{m}.attn_{tag}"] = (np.eye(t)
                                                      + sigma * rng.standard_normal((t, t)))
            else:
                params[f"block{m}.fine_re"] = (np.eye(s)[None, None]
                                               + sigma * rng.standard_normal(
                                                   (filter_vars, filter_dims, s, s)))
                params[f"block{m}.fine_im"] = sigma * rng.standard_normal(
                    (filter_vars, filter_dims, s, s))

    params["head.weight"] = rng.standard_normal((t * d, config.horizon * d)) / np.sqrt(t * d)

    projector_matrix = None
    if config.projector == "random":
        raw = rng.standard_normal((t, t))
        q, r = np.linalg.qr(raw)
        projector_matrix = q * np.sign(np.diag(r))[None, :]
        projector_matrix = projector_matrix.T  # rows analyze, transpose reconstructs

    return ModelState(params=params, n_nodes=n_nodes, mode_sets=tuple(mode_sets),
                      a_hat=a_hat, laplacian=lap, projector_matrix=projector_matrix)


# ---------------------------------------------------------------------------
# spectral constants
# ---------------------------------------------------------------------------

def _stage_matrices(config: ModelConfig, state: ModelState, indices: np.ndarray):
    """(select_re, select_im, rebuild_re, rebuild_im) for one temporal stage.

    With the Fourier projector these fold mode selection into the transform:
    select_* are the S x T forward kernels and rebuild_* the T x S inverse
    kernels of the real/imaginary parts. The state's random orthogonal
    projector has no imaginary part.
    """
    t = config.lookback
    if config.projector == "dft":
        grid = 2.0 * np.pi * np.outer(indices, np.arange(t)) / t
        select_re = np.cos(grid)
        select_im = -np.sin(grid)
        rebuild_re = select_re.T / t
        rebuild_im = -select_im.T / t
        return select_re, select_im, rebuild_re, rebuild_im
    rows = state.projector_matrix[indices, :]
    zero = np.zeros_like(rows)
    return rows, zero, rows.T, zero.T


# ---------------------------------------------------------------------------
# forward pass (tape)
# ---------------------------------------------------------------------------

def _learned_operators(params: dict, x: np.ndarray, config: ModelConfig):
    """Per-sample (B, N, N) operators A_hat and L from the embedding weights."""
    b, n, t, d = x.shape
    xf = ad.reshape(ad.as_tensor(x), (b, n, t * d))
    emb = ad.embed_map(xf, params["adjacency.embed"])
    scores = ad.mul(ad.pair_scores(emb), 1.0 / np.sqrt(config.embed_dim))
    attn = ad.softmax_last(scores)
    sym = ad.mul(ad.add(attn, ad.transpose_last2(attn)), 0.5)
    mask = 1.0 - np.eye(n)
    adj = ad.mul(sym, mask)
    degrees = ad.sum_last(adj)                       # (B, N), positive off-diagonal
    inv_sqrt = ad.rsqrt_safe(degrees)
    left = ad.reshape(inv_sqrt, (b, n, 1))
    right = ad.reshape(inv_sqrt, (b, 1, n))
    a_hat = ad.mul(ad.mul(adj, left), right)
    lap = ad.sub(np.eye(n), a_hat)
    return a_hat, lap


def _filter_stage(z, weights_re, weights_im, mats):
    """transform -> complex per-variable weights -> inverse, on the tape."""
    select_re, select_im, rebuild_re, rebuild_im = mats
    f_re = ad.time_mix(select_re, z)
    f_im = ad.time_mix(select_im, z)
    g_re = ad.sub(ad.mode_filter(f_re, weights_re), ad.mode_filter(f_im, weights_im))
    g_im = ad.add(ad.mode_filter(f_re, weights_im), ad.mode_filter(f_im, weights_re))
    return ad.sub(ad.time_mix(rebuild_re, g_re), ad.time_mix(rebuild_im, g_im))


def _attention_stage(trend, seasonal, params, prefix, mats, config: ModelConfig, d: int):
    select_re, select_im, rebuild_re, rebuild_im = mats

    def project(name, part):
        mixed = ad.relu(ad.time_mix(params[name], part))
        return ad.time_mix(select_re, mixed), ad.time_mix(select_im, mixed)

    q_re, q_im = project(f"{prefix}.attn_q", trend)
    k_re, k_im = project(f"{prefix}.attn_k", seasonal)
    v_re, v_im = project(f"{prefix}.attn_v", seasonal)
    scores = ad.sub(ad.node_scores(q_re, k_re), ad.node_scores(q_im, k_im))
    scores = ad.mul(scores, 1.0 / np.sqrt(config.n_modes * d))
    attn = ad.softmax_last(scores)
    o_re = ad.node_apply(attn, v_re)
    o_im = ad.node_apply(attn, v_im)
    rebuilt = ad.sub(ad.time_mix(rebuild_re, o_re), ad.time_mix(rebuild_im, o_im))
    return ad.add(trend, rebuilt)


def _forward_graph(params: dict, x: np.ndarray, state: ModelState,
                   config: ModelConfig):
    """Tape forward; returns (prediction node, final representation node)."""
    b, n, t, d = x.shape
    if t != config.lookback or d != config.n_dims:
        raise ShapeError(f"window shape {x.shape[1:]} does not match config "
                         f"(N, {config.lookback}, {config.n_dims})")
    if n != state.n_nodes:
        raise ShapeError(f"window has {n} variables but the model state was "
                         f"built for {state.n_nodes}")
    if config.adjacency_mode == "learned":
        operator, laplacian = _learned_operators(params, x, config)
    else:
        operator, laplacian = state.a_hat, state.laplacian
    rec = config.recurrence()
    graph_operator = laplacian if rec.on_laplacian else operator

    trend_matrix = moving_average_matrix(t, config.decomp_window)
    z = ad.as_tensor(x)
    for m in range(config.blocks):
        prefix = f"block{m}"
        stack = polynomial_stack(rec, z, lambda v: ad.graph_mix(graph_operator, v),
                                 ad.mul, ad.add, ad.sub)
        theta = params[f"{prefix}.theta"]
        mixed = ad.mul(stack[0], ad.take_row(theta, 0))
        for k in range(1, config.degree + 1):
            mixed = ad.add(mixed, ad.mul(stack[k], ad.take_row(theta, k)))
        if config.relu_enabled:
            mixed = ad.relu(mixed)

        if config.use_coarse:
            mats = _stage_matrices(config, state, state.mode_sets[m][0])
            mixed = _filter_stage(mixed, params[f"{prefix}.coarse_re"],
                                  params[f"{prefix}.coarse_im"], mats)
        if config.use_fine:
            trend = ad.time_mix(trend_matrix, mixed)
            seasonal = ad.sub(mixed, trend)
            mats = _stage_matrices(config, state, state.mode_sets[m][1])
            if config.attention_enabled:
                mixed = _attention_stage(trend, seasonal, params, prefix, mats, config, d)
            else:
                filtered = _filter_stage(seasonal, params[f"{prefix}.fine_re"],
                                         params[f"{prefix}.fine_im"], mats)
                mixed = ad.add(trend, filtered)
        z = ad.add(mixed, z) if config.residual else mixed

    flat = ad.reshape(z, (b, n, t * d))
    out = ad.embed_map(flat, params["head.weight"])
    prediction = ad.reshape(out, (b, n, config.horizon, d))
    return prediction, z


def wrap_params(state: ModelState, requires_grad: bool) -> dict:
    wrapped = {}
    for name, value in state.params.items():
        grad = requires_grad and name not in state.frozen
        wrapped[name] = ad.Tensor(value, requires_grad=grad)
    return wrapped


def loss_node(prediction, targets: np.ndarray):
    """Tape node for the training objective: sum of squared errors divided
    by horizon and batch size (the per-sample objective sums over variables
    and dimensions)."""
    b, _, h, _ = targets.shape
    diff = ad.sub(prediction, targets)
    return ad.mul(ad.sum_all(ad.mul(diff, diff)), 1.0 / (h * b))


# ---------------------------------------------------------------------------
# public numpy surface
# ---------------------------------------------------------------------------

def _promote(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 3:
        return arr[None], True
    if arr.ndim != 4:
        raise ShapeError(f"expected (N, T, D) or (B, N, T, D), got {arr.shape}")
    return arr, False


def forward(x: np.ndarray, state: ModelState, config: ModelConfig) -> np.ndarray:
    arr, squeeze = _promote(x)
    prediction, _ = _forward_graph(wrap_params(state, False), arr, state, config)
    return prediction.data[0] if squeeze else prediction.data


def embed(x: np.ndarray, state: ModelState, config: ModelConfig) -> np.ndarray:
    """Final-block representation (N, T, D) ahead of the forecasting head."""
    arr, squeeze = _promote(x)
    _, rep = _forward_graph(wrap_params(state, False), arr, state, config)
    return rep.data[0] if squeeze else rep.data


def tggc_block(x: np.ndarray, state: ModelState, config: ModelConfig,
               block: int = 0) -> np.ndarray:
    """Run a single block (no residual, no head) on an (N, T, D) window."""
    single = dataclasses.replace(config, blocks=1, residual=False)
    sub_state = ModelState(
        params={key.replace(f"block{block}.", "block0."): value
                for key, value in state.params.items()},
        n_nodes=state.n_nodes,
        mode_sets=(state.mode_sets[block],),
        a_hat=state.a_hat, laplacian=state.laplacian,
        projector_matrix=state.projector_matrix, frozen=state.frozen)
    return embed(x, sub_state, single)


def loss(prediction: np.ndarray, targets: np.ndarray) -> float:
    """Squared-error objective averaged over the horizon (and batch)."""
    p = np.asarray(prediction, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {y.shape}")
    if p.ndim == 3:
        return float(((p - y) ** 2).sum() / p.shape[1])
    if p.ndim == 4:
        return float(((p - y) ** 2).sum() / (p.shape[0] * p.shape[2]))
    raise ShapeError(f"expected (N, H, D) or (B, N, H, D), got {p.shape}")


def reported_loss(prediction: np.ndarray, targets: np.ndarray) -> float:
    """The objective with an extra mean over variables and dimensions, so
    reported magnitudes do not scale with dataset size."""
    p = np.asarray(prediction)
    n, d = (p.shape[0], p.shape[2]) if p.ndim == 3 else (p.shape[1], p.shape[3])
    return loss(prediction, targets) / (n * d)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _state_arrays(state: ModelState) -> dict:
    arrays = dict(state.params)
    for m, (coarse, fine) in enumerate(state.mode_sets):
        arrays[f"meta.modes{m}.coarse"] = np.asarray(coarse, dtype=np.float64)
        arrays[f"meta.modes{m}.fine"] = np.asarray(fine, dtype=np.float64)
    if state.a_hat is not None:
        arrays["meta.a_hat"] = state.a_hat
        arrays["meta.laplacian"] = state.laplacian
    if state.projector_matrix is not None:
        arrays["meta.projector"] = state.projector_matrix
    return arrays


def save_checkpoint(path, state: ModelState, config: ModelConfig) -> None:
    """Container layout: magic 'STCK', u32 version, u64 header length, JSON
    header (config echo plus array directory), then the concatenated
    row-major little-endian float64 payload.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a failed write leaves any earlier checkpoint at ``path`` intact.
    """
    arrays = _state_arrays(state)
    directory, blobs, offset = [], [], 0
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f8")
        directory.append({"name": name, "shape": list(data.shape),
                          "offset": offset, "count": int(data.size)})
        blobs.append(data.tobytes())
        offset += data.size * 8
    header = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "n_nodes": state.n_nodes,
        "frozen": sorted(state.frozen),
        "arrays": directory,
    }).encode("utf-8")
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(path) -> tuple[ModelState, ModelConfig]:
    """Read a checkpoint written by ``save_checkpoint``; any malformed or
    truncated file raises ``DataError``."""
    with open(path, "rb") as fh:
        raw = fh.read()

    def malformed(why: str) -> DataError:
        return DataError(f"malformed checkpoint {os.fspath(path)}: {why}")

    if raw[:4] != CHECKPOINT_MAGIC:
        raise malformed(f"not a checkpoint file (magic {raw[:4]!r})")
    if len(raw) < _PREAMBLE_BYTES:
        raise malformed("file ends inside the preamble")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise malformed(f"unsupported checkpoint version {version}")
    if _PREAMBLE_BYTES + header_len > len(raw):
        raise malformed(f"header length {header_len} exceeds the file")
    try:
        header = json.loads(raw[_PREAMBLE_BYTES:_PREAMBLE_BYTES + header_len]
                            .decode("utf-8"))
    except ValueError as exc:
        raise malformed(f"header is not JSON ({exc})") from exc
    missing = [key for key in ("config", "n_nodes", "arrays")
               if not isinstance(header, dict) or key not in header]
    if missing:
        raise malformed(f"header lacks {missing}")
    if not isinstance(header["arrays"], list):
        raise malformed("the array directory must be a list")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as exc:
        raise malformed(f"bad config ({exc})") from exc
    n_nodes = header["n_nodes"]
    if not _is_count(n_nodes) or n_nodes == 0:
        raise malformed(f"n_nodes must be a positive integer, got {n_nodes!r}")

    payload = raw[_PREAMBLE_BYTES + header_len:]
    arrays = {}
    for entry in header["arrays"]:
        try:
            name, shape = entry["name"], entry["shape"]
            start, count = entry["offset"], entry["count"]
        except (KeyError, TypeError) as exc:
            raise malformed(f"bad array entry {entry!r}") from exc
        if not (_is_count(start) and _is_count(count)
                and isinstance(shape, list) and all(map(_is_count, shape))):
            raise malformed(f"array {name!r} has a bad shape, offset or count")
        if start + 8 * count > len(payload):
            raise malformed(f"array {name!r} runs past the end of the payload")
        if math.prod(shape) != count:
            raise malformed(f"array {name!r} has shape {shape} but {count} values")
        flat = np.frombuffer(payload, dtype="<f8", offset=start, count=count)
        arrays[name] = flat.reshape(shape).astype(np.float64)
    for key in ("meta.a_hat", "meta.laplacian"):
        if key in arrays and arrays[key].shape != (n_nodes, n_nodes):
            raise malformed(f"{key} has shape {arrays[key].shape}, "
                            f"expected ({n_nodes}, {n_nodes})")
    frozen = header.get("frozen", [])
    if not (isinstance(frozen, list) and all(isinstance(f, str) for f in frozen)):
        raise malformed("frozen must list parameter names")
    params = {k: v for k, v in arrays.items() if not k.startswith("meta.")}
    mode_sets = []
    for m in range(config.blocks):
        stages = []
        for stage in ("coarse", "fine"):
            idx = arrays.get(f"meta.modes{m}.{stage}")
            if (idx is None or idx.ndim != 1
                    or not np.all((idx == np.floor(idx)) & (idx >= 0)
                                  & (idx < config.lookback))):
                raise malformed(f"meta.modes{m}.{stage} must list integer mode "
                                f"indices in [0, {config.lookback})")
            stages.append(idx.astype(np.intp))
        mode_sets.append(tuple(stages))
    return (ModelState(params=params,
                       n_nodes=n_nodes,
                       mode_sets=tuple(mode_sets),
                       a_hat=arrays.get("meta.a_hat"),
                       laplacian=arrays.get("meta.laplacian"),
                       projector_matrix=arrays.get("meta.projector"),
                       frozen=frozenset(frozen)),
            config)
