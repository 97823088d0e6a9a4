"""The spectral-temporal forecasting model.

One block chains a polynomial graph convolution (node mixing) with two
frequency-domain temporal stages: a coarse stage filtering the raw window
and a fine stage filtering the seasonal component on top of the trend.
The nonlinear variant inserts a rectified-linear activation after the
graph convolution and swaps the fine stage's fixed complex weights for
mode-space attention between trend queries and seasonal keys/values.
Blocks stack with additive residual connections, and a shared linear head
maps each variable's (T, D) representation to its (H, D) forecast with
one contraction.

Every stage of a linear block is a linear operator, and the forward pass
applies it as one. With a fixed graph operator M (provided or pearson
adjacency), the block's graph filter is G = sum_k theta_k P_k(M): the
(K+1, N, N) stack P_k(M) is built once per state, and a step forms G
with one parameter-sized contraction and applies it with one
``graph_mix``. The two temporal stages are one real T x T operator per
variable and dimension, M_t = F C with coarse C = Re(R W^T S) and fine
F = A + Re(R' W'^T S')(I - A), where S and R select and rebuild the kept
modes and A is the moving average. Each stage folds S and R into one
(2, S, S, T, T) kernel [K_re; K_im], so its operator is one contraction
of the stacked [W_re; W_im] weights; M_t is applied with one
``time_mix``. The nonlinear variant applies G before its relu and C
before its attention stage. Attention keeps re/im on one axis: real
2S x T select kernels hold the real and imaginary parts of mode s in
rows 2s and 2s+1, and a T x 2S rebuild kernel holds [Re R_s, -Im R_s],
so each complex product (select, scores, mixing, rebuild) is one tape
op. The select contractions emit (2S, D, B, N) modes, with the (batch,
node) axes innermost, so the scores, the softmax over keys and the value
mix run as products over rows of length B*N, not as B*N tiny matrix
products. Learned adjacency differs per sample, so there the polynomial
stack runs on the signal. The stack, the S/R kernels, A and the folded
S'(I - A) are derived from the state and the config and cached on the
state, never checkpointed.

The forward pass is written against the tape ops in `autodiff`, so the
same code serves inference and training. Inference runs it on the
state's arrays and builds no tape; `training.gradients` passes the
trainable parameters as tape leaves. Complex filter weights are stored as
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
from .config import read_section
from .errors import ConfigError, DataError, ParameterError, ShapeError
from .frequency_temporal import lowest_modes, moving_average_matrix
from .spectral_graph import (BASES, Adjacency, Recurrence, basis_recurrence,
                             normalized_laplacian, polynomial_stack)

__all__ = [
    "ModelConfig",
    "ModelState",
    "latent_correlation",
    "windowed_mean_correlation",
    "init_state",
    "forward",
    "require_finite_windows",
    "embed",
    "tggc_block",
    "loss",
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
        for key in ("lookback", "horizon", "n_dims", "blocks", "embed_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {getattr(self, key)}")
        if self.degree < 0:
            raise ConfigError(f"model.degree must be >= 0, got {self.degree}")
        for key, valid in (("basis", BASES), ("variant", ("linear", "nonlinear")),
                           ("adjacency_mode", ("pearson", "learned", "provided")),
                           ("projector", ("dft", "random")),
                           ("mode_policy", ("lowest", "random"))):
            if getattr(self, key) not in valid:
                raise ConfigError(f"model.{key} must be one of {list(valid)}, "
                                  f"got {getattr(self, key)!r}")
        for key in ("n_modes", "decomp_window"):
            if not 1 <= getattr(self, key) <= self.lookback:
                raise ConfigError(f"model.{key} must lie in [1, lookback="
                                  f"{self.lookback}], got {getattr(self, key)}")
        for key in ("jacobi_a", "jacobi_b"):
            if self.basis != "jacobi" and getattr(self, key) is not None:
                raise ConfigError(f"model.{key} applies only to basis 'jacobi', "
                                  f"not {self.basis!r}")
        try:
            self.recurrence()
        except ParameterError as exc:
            raise ConfigError(f"model.alpha, model.jacobi_a or model.jacobi_b: "
                              f"{exc}") from exc

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
        return read_section(cls, data, "model")


@dataclass
class ModelState:
    """Parameters plus the static operators derived from config and data.
    The graph is kept only as L; I - L is derived from it and cached."""

    params: dict                    # name -> float64 ndarray
    n_nodes: int
    mode_sets: tuple                # per block: (coarse indices, fine indices)
    laplacian: np.ndarray | None = None   # L for pearson/provided modes
    projector_matrix: np.ndarray | None = None  # orthogonal rows, random projector
    frozen: frozenset = frozenset()
    # config -> operators derived from the arrays above (see `_operators`);
    # copies made with dataclasses.replace share it.
    cache: dict = field(default_factory=dict, repr=False, compare=False)

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
    return Adjacency(_pearson(flat))


def _pearson(flat: np.ndarray) -> np.ndarray:
    """|Pearson| matrix of the rows of an (N, T*D) array: symmetric, zero
    diagonal and clipped to [0, 1] by construction, unless the rows hold
    non-finite values, which pass through as NaN."""
    centered = flat - flat.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=1))
    safe = np.where(norms > 1e-12, norms, 1.0)
    unit = centered / safe[:, None]
    corr = np.abs(unit @ unit.T)
    corr[norms <= 1e-12, :] = 0.0
    corr[:, norms <= 1e-12] = 0.0
    np.fill_diagonal(corr, 0.0)
    return np.clip((corr + corr.T) / 2.0, 0.0, 1.0)


CORRELATION_WINDOWS = 64


def windowed_mean_correlation(values: np.ndarray, lookback: int) -> Adjacency:
    """Average of |Pearson| adjacencies over evenly spaced training windows.

    This is what the trainer feeds the model in pearson mode: window-level
    correlations (which is what the model sees at run time) rather than one
    whole-split correlation, computed from training data only. Only the
    mean is validated, so a non-finite value anywhere in the windows raises
    the ``Adjacency`` error once, at the end.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    length = arr.shape[1]
    if length < lookback:
        raise ShapeError("series shorter than one window")
    starts = np.unique(np.linspace(0, length - lookback,
                                   min(CORRELATION_WINDOWS, length - lookback + 1),
                                   dtype=int))
    acc = np.zeros((arr.shape[0], arr.shape[0]))
    for s in starts:
        acc += _pearson(arr[:, s:s + lookback, :].reshape(arr.shape[0], -1))
    acc /= len(starts)
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


def _parameter_layout(config: ModelConfig, n_nodes: int) -> dict:
    """Name -> (shape, initial) for every parameter, in ``init_state``'s
    draw order. ``initial`` maps a standard-normal draw of that shape to
    the parameter's identity-plus-noise starting value."""
    t, d, s = config.lookback, config.n_dims, config.n_modes
    # Noise scale keeps near-identity blocks within a few percent of the
    # identity map even after the polynomial stack amplifies order-k terms.
    sigma = 0.004
    noise = lambda z: sigma * z
    near = lambda base: lambda z: base + sigma * z

    theta_width = 1 if config.share_theta_dims else d
    filter_shape = (1 if config.share_filter_vars else n_nodes,
                    1 if config.share_filter_dims else d, s, s)
    layout = {}
    if config.adjacency_mode == "learned":
        layout["adjacency.embed"] = ((t * d, config.embed_dim), noise)
    for m in range(config.blocks):
        layout[f"block{m}.theta"] = ((config.degree + 1, theta_width),
                                     near(_identity_coefficients(config, theta_width)))
        if config.use_coarse:
            layout[f"block{m}.coarse_re"] = (filter_shape, near(np.eye(s)[None, None]))
            layout[f"block{m}.coarse_im"] = (filter_shape, noise)
        if config.use_fine and config.attention_enabled:
            for tag in ("q", "k", "v"):
                layout[f"block{m}.attn_{tag}"] = ((t, t), near(np.eye(t)))
        elif config.use_fine:
            layout[f"block{m}.fine_re"] = (filter_shape, near(np.eye(s)[None, None]))
            layout[f"block{m}.fine_im"] = (filter_shape, noise)
    layout["head.weight"] = ((t * d, config.horizon * d), lambda z: z / np.sqrt(t * d))
    return layout


def init_state(config: ModelConfig, n_nodes: int, rng: np.random.Generator | int,
               train_values: np.ndarray | None = None,
               adjacency: np.ndarray | Adjacency | None = None) -> ModelState:
    """Identity-plus-noise initialization; adjacency resolved per config.

    provided mode requires ``adjacency``; pearson mode takes ``adjacency``
    when given (the ``windowed_mean_correlation`` of the training split)
    and otherwise computes it from ``train_values`` (training-split
    series); learned mode adds an embedding parameter instead of a fixed
    operator.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    lap = None
    if config.adjacency_mode != "learned":
        if adjacency is None and config.adjacency_mode == "pearson":
            if train_values is None:
                raise ConfigError("pearson adjacency mode needs an adjacency "
                                  "or training values")
            adjacency = windowed_mean_correlation(train_values, config.lookback)
            if adjacency.n_nodes != n_nodes:
                raise ShapeError("training values variable count does not match n_nodes")
        if adjacency is None:
            raise ConfigError("provided adjacency mode needs an adjacency")
        adj = adjacency if isinstance(adjacency, Adjacency) else Adjacency(adjacency)
        if adj.n_nodes != n_nodes:
            raise ShapeError("adjacency size does not match n_nodes")
        lap = normalized_laplacian(adj)

    params: dict[str, np.ndarray] = {}
    mode_sets = []
    for name, (shape, initial) in _parameter_layout(config, n_nodes).items():
        if name.endswith(".theta"):     # each block draws its mode sets first
            mode_sets.append((_draw_modes(config, rng), _draw_modes(config, rng)))
        params[name] = initial(rng.standard_normal(shape))

    projector_matrix = None
    if config.projector == "random":
        t = config.lookback
        raw = rng.standard_normal((t, t))
        q, r = np.linalg.qr(raw)
        projector_matrix = q * np.sign(np.diag(r))[None, :]
        projector_matrix = projector_matrix.T  # rows analyze, transpose reconstructs

    return ModelState(params=params, n_nodes=n_nodes, mode_sets=tuple(mode_sets),
                      laplacian=lap, projector_matrix=projector_matrix)


# ---------------------------------------------------------------------------
# derived operators (per state)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Operators:
    """The constants a forward pass needs, derived from the config and the
    state's arrays; never written to checkpoints.

    ``graph`` is the (K+1, N, N) stack P_k(M) of a fixed graph operator (None
    with learned adjacency). ``blocks`` holds per block (coarse, fine), each
    None when that stage is off: a linear stage as its (2, S, S, T, T)
    kernel [K_re; K_im] (see ``_fold``), the attention stage as its real
    (query select, key/value select, rebuild) kernels, (2S, T), (2S, T)
    and (T, 2S), with re/im interleaved on the mode axis (see
    ``_interleave``); the query kernel is conjugated and scaled by
    1/sqrt(S D). ``trend`` is the
    moving-average matrix A that the linear fine stage adds (None
    otherwise).
    """

    sources: tuple                  # the state arrays these were built from
    graph: np.ndarray | None
    trend: np.ndarray | None
    blocks: tuple


def _sources(state: ModelState) -> tuple:
    return (state.laplacian, state.projector_matrix, state.mode_sets)


def _mode_kernels(config: ModelConfig, state: ModelState, indices: np.ndarray):
    """Complex (S x T select, T x S rebuild) kernels of one temporal stage.

    With the Fourier projector, select keeps the listed modes of the
    forward transform and rebuild scatters them back through the inverse;
    the state's random orthogonal projector has no imaginary part.
    """
    t = config.lookback
    if config.projector == "dft":
        select = np.exp(-2j * np.pi * np.outer(indices, np.arange(t)) / t)
        return select, select.conj().T / t
    rows = state.projector_matrix[indices, :].astype(np.complex128)
    return rows, rows.T


def _fold(select: np.ndarray, rebuild: np.ndarray) -> np.ndarray:
    """The (2, S, S, T, T) kernel K = [K_re; K_im] such that the stage's
    real T x T operator Re(R W^T S) for complex mode weights
    W = W_re + i W_im is sum_zij [W_re; W_im][z,i,j] K[z,i,j]. The re/im
    axis leads, so the contraction reads K as one (2 S S, T T) matrix."""
    k = rebuild.T[None, :, :, None] * select[:, None, None, :]   # R[p,j] S[i,q]
    return np.stack([k.real, -k.imag])


def _interleave(kernel: np.ndarray) -> np.ndarray:
    """A complex (S, T) kernel as a real (2S, T) one whose row 2s+z is the
    real (z=0) or imaginary (z=1) part of row s."""
    return np.stack([kernel.real, kernel.imag], axis=1).reshape(-1, kernel.shape[1])


def _build_operators(state: ModelState, config: ModelConfig) -> _Operators:
    graph = None
    if config.adjacency_mode != "learned":
        rec = config.recurrence()
        lap = state.laplacian
        op = lap if rec.on_laplacian else np.eye(state.n_nodes) - lap
        graph = np.stack(polynomial_stack(rec, np.eye(state.n_nodes), lambda v: op @ v))
    linear_fine = config.use_fine and not config.attention_enabled
    trend = (moving_average_matrix(config.lookback, config.decomp_window)
             if linear_fine else None)
    blocks = []
    for coarse_idx, fine_idx in state.mode_sets:
        coarse = fine = None
        if config.use_coarse:
            coarse = _fold(*_mode_kernels(config, state, coarse_idx))
        if config.use_fine:
            select, rebuild = _mode_kernels(config, state, fine_idx)
            if linear_fine:
                # F = A + Re(R' W'^T S')(I - A): fold S'(I - A) into select.
                fine = _fold(select - select @ trend, rebuild)
            else:
                # With the query kernel conjugated, [Re q, -Im q] . [Re k, Im k]
                # summed over (re/im, D) is Re(q k^T); the rebuild columns
                # [Re R_s, -Im R_s] likewise give Re(R o).
                scale = np.sqrt(config.n_modes * config.n_dims)
                fine = (_interleave(select.conj()) / scale, _interleave(select),
                        np.ascontiguousarray(_interleave(rebuild.T.conj()).T))
        blocks.append((coarse, fine))
    return _Operators(_sources(state), graph, trend, tuple(blocks))


def _operators(state: ModelState, config: ModelConfig) -> _Operators:
    """The state's operators for ``config``, built on first use and kept in
    ``state.cache`` until one of the arrays they come from is replaced."""
    ops = state.cache.get(config)
    if ops is None or any(a is not b for a, b in zip(ops.sources, _sources(state))):
        ops = state.cache[config] = _build_operators(state, config)
    return ops


# ---------------------------------------------------------------------------
# forward pass (tape)
# ---------------------------------------------------------------------------

def _learned_operators(params: dict, x: np.ndarray, config: ModelConfig):
    """The per-sample (B, N, N) operator M from the embedding weights: L
    when the basis runs on the Laplacian, I - L otherwise."""
    b, n, t, d = x.shape
    xf = ad.reshape(x, (b, n, t * d))
    emb = ad.contract("bnk,kl->bnl", xf, params["adjacency.embed"])
    scores = ad.mul(ad.contract("bne,bme->bnm", emb, emb),
                    1.0 / np.sqrt(config.embed_dim))
    attn = ad.softmax_last(scores)
    # half-sum and zeroed diagonal in one product: exact, as the mask is 0/1
    adj = ad.mul(ad.add(attn, ad.transpose_last2(attn)), 0.5 * (1.0 - np.eye(n)))
    degrees = ad.sum_last(adj)                       # (B, N), positive off-diagonal
    inv_sqrt = ad.rsqrt_safe(degrees)
    left = ad.reshape(inv_sqrt, (b, n, 1))
    right = ad.reshape(inv_sqrt, (b, 1, n))
    a_hat = ad.mul(ad.mul(adj, left), right)
    return ad.sub(np.eye(n), a_hat) if config.recurrence().on_laplacian else a_hat


def _stage_operator(params: dict, name: str, kernel: np.ndarray):
    """A linear stage's (N|1, D|1, T, T) operator from its mode weights:
    one contraction of the stacked [W_re; W_im] with the stage's kernel."""
    weights = ad.stack([params[f"{name}_re"], params[f"{name}_im"]])
    return ad.contract("zndij,zijpq->ndpq", weights, kernel)


def _attention_stage(trend, seasonal, params, prefix, kernels):
    """Mode-space attention with re/im interleaved on the mode axis (see
    ``_build_operators``). Each projection's select contraction emits its
    modes as (2S, D, B, N), which reads as (S, 2D, B, N) without a copy, so
    every complex product is one op. The scores, the softmax over keys and
    the value mix run over rows of length B*N; the rebuild contracts the
    mixed modes back to (B, N, T, D)."""
    select_q, select_kv, rebuild = kernels
    b, n, _, d = trend.shape

    def project(name, part, select):
        modes = ad.contract("ij,bnjd->idbn", select,
                            ad.relu(ad.time_mix(params[name], part)))
        return ad.reshape(modes, (-1, 2 * d, b, n))

    q = project(f"{prefix}.attn_q", trend, select_q)
    k = project(f"{prefix}.attn_k", seasonal, select_kv)
    v = project(f"{prefix}.attn_v", seasonal, select_kv)
    attn = ad.softmax_last(ad.node_scores(q, k))
    out = ad.reshape(ad.node_apply(attn, v), (-1, d, b, n))
    return ad.add(trend, ad.contract("ij,jdbn->bnid", rebuild, out))


def require_finite_windows(x: np.ndarray) -> None:
    """Raise DataError naming the window and node of the first non-finite
    value in a (B, N, T, D) window stack."""
    finite = np.isfinite(x)
    if not finite.all():
        window, node = np.argwhere(~finite)[0][:2]
        raise DataError(f"window {window}, node {node} holds a non-finite value")


def _representation(params: dict, x: np.ndarray, state: ModelState,
                    config: ModelConfig, blocks, residual: bool):
    """Forward through ``blocks`` (block indices) of the model.

    Each block applies one graph filter G = sum_k theta_k P_k(M) and then
    one real T x T temporal operator per variable and dimension, the fine
    stage's F = A + Re(R' W'^T S')(I - A) times the coarse stage's
    C = Re(R W^T S); the nonlinear variant puts a relu after G and runs the
    attention fine stage after C instead of F.
    """
    b, n, t, d = x.shape
    if t != config.lookback or d != config.n_dims:
        raise ShapeError(f"window shape {x.shape[1:]} does not match config "
                         f"(N, {config.lookback}, {config.n_dims})")
    if n != state.n_nodes:
        raise ShapeError(f"window has {n} variables but the model state was "
                         f"built for {state.n_nodes}")
    require_finite_windows(x)
    ops = _operators(state, config)
    if config.adjacency_mode == "learned":
        rec = config.recurrence()
        learned = ad.reshape(_learned_operators(params, x, config), (b, 1, n, n))
    attention = config.use_fine and config.attention_enabled
    trend_matrix = moving_average_matrix(t, config.decomp_window) if attention else None

    z = x
    for m in blocks:
        prefix = f"block{m}"
        theta = params[f"{prefix}.theta"]
        if ops.graph is None:
            # A per-sample operator: the stack runs on the signal, which
            # costs B K N^2 T D against B K N^3 for a per-sample G.
            terms = polynomial_stack(rec, z, lambda v: ad.graph_mix(learned, v),
                                     ad.mul, ad.add, ad.sub)
            mixed = ad.contract("kd,kbntd->bntd", theta, ad.stack(terms))
        else:
            mixed = ad.graph_mix(ad.contract("kd,kij->dij", theta, ops.graph), z)
        if config.relu_enabled:
            mixed = ad.relu(mixed)

        coarse, fine = ops.blocks[m]
        operator = None if coarse is None else _stage_operator(
            params, f"{prefix}.coarse", coarse)
        if fine is not None and not attention:
            fine_op = ad.add(ops.trend, _stage_operator(params, f"{prefix}.fine", fine))
            operator = fine_op if operator is None else ad.contract(
                "ndpr,ndrq->ndpq", fine_op, operator)
        if operator is not None:
            mixed = ad.time_mix(operator, mixed)
        if attention:
            trend = ad.time_mix(trend_matrix, mixed)
            mixed = _attention_stage(trend, ad.sub(mixed, trend), params, prefix, fine)
        z = ad.add(mixed, z) if residual else mixed
    return z


def _forward_graph(params: dict, x: np.ndarray, state: ModelState,
                   config: ModelConfig):
    """Forward through every block and the head: a prediction node when a
    parameter in ``params`` is a tape leaf, else an array. The head is one
    contraction of each variable's (T, D) representation with the
    (T*D, H*D) weight read as (T, D, H, D)."""
    z = _representation(params, x, state, config, range(config.blocks),
                        config.residual)
    t, d = config.lookback, config.n_dims
    weight = ad.reshape(params["head.weight"], (t, d, config.horizon, d))
    return ad.contract("bntd,tdhe->bnhe", z, weight)


def loss_node(prediction, targets: np.ndarray):
    """The training objective, a node when ``prediction`` is one: sum of
    squared errors divided by horizon and batch size (the per-sample
    objective sums over variables and dimensions)."""
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
    prediction = _forward_graph(state.params, arr, state, config)
    return prediction[0] if squeeze else prediction


def embed(x: np.ndarray, state: ModelState, config: ModelConfig) -> np.ndarray:
    """Final-block representation (N, T, D) ahead of the forecasting head."""
    arr, squeeze = _promote(x)
    rep = _representation(state.params, arr, state, config, range(config.blocks),
                          config.residual)
    return rep[0] if squeeze else rep


def tggc_block(x: np.ndarray, state: ModelState, config: ModelConfig,
               block: int = 0) -> np.ndarray:
    """Run a single block (no residual, no head) on an (N, T, D) window."""
    arr, squeeze = _promote(x)
    rep = _representation(state.params, arr, state, config, (block,), residual=False)
    return rep[0] if squeeze else rep


def loss(prediction: np.ndarray, targets: np.ndarray) -> float:
    """The training objective ``loss_node`` of an (N, H, D) or (B, N, H, D) forecast."""
    p, _ = _promote(prediction)
    y, _ = _promote(targets)
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {y.shape}")
    return float(loss_node(p, y))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _state_arrays(state: ModelState) -> dict:
    arrays = dict(state.params)
    for m, (coarse, fine) in enumerate(state.mode_sets):
        arrays[f"meta.modes{m}.coarse"] = np.asarray(coarse, dtype=np.float64)
        arrays[f"meta.modes{m}.fine"] = np.asarray(fine, dtype=np.float64)
    if state.laplacian is not None:
        arrays["meta.a_hat"] = np.eye(state.n_nodes) - state.laplacian
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
    expected = {name: shape for name, (shape, _)
                in _parameter_layout(config, n_nodes).items()}
    for m in range(config.blocks):
        expected[f"meta.modes{m}.coarse"] = expected[f"meta.modes{m}.fine"] = (
            config.n_modes,)
    if config.adjacency_mode != "learned":
        expected["meta.a_hat"] = expected["meta.laplacian"] = (n_nodes, n_nodes)
    if config.projector == "random":
        expected["meta.projector"] = (config.lookback, config.lookback)
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise malformed(f"arrays do not match the config: missing {missing}, "
                        f"unexpected {extra}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise malformed(f"{name} has shape {arrays[name].shape}, expected {shape}")
        if not np.isfinite(arrays[name]).all():
            raise malformed(f"{name} holds non-finite values")
    if config.adjacency_mode != "learned" and not np.array_equal(
            arrays["meta.a_hat"], np.eye(n_nodes) - arrays["meta.laplacian"]):
        raise malformed("meta.a_hat is not I - meta.laplacian")
    frozen = header.get("frozen", [])
    if not (isinstance(frozen, list) and all(isinstance(f, str) for f in frozen)):
        raise malformed("frozen must list parameter names")
    params = {k: v for k, v in arrays.items() if not k.startswith("meta.")}
    mode_sets = []
    for m in range(config.blocks):
        stages = []
        for stage in ("coarse", "fine"):
            idx = arrays[f"meta.modes{m}.{stage}"]
            if not np.all((idx == np.floor(idx)) & (idx >= 0)
                          & (idx < config.lookback)):
                raise malformed(f"meta.modes{m}.{stage} must list integer mode "
                                f"indices in [0, {config.lookback})")
            stages.append(idx.astype(np.intp))
        mode_sets.append(tuple(stages))
    return (ModelState(params=params,
                       n_nodes=n_nodes,
                       mode_sets=tuple(mode_sets),
                       laplacian=arrays.get("meta.laplacian"),
                       projector_matrix=arrays.get("meta.projector"),
                       frozen=frozenset(frozen)),
            config)
