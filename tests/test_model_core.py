"""Model assembly: adjacency learning, block semantics, forward pass,
loss, and the checkpoint container."""

import dataclasses
import hashlib
import itertools
import json
import struct

import numpy as np
import pytest

from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp import training
from spectemp.dataio import split
from spectemp.errors import ConfigError, DataError, ParameterError, ShapeError
from spectemp.frequency_temporal import (TemporalFDMParams, coarse_fdm, decompose,
                                         fine_fdm, spectral_attention)
from spectemp.spectral_graph import FilterBank, graph_conv, normalized_laplacian

BASE = dict(lookback=8, horizon=3, n_dims=2, blocks=2, degree=3, n_modes=4,
            decomp_window=3, adjacency_mode="provided")


def ring_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def small_state(seed=0, n=5, **overrides):
    config = mc.ModelConfig(**{**BASE, **overrides})
    if config.adjacency_mode == "provided":
        state = mc.init_state(config, n, rng=seed, adjacency=ring_adjacency(n))
    else:
        state = mc.init_state(config, n, rng=seed)
    return state, config


def batch_input(seed, b, n, t, d):
    return np.random.default_rng(seed).standard_normal((b, n, t, d))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "blocks": 0})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "degree": -1})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "n_modes": 9})   # S > T
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "basis": "fourier"})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "variant": "quadratic"})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "decomp_window": 20})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "basis": "gegenbauer", "alpha": -0.5})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "basis": "jacobi", "jacobi_a": -2.0})
    with pytest.raises(ConfigError):
        mc.ModelConfig(**{**BASE, "basis": "jacobi", "alpha": -0.7})
    for embed_dim in (0, -2):
        with pytest.raises(ConfigError, match="model.embed_dim"):
            mc.ModelConfig(**{**BASE, "adjacency_mode": "learned", "embed_dim": embed_dim})
    for key, value in (("horizon", 0), ("horizon", -1), ("n_dims", 0), ("n_dims", -3)):
        with pytest.raises(ConfigError, match=f"model.{key} must be >= 1"):
            mc.ModelConfig(**{**BASE, key: value})


@pytest.mark.parametrize("basis", ["monomial", "bernstein", "chebyshev2", "gegenbauer"])
def test_config_rejects_jacobi_exponents_for_another_basis(basis):
    for key in ("jacobi_a", "jacobi_b"):
        with pytest.raises(ConfigError, match=f"model.{key}"):
            mc.ModelConfig(**{**BASE, "basis": basis, key: 0.0})
    mc.ModelConfig(**{**BASE, "basis": "jacobi", "jacobi_a": -0.5, "jacobi_b": 9.0})


def test_task_model_config_takes_the_model_defaults():
    task = ex.SynthTask()
    assert ex.task_model_config(task) == mc.ModelConfig(
        lookback=task.lookback, horizon=task.horizon, n_dims=1, blocks=2, degree=4,
        n_modes=5, decomp_window=3, adjacency_mode="provided")


@pytest.mark.parametrize("mode,kwargs,error,message", [
    ("pearson", {}, ConfigError, "needs an adjacency or training values"),
    ("pearson", {"train_values": np.ones((4, 40, 2))}, ShapeError,
     "training values variable count"),
    ("provided", {}, ConfigError, "provided adjacency mode needs an adjacency"),
    ("provided", {"adjacency": ring_adjacency(4)}, ShapeError,
     "adjacency size does not match"),
])
def test_init_state_rejects_a_missing_or_mis_sized_adjacency(mode, kwargs, error, message):
    config = mc.ModelConfig(**{**BASE, "adjacency_mode": mode})
    with pytest.raises(error, match=message):
        mc.init_state(config, 5, rng=0, **kwargs)


def test_config_dict_roundtrip():
    config = mc.ModelConfig(**BASE)
    back = mc.ModelConfig.from_dict(config.to_dict())
    assert back == config
    with pytest.raises(ConfigError):
        mc.ModelConfig.from_dict({**config.to_dict(), "wormhole": 1})
    assert mc.ModelConfig.from_dict({"alpha": 2, "jacobi_a": None}).alpha == 2
    for key, value in (("degree", True), ("degree", 2.0), ("alpha", "1"),
                       ("use_fine", 1), ("basis", 3), ("jacobi_a", [0.5])):
        with pytest.raises(ConfigError, match=f"model.{key} must be"):
            mc.ModelConfig.from_dict({key: value})


def test_variant_defaults():
    configs = {v: mc.ModelConfig(**{**BASE, "variant": v}) for v in mc.VARIANTS}
    assert {v: (c.relu_enabled, c.attention_enabled) for v, c in configs.items()} == {
        "linear": (False, False), "relu_only": (True, False), "nonlinear": (True, True)}
    names = {f.name for f in dataclasses.fields(mc.ModelConfig)}
    assert len(names) == 21
    assert not names & {"use_relu", "use_attention", "residual", "monomial_on_laplacian"}


@pytest.mark.parametrize("degree", [2.5, True, -1])
def test_config_names_the_degree_when_it_is_not_a_count(degree):
    with pytest.raises(ConfigError, match="^model.degree must be a non-negative integer"):
        mc.ModelConfig(**{**BASE, "degree": degree})


# ---------------------------------------------------------------------------
# latent correlation
# ---------------------------------------------------------------------------

def test_pearson_identical_series_correlate_fully():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 50, 1))
    x[1] = x[0]
    adj = mc.latent_correlation(x)
    assert adj.matrix[0, 1] == pytest.approx(1.0)
    assert adj.matrix[0, 0] == 0.0


def test_pearson_independent_noise_nearly_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2000, 1))
    adj = mc.latent_correlation(x)
    assert adj.matrix[0, 1] < 0.1


def test_pearson_constant_series_defined_as_zero():
    x = np.ones((2, 30, 1))
    x[1, :, 0] = np.arange(30)
    adj = mc.latent_correlation(x)
    assert adj.matrix[0, 1] == 0.0


def test_pearson_output_is_valid_adjacency():
    rng = np.random.default_rng(2)
    adj = mc.latent_correlation(rng.standard_normal((5, 40, 2)))
    m = adj.matrix
    assert np.array_equal(m, m.T)
    assert m.min() >= 0.0 and m.max() <= 1.0
    assert np.all(np.diag(m) == 0.0)


def test_learned_mode_matches_internal_operator():
    rng = np.random.default_rng(3)
    state, config = small_state(adjacency_mode="learned", n=4)
    x = rng.standard_normal((4, config.lookback, config.n_dims))
    public = mc.latent_correlation(x, embedding=state.params["adjacency.embed"])
    a_hat = mc._learned_operators(state.params, x[None], config)
    degrees = public.matrix.sum(axis=1)
    inv = np.where(degrees > 1e-12, degrees ** -0.5, 0.0)
    expected = inv[:, None] * public.matrix * inv[None, :]
    assert np.abs(a_hat[0] - expected).max() < 1e-12


def test_windowed_mean_correlation_properties():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((4, 300, 1))
    adj = mc.windowed_mean_correlation(values, lookback=24)
    m = adj.matrix
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    assert m.max() <= 1.0


def looped_mean_correlation(values, lookback, max_windows=64):
    """The per-window ``latent_correlation`` loop that
    ``windowed_mean_correlation`` replaced, kept as its oracle."""
    length = values.shape[1]
    starts = np.unique(np.linspace(0, length - lookback,
                                   min(max_windows, length - lookback + 1),
                                   dtype=int))
    acc = np.zeros((values.shape[0], values.shape[0]))
    for s in starts:
        acc += mc.latent_correlation(values[:, s:s + lookback, :]).matrix
    acc /= len(starts)
    np.fill_diagonal(acc, 0.0)
    return acc, len(starts)


def _series(kind):
    rng = np.random.default_rng(41)
    if kind == "constant":
        return np.full((5, 120, 1), 3.25)
    values = rng.standard_normal((6, 300 if kind != "short" else 30, 2))
    if kind == "one constant row":
        values[2] = -1.5
    return values


@pytest.mark.parametrize("kind", ["random", "constant", "one constant row", "short"])
def test_windowed_mean_correlation_matches_per_window_loop(kind):
    values = _series(kind)
    expected, n_starts = looped_mean_correlation(values, 12)
    got = mc.windowed_mean_correlation(values, 12).matrix
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    if kind == "short":
        assert n_starts < 64
    if kind == "constant":
        assert not got.any()


@pytest.mark.parametrize("where", [0, 150, 299])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_windowed_mean_correlation_rejects_non_finite_series(where, bad):
    values = _series("random")
    values[3, where, 1] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(ParameterError, match="adjacency contains non-finite entries"):
        mc.windowed_mean_correlation(values, 12)


# ---------------------------------------------------------------------------
# block and forward semantics
# ---------------------------------------------------------------------------

def test_forward_output_extents():
    state, config = small_state()
    x = batch_input(5, 4, 5, 8, 2)
    out = mc.forward(x, state, config)
    assert out.shape == (4, 5, 3, 2)
    single = mc.forward(x[0], state, config)
    assert single.shape == (5, 3, 2)


def test_forward_deterministic():
    state, config = small_state(seed=6)
    x = batch_input(7, 2, 5, 8, 2)
    assert np.array_equal(mc.forward(x, state, config),
                          mc.forward(x, state, config))


def test_zero_head_gives_zero_forecast():
    state, config = small_state(seed=8)
    state.params["head.weight"][:] = 0.0
    x = batch_input(9, 2, 5, 8, 2)
    assert np.all(mc.forward(x, state, config) == 0.0)


def test_identity_initialized_block_is_near_identity():
    # the near-identity property needs the complete mode set; truncation
    # would project away part of the signal regardless of the weights
    state, config = small_state(seed=10, n_modes=8)
    x = batch_input(11, 1, 5, 8, 2)[0]
    z = mc.tggc_block(x, state, config, block=0)
    assert np.linalg.norm(z - x) / np.linalg.norm(x) < 0.05


@pytest.mark.parametrize("block", [2, 5, -1, True, 1.0, "0"])
def test_tggc_block_rejects_a_block_outside_the_model(block):
    state, config = small_state(seed=3)
    x = batch_input(4, 1, 5, 8, 2)[0]
    with pytest.raises(ParameterError, match=r"block must be an integer in \[0, 2\)"):
        mc.tggc_block(x, state, config, block=block)


def test_linear_variant_superposition():
    state, config = small_state(seed=12)
    x1 = batch_input(13, 3, 5, 8, 2)
    x2 = batch_input(14, 3, 5, 8, 2)
    lhs = mc.forward(2.0 * x1 - 0.5 * x2, state, config)
    rhs = 2.0 * mc.forward(x1, state, config) - 0.5 * mc.forward(x2, state, config)
    assert np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1e-12) < 1e-7


def test_permutation_consistency():
    n = 5
    state, config = small_state(seed=15, n=n,
                                share_theta_dims=True,
                                share_filter_vars=True)
    rng = np.random.default_rng(16)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    x = batch_input(17, 1, n, 8, 2)
    base = mc.forward(x, state, config)

    permuted_adj = p @ ring_adjacency(n) @ p.T
    state_p = mc.init_state(config, n, rng=15, adjacency=permuted_adj)
    # node-shared parameters must match for the comparison to make sense
    for name in state.params:
        state_p.params[name][:] = state.params[name]
    out = mc.forward(np.einsum("ij,bjtd->bitd", p, x), state_p, config)
    assert np.abs(out - np.einsum("ij,bjtd->bitd", p, base)).max() < 1e-10


BLOCK_BASES = [dict(basis="monomial"), dict(basis="bernstein"), dict(basis="chebyshev2"),
               dict(basis="gegenbauer", alpha=1.7),
               dict(basis="jacobi", jacobi_a=0.3, jacobi_b=-0.4)]


def test_block_matches_composed_public_operations():
    """The tape route of the recurrence driver against its numpy route."""
    x = batch_input(19, 1, 4, 8, 2)[0]
    for overrides in BLOCK_BASES:
        state, config = small_state(seed=18, blocks=1, n=4, **overrides)
        bank = FilterBank(basis=config.basis, degree=config.degree,
                          coefficients=state.params["block0.theta"],
                          alpha=config.alpha, jacobi_a=config.jacobi_a,
                          jacobi_b=config.jacobi_b)
        conv = np.stack([graph_conv(bank, state.laplacian, x[:, t, :])
                         for t in range(config.lookback)], axis=1)
        coarse_idx, fine_idx = state.mode_sets[0]
        coarse = coarse_fdm(conv, TemporalFDMParams(
            mode_indices=coarse_idx,
            weights=state.params["block0.coarse_re"]
            + 1j * state.params["block0.coarse_im"]))
        fine = fine_fdm(coarse, TemporalFDMParams(
            mode_indices=fine_idx,
            weights=state.params["block0.fine_re"]
            + 1j * state.params["block0.fine_im"],
            decomp_window=config.decomp_window))
        ours = mc.tggc_block(x, state, config, block=0)
        assert np.abs(ours - fine).max() < 1e-12, overrides


def test_nonlinear_block_matches_composed_public_operations():
    state, config = small_state(seed=20, blocks=1, n=4, variant="nonlinear")
    x = batch_input(21, 1, 4, 8, 2)[0]

    theta = state.params["block0.theta"]
    bank = FilterBank(basis=config.basis, degree=config.degree,
                      coefficients=theta, alpha=config.alpha)
    conv = np.stack([graph_conv(bank, state.laplacian, x[:, t, :])
                     for t in range(config.lookback)], axis=1)
    conv = np.maximum(conv, 0.0)
    coarse_idx, fine_idx = state.mode_sets[0]
    coarse = coarse_fdm(conv, TemporalFDMParams(
        mode_indices=coarse_idx,
        weights=state.params["block0.coarse_re"]
        + 1j * state.params["block0.coarse_im"]))
    from spectemp.frequency_temporal import decompose
    trend, seasonal = decompose(coarse, config.decomp_window)
    attn = spectral_attention(trend, seasonal, TemporalFDMParams(
        mode_indices=fine_idx,
        weights=np.zeros((1, 1, fine_idx.size, fine_idx.size), dtype=complex),
        decomp_window=config.decomp_window,
        attention=(state.params["block0.attn_q"],
                   state.params["block0.attn_k"],
                   state.params["block0.attn_v"])))
    ours = mc.tggc_block(x, state, config, block=0)
    assert np.abs(ours - attn).max() < 1e-12


def _oracle_blocks(x, state, config, blocks, residual):
    """The listed blocks on one (N, T, D) window through the public numpy
    operators: graph_conv, then coarse_fdm and fine_fdm (or
    spectral_attention), or the random projector's real transform, where
    attention takes real scores over 1/sqrt(S D)."""
    if config.adjacency_mode == "learned":
        lap = normalized_laplacian(mc.latent_correlation(
            x, embedding=state.params["adjacency.embed"]))
    else:
        lap = state.laplacian

    def stage(z, indices, w):
        if config.projector == "dft":
            return coarse_fdm(z, TemporalFDMParams(mode_indices=indices, weights=w))
        rows = state.projector_matrix[indices]
        kept = np.einsum("st,ntd->nsd", rows, z)
        w_re = np.broadcast_to(w.real, (z.shape[0], z.shape[2]) + w.shape[2:])
        return np.einsum("ts,nsd->ntd", rows.T, np.einsum("nid,ndij->njd", kept, w_re))

    def attention(trend, seasonal, indices, projections):
        if config.projector == "dft":
            return spectral_attention(trend, seasonal, TemporalFDMParams(
                mode_indices=indices, weights=np.zeros((1, 1, indices.size, indices.size)),
                decomp_window=config.decomp_window, attention=projections))
        rows = state.projector_matrix[indices]
        q, k, v = (np.einsum("st,ntd->nsd", rows,
                             np.maximum(np.einsum("ij,njd->nid", proj, part), 0.0))
                   for proj, part in zip(projections, (trend, seasonal, seasonal)))
        scores = np.einsum("nid,njd->nij", q, k) / np.sqrt(indices.size * trend.shape[2])
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        return trend + np.einsum("ts,nsd->ntd", rows.T,
                                 np.einsum("nij,njd->nid", weights, v))

    z = x
    for m in blocks:
        param = lambda name: state.params[f"block{m}.{name}"]
        bank = FilterBank(basis=config.basis, degree=config.degree,
                          coefficients=param("theta"), alpha=config.alpha,
                          jacobi_a=config.jacobi_a, jacobi_b=config.jacobi_b)
        out = graph_conv(bank, lap, z)
        if config.relu_enabled:
            out = np.maximum(out, 0.0)
        coarse_idx, fine_idx = state.mode_sets[m]
        if config.use_coarse:
            out = stage(out, coarse_idx, param("coarse_re") + 1j * param("coarse_im"))
        if config.use_fine:
            trend, seasonal = decompose(out, config.decomp_window)
            if config.attention_enabled:
                out = attention(trend, seasonal, fine_idx,
                                (param("attn_q"), param("attn_k"), param("attn_v")))
            elif config.projector == "dft":
                out = fine_fdm(out, TemporalFDMParams(
                    mode_indices=fine_idx, weights=param("fine_re") + 1j * param("fine_im"),
                    decomp_window=config.decomp_window))
            else:
                out = trend + stage(seasonal, fine_idx,
                                    param("fine_re") + 1j * param("fine_im"))
        z = out + z if residual else out
    return z


ORACLE_GRID = [
    dict(variant=variant, adjacency_mode=adjacency, n_dims=d, **basis)
    for (variant, adjacency, d), basis in zip(
        [(v, a, d) for v in ("linear", "nonlinear")
         for a in ("provided", "pearson", "learned") for d in (1, 2)],
        itertools.cycle(BLOCK_BASES))
] + [
    dict(share_theta_dims=True), dict(share_filter_dims=True),
    dict(share_filter_vars=True), dict(projector="random"),
    dict(projector="random", adjacency_mode="learned", n_dims=1),
    dict(variant="nonlinear", projector="random"),
    dict(use_coarse=False), dict(use_fine=False), dict(use_coarse=False, use_fine=False),
    dict(variant="nonlinear", use_coarse=False), dict(variant="nonlinear", use_fine=False),
    dict(variant="relu_only"), dict(mode_policy="random"),
]


@pytest.mark.parametrize("overrides", ORACLE_GRID,
                         ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_operator_form_matches_public_numpy_operations(overrides):
    """forward, embed and tggc_block against the numpy oracles, with the
    parameters moved off the identity so every term counts."""
    n = 5
    config = mc.ModelConfig(**{**BASE, **overrides})
    rng = np.random.default_rng(42)
    state = mc.init_state(config, n, rng=43, adjacency=ring_adjacency(n),
                          train_values=rng.standard_normal((n, 60, config.n_dims)))
    for name, value in state.params.items():
        state.params[name] = value + 0.2 * rng.standard_normal(value.shape)
    x = rng.standard_normal((3, n, config.lookback, config.n_dims))

    def close(ours, want):
        assert np.abs(ours - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    embedded = mc.embed(x, state, config)
    predicted = mc.forward(x, state, config)
    for b in range(x.shape[0]):
        want = _oracle_blocks(x[b], state, config, range(config.blocks), True)
        close(embedded[b], want)
        head = want.reshape(n, -1) @ state.params["head.weight"]
        close(predicted[b], head.reshape(n, config.horizon, config.n_dims))
        close(mc.tggc_block(x[b], state, config, block=1),
              _oracle_blocks(x[b], state, config, (1,), False))


def test_graph_stack_is_built_once_per_state(monkeypatch):
    built = []
    stack = mc.polynomial_stack
    monkeypatch.setattr(mc, "polynomial_stack",
                        lambda *args, **kw: built.append(args[1]) or stack(*args, **kw))
    state, config = small_state(seed=44)
    x = batch_input(45, 4, 5, 8, 2)
    y = batch_input(46, 4, 5, 3, 2)
    for _ in range(2):
        training.gradients(state, (x, y), config)
    assert len(built) == 1 and np.array_equal(built[0], np.eye(5))
    # forecasts, representations, single blocks and replaced copies reuse it
    mc.forward(x, state, config)
    mc.embed(x, state, config)
    mc.tggc_block(x[0], state, config, block=1)
    copy = dataclasses.replace(state, params={k: v + 1.0 for k, v in state.params.items()})
    mc.forward(x, copy, config)
    assert len(built) == 1
    # a state whose operator is replaced builds its own
    state.laplacian = state.laplacian.copy()
    mc.forward(x, state, config)
    assert len(built) == 2


# sha256 of checkpoints saved before the operators were cached on the state,
# re-pinned when the config echo in the header lost use_relu, use_attention,
# residual and monomial_on_laplacian (the payload after the header is
# byte-equal, and the old header minus those keys is the new header)
CHECKPOINT_SHA256 = {
    "linear": "b29fb6cb14a5b222b75d9d247d0df7351f99d72434944d76a60466005c6778dd",
    "nonlinear": "ca7739fe22184807a1480bef7927a317ffb300c331ce1c19743781c53afc5459",
    "learned": "8fbb962a061d3e6f842cae3d3a05acb1c7bb4e7657aea8ff149c8408ee9dbf14",
}


@pytest.mark.parametrize("label,overrides", [
    ("linear", {}), ("nonlinear", {"variant": "nonlinear"}),
    ("learned", {"adjacency_mode": "learned"})])
def test_checkpoint_bytes_leave_out_the_derived_operators(tmp_path, label, overrides):
    state, config = small_state(seed=40, **overrides)
    mc.forward(batch_input(41, 2, 5, 8, 2), state, config)   # fills the cache
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[label]


def test_fit_passes_the_pearson_adjacency_through(monkeypatch):
    task = ex.SynthTask(n_per_group=3, length=200, lookback=8, horizon=2)
    bundle = ex.prepare_data(task, 0)
    config = ex.task_model_config(task, adjacency_mode="pearson", blocks=1,
                                  degree=2, n_modes=3)
    n = bundle.dataset.n_variables
    train_values = split(bundle.dataset, task.ratios)[0].values
    recomputed = mc.init_state(config, n, rng=0, train_values=train_values)
    calls = []
    correlation = mc.windowed_mean_correlation
    monkeypatch.setattr(mc, "windowed_mean_correlation",
                        lambda *a, **k: calls.append(a) or correlation(*a, **k))
    supplied = mc.init_state(config, n, rng=0, train_values=train_values,
                             adjacency=bundle.adjacency)
    assert np.array_equal(supplied.laplacian, recomputed.laplacian)
    assert supplied.params.keys() == recomputed.params.keys()
    assert all(np.array_equal(supplied.params[k], recomputed.params[k])
               for k in supplied.params)
    fitted, _ = ex.fit(config, training.TrainConfig(epochs=1, batch_size=64), bundle, 0)
    assert np.array_equal(fitted.laplacian, recomputed.laplacian)
    assert calls == []


# sha256 of the learned forward output through Bernstein, the basis that
# reads L, computed with the code as it was before the monomial basis lost
# its option to run on L (which this test used to pin)
LEARNED_ON_LAPLACIAN_SHA256 = (
    "fc19423326022018176e8a3b02b9287c6d757def1743d07673c0c6daf489e6d7")


def test_learned_forward_on_the_laplacian_is_unchanged():
    config = mc.ModelConfig(**{**BASE, "adjacency_mode": "learned", "basis": "bernstein"})
    state = mc.init_state(config, 5, rng=47)
    rng = np.random.default_rng(48)
    for name, value in state.params.items():
        state.params[name] = value + 0.2 * rng.standard_normal(value.shape)
    out = mc.forward(rng.standard_normal((3, 5, 8, 2)), state, config)
    assert hashlib.sha256(out.tobytes()).hexdigest() == LEARNED_ON_LAPLACIAN_SHA256


def test_embed_shape_matches_input():
    state, config = small_state(seed=24)
    x = batch_input(25, 1, 5, 8, 2)[0]
    z = mc.embed(x, state, config)
    assert z.shape == x.shape


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_zero_at_perfect_prediction():
    y = np.ones((2, 3, 1))
    assert mc.loss(y, y) == 0.0


def test_loss_hand_example():
    # residual of one everywhere, N=2, H=3, D=1: sum of squares 6, over H=3
    predicted = np.ones((2, 3, 1))
    actual = np.zeros((2, 3, 1))
    assert mc.loss(predicted, actual) == pytest.approx(2.0)


def test_loss_nonnegative_and_batch_averaged():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((4, 2, 3, 1))
    b = rng.standard_normal((4, 2, 3, 1))
    total = mc.loss(a, b)
    assert total >= 0.0
    per_sample = np.mean([mc.loss(a[i], b[i]) for i in range(4)])
    assert total == pytest.approx(per_sample)


@pytest.mark.parametrize("batched", [False, True])
def test_loss_is_the_training_objective(batched):
    state, config = small_state(seed=26)
    x = batch_input(27, 3, 5, 8, 2)
    y = batch_input(28, 3, 5, 3, 2)
    if not batched:
        x, y = x[0], y[0]
    _, objective = training.gradients(state, (x, y), config)
    assert mc.loss(mc.forward(x, state, config), y) == objective


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mc.loss(np.ones((2, 3, 1)), np.ones((2, 4, 1)))


def test_forward_rejects_node_count_mismatch():
    for mode in ("provided", "learned"):
        state, config = small_state(seed=27, n=5, adjacency_mode=mode)
        with pytest.raises(ShapeError, match="6 variables .* built for 5"):
            mc.forward(batch_input(28, 2, 6, 8, 2), state, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_windows(bad):
    for mode in ("provided", "learned"):
        state, config = small_state(seed=29, n=5, adjacency_mode=mode)
        x = batch_input(29, 3, 5, 8, 2)
        x[2, 4, 6, 1] = bad
        with pytest.raises(DataError, match="window 2, node 4"):
            mc.forward(x, state, config)


# ---------------------------------------------------------------------------
# mode plumbing and checkpoints
# ---------------------------------------------------------------------------

def test_random_mode_policy_is_seeded():
    a, _ = small_state(seed=30, mode_policy="random")
    b, _ = small_state(seed=30, mode_policy="random")
    c, _ = small_state(seed=31, mode_policy="random")
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
               for x, y in zip(a.mode_sets, b.mode_sets))
    differs = any(not np.array_equal(x[0], y[0])
                  for x, y in zip(a.mode_sets, c.mode_sets))
    assert differs


def test_random_projector_is_orthogonal():
    state, config = small_state(seed=32, projector="random")
    r = state.projector_matrix
    t = config.lookback
    assert r.shape == (t, t)
    assert np.abs(r @ r.T - np.eye(t)).max() < 1e-12


def test_no_fine_variant_drops_fine_parameters():
    state, _ = small_state(seed=33, use_fine=False)
    names = set(state.params)
    assert "block0.fine_re" not in names
    assert "block0.coarse_re" in names


def test_checkpoint_roundtrip(tmp_path):
    state, config = small_state(seed=34)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    loaded, config_back = mc.load_checkpoint(path)
    assert config_back == config
    assert set(loaded.params) == set(state.params)
    for name, value in state.params.items():
        assert np.array_equal(loaded.params[name], value)
    x = batch_input(35, 2, 5, 8, 2)
    assert np.array_equal(mc.forward(x, state, config),
                          mc.forward(x, loaded, config_back))


def test_checkpoint_rejects_corrupt_magic(tmp_path):
    state, config = small_state(seed=36)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        mc.load_checkpoint(path)


def _rewrite_header(raw: bytes, edit) -> bytes:
    """Apply ``edit`` to a checkpoint's decoded JSON header and re-encode it."""
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length:]


def _entry(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


def _poke(raw: bytes, name: str, value: float) -> bytes:
    """Overwrite the first value of array ``name`` in the payload."""
    (length,) = struct.unpack_from("<Q", raw, 8)
    start = 16 + length + _entry(json.loads(raw[16:16 + length]), name)["offset"]
    return raw[:start] + struct.pack("<d", value) + raw[start + 8:]


# the config keys ModelConfig dropped, at the one value every run wrote
LEGACY_CONFIG = {"use_relu": None, "use_attention": None, "residual": True,
                 "monomial_on_laplacian": False}
# values of those keys that name no model, with the linear model's arrays
LEGACY_VALUES = [("residual", False), ("monomial_on_laplacian", True), ("use_relu", 1),
                 ("use_attention", True)]
# (variant, use_relu, use_attention) as headers wrote them before the two
# switches went, and the variant each header loads as
LEGACY_SWITCHES = [("nonlinear", False, False, "linear"),
                   ("linear", True, False, "relu_only"),
                   ("nonlinear", None, False, "relu_only"),
                   ("linear", True, True, "nonlinear")]


CORRUPTIONS = {
    "truncated": lambda raw: raw[:-100],
    "preamble only": lambda raw: raw[:10],
    "bad version": lambda raw: raw[:4] + struct.pack("<I", 99) + raw[8:],
    "header past end": lambda raw: raw[:8] + struct.pack("<Q", len(raw)) + raw[16:],
    "header not json": lambda raw: raw[:16] + b"\xff" + raw[17:],
    "missing arrays key": lambda raw: _rewrite_header(raw, lambda h: h.pop("arrays")),
    "directory not a list": lambda raw: _rewrite_header(
        raw, lambda h: h.update(arrays=7)),
    "config not a mapping": lambda raw: _rewrite_header(
        raw, lambda h: h.update(config=3)),
    "offset past payload": lambda raw: _rewrite_header(
        raw, lambda h: _entry(h, "head.weight").update(offset=10 ** 6)),
    "shape disagrees with count": lambda raw: _rewrite_header(
        raw, lambda h: _entry(h, "head.weight").update(shape=[2, 2])),
    "negative count": lambda raw: _rewrite_header(
        raw, lambda h: _entry(h, "head.weight").update(count=-1)),
    "mode index out of range": lambda raw: _poke(raw, "meta.modes0.fine", 8.0),
    # the lowest modes are 0, 1, 2, 3: the first becomes the second
    "repeated mode index": lambda raw: _poke(raw, "meta.modes0.fine", 1.0),
    "fractional mode index": lambda raw: _poke(raw, "meta.modes1.coarse", 1.5),
    "missing mode array": lambda raw: _rewrite_header(
        raw, lambda h: h["arrays"].remove(_entry(h, "meta.modes1.coarse"))),
    "renamed parameter": lambda raw: raw.replace(b"block0.fine_re", b"block0.fine_rf"),
    "extra parameter": lambda raw: _rewrite_header(
        raw, lambda h: h["arrays"].append({**_entry(h, "head.weight"),
                                           "name": "head.bias"})),
    "parameter shape disagrees with config": lambda raw: _rewrite_header(
        raw, lambda h: _entry(h, "head.weight").update(
            shape=[_entry(h, "head.weight")["count"], 1])),
    "mode count disagrees with config": lambda raw: _rewrite_header(
        raw, lambda h: _entry(h, "meta.modes0.fine").update(shape=[2], count=2)),
    "adjacency missing": lambda raw: _rewrite_header(
        raw, lambda h: h["arrays"].remove(_entry(h, "meta.a_hat"))),
    "non-finite config value": lambda raw: _rewrite_header(
        raw, lambda h: h["config"].update(alpha=float("inf"))),
    # a consistent zero-horizon model: the head maps to no outputs
    "zero horizon": lambda raw: _rewrite_header(
        raw, lambda h: (h["config"].update(horizon=0),
                        _entry(h, "head.weight").update(
                            shape=[_entry(h, "head.weight")["shape"][0], 0], count=0))),
    "header version disagrees with the preamble": lambda raw: _rewrite_header(
        raw, lambda h: h.update(format_version=2)),
    "header lacks a version": lambda raw: _rewrite_header(
        raw, lambda h: h.pop("format_version")),
    "frozen names no parameter": lambda raw: _rewrite_header(
        raw, lambda h: h.update(frozen=["block0.theta", "block9.theta"])),
    # the next double above a_hat[0, 0] = 1 - L[0, 0] = 0 on the ring
    "a_hat is not I - L": lambda raw: _poke(raw, "meta.a_hat", 5e-324),
    **{f"removed key {key} set to {json.dumps(value)}":
       (lambda raw, key=key, value=value: _rewrite_header(
           raw, lambda h: h["config"].update({key: value})))
       for key, value in LEGACY_VALUES},
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_rejects_malformed_files(tmp_path, corruption):
    state, config = small_state(seed=37)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(DataError, match="malformed checkpoint"):
        mc.load_checkpoint(path)


def test_checkpoint_with_the_removed_config_keys_loads(tmp_path):
    """A header that still holds the dropped keys at their one value loads
    to the state and config of the same file without them."""
    state, config = small_state(seed=37, variant="nonlinear", mode_policy="random")
    path, legacy = tmp_path / "model.stck", tmp_path / "legacy.stck"
    mc.save_checkpoint(path, state, config)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    assert not LEGACY_CONFIG.keys() & json.loads(raw[16:16 + length])["config"].keys()
    legacy.write_bytes(_rewrite_header(raw, lambda h: h["config"].update(LEGACY_CONFIG)))
    (want, want_config), (got, got_config) = map(mc.load_checkpoint, (path, legacy))
    assert got_config == want_config == config
    assert got.params.keys() == want.params.keys()
    assert all(np.array_equal(got.params[k], want.params[k]) for k in want.params)
    assert all(np.array_equal(a, b) for g, w in zip(got.mode_sets, want.mode_sets)
               for a, b in zip(g, w))
    assert np.array_equal(got.laplacian, want.laplacian)
    assert (got.n_nodes, got.frozen) == (want.n_nodes, want.frozen)


def test_checkpoint_error_names_a_removed_key_and_its_value(tmp_path):
    state, config = small_state(seed=37)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(_rewrite_header(path.read_bytes(),
                                     lambda h: h["config"].update(residual=False)))
    with pytest.raises(DataError, match="removed config key 'residual' holds false"):
        mc.load_checkpoint(path)


@pytest.mark.parametrize("old_variant,use_relu,use_attention,variant", LEGACY_SWITCHES)
def test_checkpoint_with_the_removed_switches_loads_as_their_variant(
        tmp_path, old_variant, use_relu, use_attention, variant):
    """A header written while use_relu and use_attention still overrode the
    variant loads as the model they ran: a null follows the stored variant,
    and the (relu, attention) pair names linear, relu_only or nonlinear."""
    state, config = small_state(seed=41, variant=variant)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(_rewrite_header(path.read_bytes(), lambda h: h["config"].update(
        LEGACY_CONFIG, variant=old_variant, use_relu=use_relu, use_attention=use_attention)))
    loaded, loaded_config = mc.load_checkpoint(path)
    assert loaded_config == config
    assert all(np.array_equal(loaded.params[k], v) for k, v in state.params.items())
    x = batch_input(42, 2, 5, 8, 2)
    assert np.array_equal(mc.forward(x, loaded, loaded_config), mc.forward(x, state, config))


@pytest.mark.parametrize("old_variant,use_relu", [("linear", False), ("nonlinear", False)])
def test_checkpoint_with_attention_but_no_relu_names_both_switches(tmp_path, old_variant,
                                                                   use_relu):
    """No variant runs attention without the relu, so that pair is malformed."""
    state, config = small_state(seed=43, variant="nonlinear")
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(_rewrite_header(path.read_bytes(), lambda h: h["config"].update(
        LEGACY_CONFIG, variant=old_variant, use_relu=use_relu, use_attention=True)))
    with pytest.raises(DataError, match=r"use_relu \(false\) and use_attention \(true\) "
                                        "name no variant"):
        mc.load_checkpoint(path)


@pytest.mark.parametrize("name,bad", [("block0.theta", np.nan),
                                      ("head.weight", -np.inf),
                                      ("meta.a_hat", np.inf)])
def test_checkpoint_rejects_non_finite_arrays(tmp_path, name, bad):
    state, config = small_state(seed=40)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(_poke(path.read_bytes(), name, bad))
    with pytest.raises(DataError, match=f"malformed checkpoint .*{name} holds "
                                        "non-finite values"):
        mc.load_checkpoint(path)


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    first, config = small_state(seed=38)
    second, _ = small_state(seed=39)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, first, config)

    class FailingFile:
        """Accepts the preamble, then fails as a full disk would."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(mc, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        mc.save_checkpoint(path, second, config)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == ["model.stck"]
    loaded, _ = mc.load_checkpoint(path)
    for name, value in first.params.items():
        assert np.array_equal(loaded.params[name], value)
