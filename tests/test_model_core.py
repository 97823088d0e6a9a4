"""Model assembly: adjacency learning, block semantics, forward pass,
loss, and the checkpoint container."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from spectemp import model_core as mc
from spectemp.errors import ConfigError, DataError, ShapeError
from spectemp.frequency_temporal import (TemporalFDMParams, coarse_fdm,
                                         fine_fdm, spectral_attention)
from spectemp.spectral_graph import Adjacency, FilterBank, graph_conv

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


def test_config_dict_roundtrip():
    config = mc.ModelConfig(**BASE)
    back = mc.ModelConfig.from_dict(config.to_dict())
    assert back == config
    with pytest.raises(ConfigError):
        mc.ModelConfig.from_dict({**config.to_dict(), "wormhole": 1})


def test_variant_defaults():
    linear = mc.ModelConfig(**BASE)
    assert not linear.relu_enabled and not linear.attention_enabled
    nonlin = mc.ModelConfig(**{**BASE, "variant": "nonlinear"})
    assert nonlin.relu_enabled and nonlin.attention_enabled
    mixed = mc.ModelConfig(**{**BASE, "variant": "nonlinear",
                              "use_attention": False})
    assert mixed.relu_enabled and not mixed.attention_enabled


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
    params = mc.wrap_params(state, requires_grad=False)
    a_hat, _ = mc._learned_operators(params, x[None], config)
    degrees = public.matrix.sum(axis=1)
    inv = np.where(degrees > 1e-12, degrees ** -0.5, 0.0)
    expected = inv[:, None] * public.matrix * inv[None, :]
    assert np.abs(a_hat.data[0] - expected).max() < 1e-12


def test_windowed_mean_correlation_properties():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((4, 300, 1))
    adj = mc.windowed_mean_correlation(values, lookback=24)
    m = adj.matrix
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    assert m.max() <= 1.0


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


BLOCK_BASES = [dict(basis="monomial"), dict(basis="monomial", monomial_on_laplacian=True),
               dict(basis="bernstein"), dict(basis="chebyshev2"),
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
                          jacobi_b=config.jacobi_b,
                          monomial_on_laplacian=config.monomial_on_laplacian)
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


def test_residual_toggle():
    state, config = small_state(seed=22)
    x = batch_input(23, 1, 5, 8, 2)
    no_res = dataclasses.replace(config, residual=False)
    with_res = mc.embed(x[0], state, config)
    without = mc.embed(x[0], state, no_res)
    assert not np.allclose(with_res, without)


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


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mc.loss(np.ones((2, 3, 1)), np.ones((2, 4, 1)))


def test_forward_rejects_node_count_mismatch():
    for mode in ("provided", "learned"):
        state, config = small_state(seed=27, n=5, adjacency_mode=mode)
        with pytest.raises(ShapeError, match="6 variables .* built for 5"):
            mc.forward(batch_input(28, 2, 6, 8, 2), state, config)


def test_reported_loss_scales_out_width():
    predicted = np.ones((2, 3, 4))
    actual = np.zeros((2, 3, 4))
    assert mc.reported_loss(predicted, actual) == pytest.approx(
        mc.loss(predicted, actual) / (2 * 4))


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
    "fractional mode index": lambda raw: _poke(raw, "meta.modes1.coarse", 1.5),
    "missing mode array": lambda raw: _rewrite_header(
        raw, lambda h: h["arrays"].remove(_entry(h, "meta.modes1.coarse"))),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_rejects_malformed_files(tmp_path, corruption):
    state, config = small_state(seed=37)
    path = tmp_path / "model.stck"
    mc.save_checkpoint(path, state, config)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(DataError, match="malformed checkpoint"):
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
