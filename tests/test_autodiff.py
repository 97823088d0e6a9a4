"""Finite-difference checks for every reverse-mode op, plus tape mechanics."""

import inspect

import numpy as np
import pytest

from spectemp import autodiff as ad
from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp import training as tr
from spectemp.dataio import WindowSet


def numeric_gradients(fn, arrays, h=1e-6):
    """Central-difference gradient of the scalar fn(arrays) per input array."""
    grads = []
    for base in arrays:
        grad = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            hi = fn(arrays)
            flat[j] = keep - h
            lo = fn(arrays)
            flat[j] = keep
            gflat[j] = (hi - lo) / (2.0 * h)
        grads.append(grad)
    return grads


def check_op(build, arrays, h=1e-6, tol=1e-6):
    """Compare backward() against central differences for one op graph.

    build(tensors) must return a Tensor; the comparison scalar is its sum.
    The numeric side runs build on the arrays themselves, so no tape.
    """
    def scalar(values):
        return float(ad.sum_all(build(values)))

    tensors = [ad.Tensor(v) for v in arrays]
    ad.sum_all(build(tensors)).backward()
    numeric = numeric_gradients(scalar, arrays, h=h)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-10)
        assert np.abs(t.grad - num).max() / denom < tol


def rng_arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def test_add_sub_mul_neg():
    a, b = rng_arrays(0, (3, 4), (3, 4))
    check_op(lambda t: ad.add(t[0], t[1]), [a, b])
    check_op(lambda t: ad.sub(t[0], t[1]), [a, b])
    check_op(lambda t: ad.mul(t[0], t[1]), [a, b])
    check_op(lambda t: ad.neg(t[0]), [a])


def test_broadcast_gradients_unbroadcast_correctly():
    a, b = rng_arrays(1, (3, 4), (1, 4))
    check_op(lambda t: ad.mul(t[0], t[1]), [a, b])
    c, d = rng_arrays(2, (2, 3, 4), (4,))
    check_op(lambda t: ad.add(t[0], t[1]), [c, d])


def test_relu():
    a = rng_arrays(3, (5, 5))[0]
    a[np.abs(a) < 0.05] += 0.2   # keep clear of the kink
    check_op(lambda t: ad.relu(t[0]), [a])


def test_softmax_last():
    a = rng_arrays(4, (3, 6))[0]
    # sum of softmax rows is constant, so weight the entries before reducing
    probe = np.linspace(0.5, 2.0, a.size).reshape(a.shape)
    check_op(lambda t: ad.mul(ad.softmax_last(t[0]), probe), [a])
    rows = ad.softmax_last(a)
    assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_last_shift_invariant_under_large_offsets():
    a = rng_arrays(5, (2, 4))[0]
    shifted = ad.softmax_last(a + 1000.0)
    plain = ad.softmax_last(a)
    assert np.allclose(shifted, plain, atol=1e-12)
    assert np.all(np.isfinite(shifted))


def vjp_of(op, x, g):
    """``op``'s value on ``x`` and its VJP of ``g``, from the tape."""
    t = ad.Tensor(x)
    out = op(t)
    (parent, vjp), = out._parents
    assert parent is t
    return out.data, vjp(g)


def same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_relu_is_bitwise_the_comparison_formula():
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-310, -1e-310])
    rng = np.random.default_rng(36)
    for shape in ((8,), (4, 2, 24, 1), (3, 5, 7)):
        x = rng.standard_normal(shape)
        x.reshape(-1)[:8] = specials
        g = rng.standard_normal(shape)
        for operand, g_out in ((x, g), (x.T, g.T)):    # and a transposed layout
            value, grad = vjp_of(ad.relu, operand, g_out)
            same_bits(value, np.where(operand > 0, operand, 0.0))
            same_bits(grad, g_out * (operand > 0))
            same_bits(ad.relu(operand), value)


@pytest.mark.parametrize("n", [1, 5, 8, 207])
def test_softmax_last_is_bitwise_the_reduce_formula(n):
    # the attention rows (5 modes) and the learned adjacency (8 and 207 nodes),
    # as C-contiguous rows and in attention's key-major layout: (I, B, N, J)
    # scores stored (I, J, B, N), as node_scores leaves them and as the
    # gradient from node_apply arrives
    rng = np.random.default_rng(37 + n)
    rows = rng.standard_normal((6, 7, n)) * np.exp(rng.uniform(-3, 3, (6, 7, 1)))
    scale = np.exp(rng.uniform(-3, 3, (5, 1, 4, 3)))
    key_major = (rng.standard_normal((5, n, 4, 3)) * scale).transpose(0, 2, 3, 1)
    for x, g in ((rows, rng.standard_normal(rows.shape)),
                 (key_major, rng.standard_normal((5, n, 4, 3)).transpose(0, 2, 3, 1))):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        value, grad = vjp_of(ad.softmax_last, x, g)
        same_bits(value, want)
        same_bits(grad, want * (g - (g * want).sum(axis=-1, keepdims=True)))
        same_bits(ad.softmax_last(x), want)


def test_rsqrt_safe_is_bitwise_the_where_formula():
    floor = ad._DEGREE_FLOOR
    x = np.array([0.0, -0.0, floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0),
                  1e-15, -2.0, np.inf, np.nan, 5e-324, 0.25, 3.0, 1e300])
    g = np.random.default_rng(38).standard_normal(x.shape)
    ok = x > floor
    safe = np.where(ok, x, 1.0)
    value, grad = vjp_of(ad.rsqrt_safe, x, g)
    same_bits(value, np.where(ok, safe ** -0.5, 0.0))
    same_bits(grad, np.where(ok, -0.5 * safe ** -1.5, 0.0) * g)


def test_reshape_transpose_sums():
    a = rng_arrays(6, (2, 3, 4))[0]
    check_op(lambda t: ad.reshape(t[0], (6, 4)), [a])
    check_op(lambda t: ad.transpose_last2(t[0]), [a])
    check_op(lambda t: ad.sum_last(t[0]), [a])
    check_op(lambda t: ad.mul(ad.sum_all(t[0]), ad.sum_all(t[0])), [a])


def test_stack():
    a, b, c = rng_arrays(7, (4, 5), (4, 5), (4, 5))
    check_op(lambda t: ad.stack(t), [a, b, c])
    check_op(lambda t: ad.mul(ad.stack([t[0], t[1], t[0]]), c), [a, b])
    out = ad.stack([ad.Tensor(a), b])
    assert np.array_equal(out.data, np.stack([a, b]))


def test_rsqrt_safe():
    a = np.abs(rng_arrays(8, (6,))[0]) + 0.5
    check_op(lambda t: ad.rsqrt_safe(t[0]), [a])


def test_rsqrt_safe_clamps_tiny_inputs_with_zero_gradient():
    t = ad.Tensor(np.array([0.0, 1e-15, 4.0]))
    out = ad.rsqrt_safe(t)
    assert np.allclose(out.data, [0.0, 0.0, 0.5])
    ad.sum_all(out).backward()
    assert t.grad[0] == 0.0 and t.grad[1] == 0.0
    assert t.grad[2] == pytest.approx(-0.5 * 4.0 ** -1.5)


def test_graph_mix():
    # shared, per-dimension, shared by dimensions, per-sample (and dimension)
    x = rng_arrays(9, (2, 4, 3, 2))[0]
    for seed, shape in ((9, (4, 4)), (10, (2, 4, 4)), (18, (1, 4, 4)),
                        (19, (2, 2, 4, 4)), (20, (2, 1, 4, 4))):
        m = rng_arrays(seed, shape)[0]
        check_op(lambda t: ad.graph_mix(t[0], t[1]), [m, x])
        full = np.broadcast_to(m.reshape((1,) * (4 - m.ndim) + m.shape), (2, 2, 4, 4))
        want = np.einsum("bdij,bjtd->bitd", full, x)
        assert np.abs(ad.graph_mix(m, x) - want).max() < 1e-12


def test_time_mix():
    # one shared operator, or one per variable and dimension (size-1 axes shared)
    x = rng_arrays(11, (2, 4, 3, 2))[0]
    for seed, shape in ((11, (3, 3)), (21, (4, 2, 3, 3)), (22, (1, 2, 3, 3)),
                        (25, (4, 1, 3, 3)), (26, (1, 1, 3, 3))):
        a = rng_arrays(seed, shape)[0]
        check_op(lambda t: ad.time_mix(t[0], t[1]), [a, x])
        full = np.broadcast_to(a, (4, 2, 3, 3))
        want = np.einsum("ndij,bnjd->bnid", full, x)
        assert np.abs(ad.time_mix(a, x) - want).max() < 1e-12


def test_mode_filter():
    x, w = rng_arrays(12, (2, 4, 3, 2), (4, 2, 3, 3))
    check_op(lambda t: ad.mode_filter(t[0], t[1]), [x, w])


def test_mode_filter_broadcasts_shared_weights():
    # all shared, per-variable only (share_filter_dims), per-dim only
    # (share_filter_vars)
    for seed, shape in ((13, (1, 1, 3, 3)), (23, (4, 1, 3, 3)), (24, (1, 2, 3, 3))):
        x, w = rng_arrays(seed, (2, 4, 3, 2), shape)
        check_op(lambda t: ad.mode_filter(t[0], t[1]), [x, w])
        full = np.broadcast_to(w, (4, 2, 3, 3)).copy()
        tx, tw = x, ad.Tensor(w)
        tfull = ad.Tensor(full)
        shared = ad.mode_filter(tx, tw)
        expanded = ad.mode_filter(tx, tfull)
        assert np.array_equal(shared.data, expanded.data)
        ad.sum_all(shared).backward()
        ad.sum_all(expanded).backward()
        assert tw.grad.shape == shape
        summed = tfull.grad.sum(axis=tuple(i for i in (0, 1) if shape[i] == 1),
                                keepdims=True)
        np.testing.assert_allclose(tw.grad, summed, rtol=1e-12, atol=1e-12)


def test_node_scores_and_apply():
    # (modes, features, batch, node) operands; weights (modes, batch, node, modes)
    q, k = rng_arrays(14, (4, 2, 2, 3), (5, 2, 2, 3))
    probe = rng_arrays(34, (4, 2, 3, 5))[0]
    check_op(lambda t: ad.mul(ad.node_scores(t[0], t[1]), probe), [q, k])
    want = np.einsum("iebn,jebn->ibnj", q, k)
    assert np.abs(ad.node_scores(q, k) - want).max() <= 1e-12 * np.abs(want).max()
    a, v = rng_arrays(15, (4, 2, 3, 5), (5, 2, 2, 3))
    check_op(lambda t: ad.mul(ad.node_apply(t[0], t[1]), q), [a, v])
    want = np.einsum("ibnj,jebn->iebn", a, v)
    assert np.abs(ad.node_apply(a, v) - want).max() <= 1e-12 * np.abs(want).max()
    # the layout node_scores leaves, as softmax_last keeps it
    stored = np.ascontiguousarray(a.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    assert np.array_equal(ad.node_apply(stored, v), ad.node_apply(a, v))


def test_embed_map_and_pair_scores():
    # the learned adjacency's shared embedding and its pairwise scores
    x, w = rng_arrays(16, (2, 5, 3), (3, 4))
    check_op(lambda t: ad.contract("bnk,kl->bnl", t[0], t[1]), [x, w])
    e = rng_arrays(17, (2, 5, 3))[0]
    check_op(lambda t: ad.contract("bne,bme->bnm", t[0], t[0]), [e])


# (spec, {subscripts: shape override}) for every contraction the tape runs,
# and four earlier ones the plan still has to get right ("bij,bjtd->bitd",
# "ndij,ijpq->ndpq", and the per-node attention products "bnid,bnjd->bnij"
# and "bnij,bnjd->bnid"); overrides give the size-1 axes of shared weights.
SIZES = dict(b=3, n=4, m=4, i=5, j=6, t=2, d=2, k=7, l=3, e=5, p=3, q=4, r=2,
             z=2, h=2)
CONTRACTIONS = [
    ("ij,bjtd->bitd", {}),
    ("bij,bjtd->bitd", {}),
    ("ij,bnjd->bnid", {}),
    ("bnid,ndij->bnjd", {}),
    ("bnid,ndij->bnjd", {"ndij": (1, 2, 5, 6)}),
    ("bnid,ndij->bnjd", {"ndij": (4, 1, 5, 6)}),
    ("bnid,ndij->bnjd", {"ndij": (1, 1, 5, 6)}),
    ("bnid,bnjd->bnij", {}),
    ("bnij,bnjd->bnid", {}),
    ("bnk,kl->bnl", {}),
    ("bne,bme->bnm", {}),
    ("dij,bjtd->bitd", {}),
    ("dij,bjtd->bitd", {"dij": (1, 5, 6)}),
    ("bdij,bjtd->bitd", {}),
    ("bdij,bjtd->bitd", {"bdij": (3, 1, 5, 6)}),
    ("kd,kij->dij", {}),
    ("kd,kbntd->bntd", {"kd": (7, 1)}),
    ("ndij,bnjd->bnid", {}),
    ("ndij,bnjd->bnid", {"ndij": (1, 1, 5, 6)}),
    ("ndij,ijpq->ndpq", {}),
    ("ndpr,ndrq->ndpq", {}),
    ("ndpr,ndrq->ndpq", {"ndpr": (1, 1, 3, 2), "ndrq": (1, 1, 2, 4),
                         "ndpq": (1, 1, 3, 4)}),
    ("zndij,zijpq->ndpq", {}),
    ("zndij,zijpq->ndpq", {"zndij": (2, 1, 2, 5, 6), "ndpq": (1, 2, 3, 4)}),
    ("zndij,zijpq->ndpq", {"zndij": (2, 4, 1, 5, 6), "ndpq": (4, 1, 3, 4)}),
    ("zndij,zijpq->ndpq", {"zndij": (2, 1, 1, 5, 6), "ndpq": (1, 1, 3, 4)}),
    ("bntd,tdhe->bnhe", {}),
    ("ij,bnjd->idbn", {}),
    ("ij,jdbn->bnid", {}),
]


@pytest.mark.parametrize("spec,overrides", CONTRACTIONS)
def test_contract_gradients(spec, overrides):
    a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
    a, b, probe = (np.random.default_rng(35).standard_normal(
        overrides.get(sub, tuple(SIZES[c] for c in sub))) for sub in (a_sub, b_sub, out_sub))
    check_op(lambda t: ad.mul(ad.contract(spec, t[0], t[1]), probe), [a, b])


def _contraction_specs(spec):
    """The forward spec and the two VJP specs `contract` derives from it."""
    a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
    return [(spec, a_sub, b_sub),
            (f"{out_sub},{b_sub}->{a_sub}", out_sub, b_sub),
            (f"{a_sub},{out_sub}->{b_sub}", a_sub, out_sub)]


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("spec,overrides", CONTRACTIONS)
def test_matmul_plan_matches_einsum(spec, overrides, transposed):
    rng = np.random.default_rng(31)

    def operand(sub):
        shape = overrides.get(sub, tuple(SIZES[c] for c in sub))
        if transposed:   # a non-contiguous view
            return rng.standard_normal(shape[::-1]).T
        return rng.standard_normal(shape)

    for contraction, x_sub, y_sub in _contraction_specs(spec):
        x, y = operand(x_sub), operand(y_sub)
        want = np.einsum(contraction, x, y)
        got = ad._matmul(contraction, x, y)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("overrides", [
    {}, {"variant": "nonlinear"}, {"adjacency_mode": "learned"},
    {"variant": "nonlinear", "adjacency_mode": "learned"},
    {"share_filter_vars": True, "share_filter_dims": True},
    {"projector": "random"}, {"use_coarse": False, "use_fine": False}])
def test_contractions_lists_every_spec_the_model_runs(monkeypatch, overrides):
    listed = {contraction for spec, _ in CONTRACTIONS
              for contraction, _, _ in _contraction_specs(spec)}
    ran, matmul = set(), ad._matmul

    def recorded(spec, a, b):
        ran.add(spec)
        return matmul(spec, a, b)

    monkeypatch.setattr(ad, "_matmul", recorded)
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    bundle = ex.prepare_synth(task, 0)
    config = ex.task_model_config(task, **overrides)
    state = mc.init_state(config, task.n_nodes, rng=0, adjacency=bundle.adjacency)
    x, y = bundle.train_windows.inputs[:4], bundle.train_windows.targets[:4]
    tr.gradients(state, (x, y), config)
    mc.forward(x, state, config)
    tr.predict(state, config, WindowSet(x, y, np.arange(4)), chunk=3)
    assert ran and ran <= listed, sorted(ran - listed)


def test_matmul_plan_pair_scores_with_one_operand_twice():
    e = rng_arrays(32, (3, 4, 5))[0]
    want = np.einsum("bne,bme->bnm", e, e)
    t = ad.Tensor(e)
    out = ad.contract("bne,bme->bnm", t, t)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    probe = rng_arrays(33, (3, 4, 4))[0]
    ad.sum_all(ad.mul(out, probe)).backward()
    grad = np.einsum("bnm,bme->bne", probe, e) + np.einsum("bnm,bne->bme", probe, e)
    assert np.abs(t.grad - grad).max() <= 1e-12 * np.abs(grad).max()


def test_tape_contractions_never_call_einsum():
    assert "np.einsum" not in inspect.getsource(ad)


def test_gradient_accumulates_over_reused_nodes():
    a = ad.Tensor(np.array([2.0, 3.0]))
    out = ad.add(ad.mul(a, a), a)   # x^2 + x, d/dx = 2x + 1
    ad.sum_all(out).backward()
    assert np.allclose(a.grad, [5.0, 7.0])


def test_backward_rejects_non_scalar():
    a = ad.Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.add(a, a).backward()


def test_untracked_inputs_get_no_grad():
    # an op on arrays alone records nothing; a mixed op's node lists only
    # its Tensor input
    b = np.ones(3)
    for out in (ad.mul(b, b), ad.sum_all(b), ad.relu(b), ad.stack([b, b]),
                ad.time_mix(np.eye(3), b.reshape(1, 1, 3, 1))):
        assert type(out) is np.ndarray
    a = ad.Tensor(np.ones(3))
    prod = ad.mul(a, b)
    assert [parent for parent, _ in prod._parents] == [a]
    out = ad.sum_all(prod)
    out.backward()
    assert np.allclose(a.grad, 1.0)


def post_order_backward(loss):
    """The replaced replay, kept as the oracle: an explicit-stack post-order
    DFS orders the reachable nodes, and they are replayed in reverse."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        node.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node._parents:
            contrib = vjp(node.grad)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


@pytest.mark.parametrize("variant,adjacency,rtol", [("linear", "provided", 0.0),
                                                    ("nonlinear", "provided", 0.0),
                                                    ("linear", "learned", 1e-15),
                                                    ("nonlinear", "learned", 1e-15)])
def test_creation_order_replay_matches_the_post_order_oracle(variant, adjacency, rtol):
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    bundle = ex.prepare_synth(task, 0)
    config = ex.task_model_config(task, variant=variant, adjacency_mode=adjacency)
    state = mc.init_state(config, task.n_nodes, rng=0, adjacency=bundle.adjacency)
    x, y = bundle.train_windows.inputs[:64], bundle.train_windows.targets[:64]
    grads, _ = tr.gradients(state, (x, y), config)
    params = {**state.params,
              **{name: ad.Tensor(value) for name, value in state.trainable().items()}}
    post_order_backward(mc.loss_node(mc._forward_graph(params, x, state, config), y))
    assert list(grads) == list(state.trainable())
    for name, grad in grads.items():
        expected = params[name].grad
        if rtol:
            np.testing.assert_allclose(grad, expected, rtol=rtol,
                                       atol=rtol * np.abs(expected).max())
        else:
            assert np.array_equal(grad, expected), name
