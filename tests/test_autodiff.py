"""Finite-difference checks for every reverse-mode op, plus tape mechanics."""

import numpy as np
import pytest

from spectemp import autodiff as ad
from spectemp.errors import NumericalError


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
    """
    def scalar(values):
        tensors = [ad.Tensor(v) for v in values]
        out = build(tensors)
        return float(ad.sum_all(out).data)

    tensors = [ad.Tensor(v, requires_grad=True) for v in arrays]
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
    check_op(lambda t: ad.mul(ad.softmax_last(t[0]), ad.Tensor(probe)), [a])
    rows = ad.softmax_last(ad.Tensor(a)).data
    assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_last_shift_invariant_under_large_offsets():
    a = rng_arrays(5, (2, 4))[0]
    shifted = ad.softmax_last(ad.Tensor(a + 1000.0)).data
    plain = ad.softmax_last(ad.Tensor(a)).data
    assert np.allclose(shifted, plain, atol=1e-12)
    assert np.all(np.isfinite(shifted))


def test_reshape_transpose_sums():
    a = rng_arrays(6, (2, 3, 4))[0]
    check_op(lambda t: ad.reshape(t[0], (6, 4)), [a])
    check_op(lambda t: ad.transpose_last2(t[0]), [a])
    check_op(lambda t: ad.sum_last(t[0]), [a])
    check_op(lambda t: ad.mul(ad.sum_all(t[0]), ad.sum_all(t[0])), [a])


def test_take_row():
    a = rng_arrays(7, (4, 5))[0]
    check_op(lambda t: ad.take_row(t[0], 2), [a])
    t = ad.Tensor(a, requires_grad=True)
    ad.sum_all(ad.take_row(t, 1)).backward()
    assert np.allclose(t.grad[1], 1.0)
    assert np.allclose(np.delete(t.grad, 1, axis=0), 0.0)


def test_rsqrt_safe():
    a = np.abs(rng_arrays(8, (6,))[0]) + 0.5
    check_op(lambda t: ad.rsqrt_safe(t[0]), [a])


def test_rsqrt_safe_clamps_tiny_inputs_with_zero_gradient():
    t = ad.Tensor(np.array([0.0, 1e-15, 4.0]), requires_grad=True)
    out = ad.rsqrt_safe(t)
    assert np.allclose(out.data, [0.0, 0.0, 0.5])
    ad.sum_all(out).backward()
    assert t.grad[0] == 0.0 and t.grad[1] == 0.0
    assert t.grad[2] == pytest.approx(-0.5 * 4.0 ** -1.5)


def test_graph_mix():
    m, x = rng_arrays(9, (4, 4), (2, 4, 3, 2))
    check_op(lambda t: ad.graph_mix(t[0], t[1]), [m, x])
    batched_m = rng_arrays(10, (2, 4, 4))[0]
    check_op(lambda t: ad.graph_mix(t[0], t[1]), [batched_m, x])


def test_time_mix():
    a, x = rng_arrays(11, (3, 3), (2, 4, 3, 2))
    check_op(lambda t: ad.time_mix(t[0], t[1]), [a, x])


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
        tx, tw = ad.Tensor(x), ad.Tensor(w, requires_grad=True)
        tfull = ad.Tensor(full, requires_grad=True)
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
    q, k = rng_arrays(14, (2, 3, 4, 2), (2, 3, 4, 2))
    check_op(lambda t: ad.node_scores(t[0], t[1]), [q, k])
    a, v = rng_arrays(15, (2, 3, 4, 4), (2, 3, 4, 2))
    check_op(lambda t: ad.node_apply(t[0], t[1]), [a, v])


def test_embed_map_and_pair_scores():
    x, w = rng_arrays(16, (2, 5, 3), (3, 4))
    check_op(lambda t: ad.embed_map(t[0], t[1]), [x, w])
    e = rng_arrays(17, (2, 5, 3))[0]
    check_op(lambda t: ad.pair_scores(t[0]), [e])


def test_gradient_accumulates_over_reused_nodes():
    a = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = ad.add(ad.mul(a, a), a)   # x^2 + x, d/dx = 2x + 1
    ad.sum_all(out).backward()
    assert np.allclose(a.grad, [5.0, 7.0])


def test_backward_rejects_non_scalar():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(a, a).backward()


def test_untracked_inputs_get_no_grad():
    a = ad.Tensor(np.ones(3), requires_grad=True)
    b = ad.Tensor(np.ones(3))
    out = ad.sum_all(ad.mul(a, b))
    out.backward()
    assert b.grad is None
    assert np.allclose(a.grad, 1.0)


def test_check_finite_gradients_names_offender():
    good = ad.Tensor(np.ones(2), requires_grad=True)
    bad = ad.Tensor(np.ones(2), requires_grad=True)
    good.grad = np.zeros(2)
    bad.grad = np.array([1.0, np.nan])
    with pytest.raises(NumericalError, match="block0.theta"):
        ad.check_finite_gradients({"head": good, "block0.theta": bad})
