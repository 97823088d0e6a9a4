"""Finite-difference checks for every reverse-mode op, plus tape mechanics."""

import inspect

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
    t = ad.Tensor(np.array([0.0, 1e-15, 4.0]), requires_grad=True)
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
        assert np.abs(ad.graph_mix(m, x).data - want).max() < 1e-12


def test_time_mix():
    # one shared operator, or one per variable and dimension (size-1 axes shared)
    x = rng_arrays(11, (2, 4, 3, 2))[0]
    for seed, shape in ((11, (3, 3)), (21, (4, 2, 3, 3)), (22, (1, 2, 3, 3)),
                        (25, (4, 1, 3, 3)), (26, (1, 1, 3, 3))):
        a = rng_arrays(seed, shape)[0]
        check_op(lambda t: ad.time_mix(t[0], t[1]), [a, x])
        full = np.broadcast_to(a, (4, 2, 3, 3))
        want = np.einsum("ndij,bnjd->bnid", full, x)
        assert np.abs(ad.time_mix(a, x).data - want).max() < 1e-12


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


# (spec, {subscripts: shape override}) for every contraction the tape runs;
# overrides give the size-1 axes of shared mode-filter weights.
SIZES = dict(b=3, n=4, m=4, i=5, j=6, t=2, d=2, k=7, l=3, e=5, p=3, q=4, r=2)
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
]


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


def test_matmul_plan_pair_scores_with_one_operand_twice():
    e = rng_arrays(32, (3, 4, 5))[0]
    want = np.einsum("bne,bme->bnm", e, e)
    t = ad.Tensor(e, requires_grad=True)
    out = ad.pair_scores(t)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    probe = rng_arrays(33, (3, 4, 4))[0]
    ad.sum_all(ad.mul(out, probe)).backward()
    grad = np.einsum("bnm,bme->bne", probe, e) + np.einsum("bnm,bne->bme", probe, e)
    assert np.abs(t.grad - grad).max() <= 1e-12 * np.abs(grad).max()


def test_tape_contractions_never_call_einsum():
    assert "np.einsum" not in inspect.getsource(ad)


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
