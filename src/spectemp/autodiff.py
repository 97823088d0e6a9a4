"""Minimal reverse-mode gradient engine over numpy arrays.

Every operation records its inputs and a vector-Jacobian closure on the
result node, so a forward pass builds a tape implicitly (the DAG of nodes);
``backward`` replays it once in reverse topological order. Only float64
real arrays are supported; complex quantities are carried as separate
real/imaginary parts by the caller.

The op set is what the forecasting model needs: broadcast elementwise
arithmetic, relu/softmax, safe reciprocal square root for degree
normalization, stacking, and bilinear contractions, each one ``contract``
call that derives its VJP subscripts from its einsum subscripts. (``neg``
and ``mode_filter`` have no caller in the model; the benchmark's tracer
still wraps them by name.) Every contraction, forward or VJP, runs as
one broadcasting ``np.matmul``: a plan made once per subscript string
sorts the axes into batch, summed and free axes and says how to
transpose and reshape the operands into (batch..., M, K) @ (batch..., K,
N) and the product back to the output order. Shapes follow the model
convention (batch, node, time, dim).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "Tensor",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "neg",
    "relu",
    "softmax_last",
    "reshape",
    "transpose_last2",
    "sum_all",
    "sum_last",
    "stack",
    "rsqrt_safe",
    "contract",
    "graph_mix",
    "time_mix",
    "mode_filter",
    "node_scores",
    "node_apply",
    "embed_map",
    "pair_scores",
]

_DEGREE_FLOOR = 1e-12


class Tensor:
    """One tape node: a float64 array plus reverse-mode bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        # parents: tuple of (Tensor, vjp callable grad_out -> grad_parent)
        self._parents = tuple(parents)

    @property
    def shape(self):
        return self.data.shape

    def topological_order(self):
        """All reachable nodes, inputs strictly before consumers."""
        order, seen, stack = [], set(), [(self, False)]
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
        return order

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() expects a scalar loss node")
        order = self.topological_order()
        for node in order:
            node.grad = None
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node.grad is None:
                continue
            for parent, vjp in node._parents:
                if not parent.requires_grad:
                    continue
                contrib = vjp(node.grad)
                # The first contribution may be a view another parent also
                # holds, so every later one is added out of place.
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
        return self

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, inputs_and_vjps):
    """Build a result node; gradient tracking is inherited from inputs."""
    tracked = [(t, vjp) for t, vjp in inputs_and_vjps if t.requires_grad]
    requires = bool(tracked)
    return Tensor(data, requires_grad=requires, parents=tracked)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ])


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def neg(a):
    a = as_tensor(a)
    return _node(-a.data, [(a, lambda g: -g)])


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0
    return _node(np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def softmax_last(a):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)

    return _node(y, [(a, vjp)])


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape
    return _node(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def transpose_last2(a):
    a = as_tensor(a)
    return _node(np.swapaxes(a.data, -1, -2),
                 [(a, lambda g: np.swapaxes(g, -1, -2))])


def sum_all(a):
    a = as_tensor(a)
    shape = a.data.shape
    return _node(np.asarray(a.data.sum()),
                 [(a, lambda g: np.broadcast_to(g, shape).copy())])


def stack(tensors):
    """Stack equally shaped tensors along a new leading axis."""
    tensors = [as_tensor(t) for t in tensors]
    return _node(np.stack([t.data for t in tensors]),
                 [(t, lambda g, k=k: g[k]) for k, t in enumerate(tensors)])


def sum_last(a):
    a = as_tensor(a)
    shape = a.data.shape
    return _node(a.data.sum(axis=-1),
                 [(a, lambda g: np.broadcast_to(g[..., None], shape).copy())])


def rsqrt_safe(a):
    """x -> x**-0.5 where x is safely positive, else 0 (with zero gradient)."""
    a = as_tensor(a)
    ok = a.data > _DEGREE_FLOOR
    safe = np.where(ok, a.data, 1.0)
    y = np.where(ok, safe ** -0.5, 0.0)

    def vjp(g):
        return np.where(ok, -0.5 * safe ** -1.5, 0.0) * g

    return _node(y, [(a, vjp)])


# ---------------------------------------------------------------------------
# bilinear contractions for the (batch, node, time, dim) layout
# ---------------------------------------------------------------------------

_PLANS = {}


def _plan(spec):
    """Matmul plan for the two-operand contraction ``spec`` ("sa,sb->so").

    Batch axes are in both operands and the output, summed axes in both
    operands only, free axes in one operand and the output. Returns the
    permutations that bring ``a`` to (batch, free_a, summed) and ``b`` to
    (batch, summed, free_b), the three axis counts, and the permutation
    from (batch, free_a, free_b) to the output order. Plans are cached by
    ``spec``; each is a tuple, so sharing one is safe.
    """
    plan = _PLANS.get(spec)
    if plan is None:
        a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
        batch = [c for c in out_sub if c in a_sub and c in b_sub]
        free_a = [c for c in out_sub if c in a_sub and c not in b_sub]
        free_b = [c for c in out_sub if c in b_sub and c not in a_sub]
        summed = [c for c in a_sub if c in b_sub and c not in out_sub]
        plan = _PLANS[spec] = (
            tuple(a_sub.index(c) for c in batch + free_a + summed),
            tuple(b_sub.index(c) for c in batch + summed + free_b),
            len(batch), len(free_a), len(summed),
            tuple((batch + free_a + free_b).index(c) for c in out_sub),
        )
    return plan


def _matmul(spec, a, b):
    """Arrays ``a`` and ``b`` contracted by ``spec`` as one ``np.matmul``.

    Batch axes stay unflattened, so size-1 batch axes broadcast as in
    numpy; free and summed axes are flattened into the M, K and N axes.
    """
    perm_a, perm_b, n_batch, n_free_a, n_summed, perm_out = _plan(spec)
    a, b = a.transpose(perm_a), b.transpose(perm_b)
    free_a = a.shape[n_batch:n_batch + n_free_a]
    free_b = b.shape[n_batch + n_summed:]
    k = math.prod(a.shape[n_batch + n_free_a:])
    out = np.matmul(a.reshape(a.shape[:n_batch] + (math.prod(free_a), k)),
                    b.reshape(b.shape[:n_batch] + (k, math.prod(free_b))))
    return out.reshape(out.shape[:n_batch] + free_a + free_b).transpose(perm_out)


def contract(spec, a, b):
    """Contraction ``spec`` ("sa,sb->so") of two operands as one tape node.

    Its VJPs contract by "so,sb->sa" (with ``g`` and ``b``) and "sa,so->sb"
    (with ``a`` and ``g``) and are summed back to each operand's shape, so
    size-1 axes broadcast. Forward and VJPs each run as one ``_matmul``.
    Every operand axis must appear in the other operand or in the output.
    """
    a, b = as_tensor(a), as_tensor(b)
    a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
    return _node(_matmul(spec, a.data, b.data), [
        (a, lambda g: _unbroadcast(
            _matmul(f"{out_sub},{b_sub}->{a_sub}", g, b.data), a.data.shape)),
        (b, lambda g: _unbroadcast(
            _matmul(f"{a_sub},{out_sub}->{b_sub}", a.data, g), b.data.shape)),
    ])


_GRAPH_MIX = {2: "ij,bjtd->bitd", 3: "dij,bjtd->bitd", 4: "bdij,bjtd->bitd"}


def graph_mix(m, x):
    """Mix along the node axis: out[b,i,t,d] = sum_j m[i,j] x[b,j,t,d].

    ``m`` is a shared (N, N) operator, a per-dimension (D|1, N, N) stack or
    a per-sample (B, D|1, N, N) stack; a size-1 dimension axis is shared by
    every dimension.
    """
    m = as_tensor(m)
    return contract(_GRAPH_MIX[m.data.ndim], m, x)


def time_mix(a, x):
    """Mix along the time axis: out[b,n,i,d] = sum_j a[i,j] x[b,n,j,d].

    ``a`` is a shared (T, T) operator or an (N|1, D|1, T, T) stack of one
    operator per variable and dimension, whose size-1 axes are shared.
    """
    a = as_tensor(a)
    return contract("ij,bnjd->bnid" if a.data.ndim == 2 else "ndij,bnjd->bnid", a, x)


def mode_filter(x, w):
    """Per-variable per-dimension mode mixing.

    out[b,n,j,d] = sum_i x[b,n,i,d] w[n,d,i,j]; the first two axes of ``w``
    may be 1 for weight sharing across variables and/or dimensions.
    """
    return contract("bnid,ndij->bnjd", x, w)


def node_scores(q, k):
    """Pairwise mode scores per node: out[b,n,i,j] = sum_d q[b,n,i,d] k[b,n,j,d]."""
    return contract("bnid,bnjd->bnij", q, k)


def node_apply(a, v):
    """Apply per-node mixing weights: out[b,n,i,d] = sum_j a[b,n,i,j] v[b,n,j,d]."""
    return contract("bnij,bnjd->bnid", a, v)


def embed_map(x, w):
    """Shared linear map on the last axis: out[b,n,l] = sum_k x[b,n,k] w[k,l]."""
    return contract("bnk,kl->bnl", x, w)


def pair_scores(e):
    """Dot products between all variable pairs: out[b,n,m] = e[b,n,:] . e[b,m,:]."""
    e = as_tensor(e)
    return contract("bne,bme->bnm", e, e)


def check_finite_gradients(named_params):
    """Raise NumericalError naming the first parameter with a non-finite gradient."""
    for name, tensor in named_params.items():
        if tensor.grad is not None and not np.all(np.isfinite(tensor.grad)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
