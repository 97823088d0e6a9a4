"""Minimal reverse-mode gradient engine over numpy arrays.

A ``Tensor`` is a value being differentiated: a leaf the caller makes or
the result of an op with a ``Tensor`` operand. Ops read other operands as
float64 arrays, and an op on arrays alone returns an array and records
nothing, so inference builds no tape. A result node lists its ``Tensor``
inputs, each with a vector-Jacobian closure. Each node is numbered when
it is made, and an op's inputs are made before its result, so
``backward`` replays the nodes the loss reaches once in descending number
order (a Wengert list read backwards). Only float64 real arrays are
supported; a caller carries a complex quantity on a real axis (the
model's attention interleaves re/im on the mode axis, so one contraction
forms each complex product).

The op set is what the forecasting model needs: broadcast elementwise
arithmetic, relu/softmax, safe reciprocal square root for degree
normalization, stacking, bilinear contractions, each one ``contract``
call that derives its VJP subscripts from its einsum subscripts, and
attention's per-row mode products. (``neg`` and ``mode_filter`` have no
caller in the model; the benchmark's tracer still wraps them by name.)
Every ``contract``, forward or VJP, runs as one broadcasting
``np.matmul``: a plan made once per subscript string sorts the axes into
batch, summed and free axes, picks each operand's orientation from the
subscripts alone and says how to transpose and reshape the operands into
(batch..., M, K) @ (batch..., K, N) and the product back to the output
order. The model carries its activations as contiguous (dim, node,
batch, time) arrays, (D, N, B, T), so a node mix is one (N, N) @
(N, B*T) product per dimension and a time mix one (B, T) @ (T, T)^T
product per (dimension, node), each reading its operands as they lie
and writing a contiguous result. Attention's scores and value mix
contract only a few modes per (node, batch) pair, where a matmul pays
per pair; so ``node_scores`` and ``node_apply`` take modes with the
(node, batch) axes innermost, (S, E, N, B), and run as broadcast
products and sums over rows of length N*B.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "Tensor",
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
]

_DEGREE_FLOOR = 1e-12
_creation = itertools.count()


class Tensor:
    """One tape node: a float64 array plus reverse-mode bookkeeping."""

    __slots__ = ("data", "grad", "_parents", "_seq")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        # parents: tuple of (Tensor, vjp callable grad_out -> grad_parent)
        self._parents = tuple(parents)
        self._seq = next(_creation)     # creation order, for ``backward``

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        """Fill ``grad`` on every node this scalar node reaches."""
        if self.data.shape != ():
            raise ValueError("backward() expects a scalar loss node")
        nodes, stack = {self._seq: self}, [self]
        while stack:
            for parent, _ in stack.pop()._parents:
                if parent._seq not in nodes:
                    nodes[parent._seq] = parent
                    stack.append(parent)
        for node in nodes.values():
            node.grad = None
        self.grad = np.ones((), dtype=np.float64)
        # consumers are replayed before their inputs, so a node's grad is
        # complete, and never None, by the time it is replayed
        for seq in sorted(nodes, reverse=True):
            node = nodes[seq]
            for parent, vjp in node._parents:
                contrib = vjp(node.grad)
                # The first contribution may be a view another parent also
                # holds, so every later one is added out of place.
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
        return self

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _value(x):
    """An op operand's array: a node's data, or ``x`` itself as float64."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(data, inputs_and_vjps):
    """The op's result: a node over its Tensor inputs, or ``data`` if none."""
    tracked = [(t, vjp) for t, vjp in inputs_and_vjps if isinstance(t, Tensor)]
    return Tensor(data, tracked) if tracked else data


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
    va, vb = _value(a), _value(b)
    return _node(va + vb, [
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(g, vb.shape)),
    ])


def sub(a, b):
    va, vb = _value(a), _value(b)
    return _node(va - vb, [
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(-g, vb.shape)),
    ])


def mul(a, b):
    va, vb = _value(a), _value(b)
    return _node(va * vb, [
        (a, lambda g: _unbroadcast(g * vb, va.shape)),
        (b, lambda g: _unbroadcast(g * va, vb.shape)),
    ])


def neg(a):
    return _node(-_value(a), [(a, lambda g: -g)])


def relu(a):
    va = _value(a)
    # bitwise np.where(va > 0, va, 0.0), without its per-element scalar
    # broadcast: fmax maps NaN to 0, and adding 0.0 turns a -0.0 that fmax
    # may return on a tie into +0.0
    y = np.fmax(va, 0.0)
    y += 0.0
    return _node(y, [(a, lambda g: g * (va > 0.0))])


def softmax_last(a):
    """Softmax over the last axis. numpy reduces a last axis that is
    outermost in memory, as in ``node_scores``' key-major scores, one whole
    slice at a time, so a short axis costs no per-row overhead."""
    va = _value(a)
    e = np.exp(va - va.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _node(y, [(a, vjp)])


def reshape(a, shape):
    va = _value(a)
    return _node(va.reshape(shape), [(a, lambda g: g.reshape(va.shape))])


def transpose_last2(a):
    return _node(np.swapaxes(_value(a), -1, -2),
                 [(a, lambda g: np.swapaxes(g, -1, -2))])


def sum_all(a):
    va = _value(a)
    return _node(np.asarray(va.sum()),
                 [(a, lambda g: np.broadcast_to(g, va.shape).copy())])


def stack(tensors, axes=None):
    """Stack equally shaped operands along a new leading axis. With
    ``axes``, each operand is transposed by it first, and the result is
    C-contiguous all the same."""
    values = [_value(t) for t in tensors]
    if axes is None:
        return _node(np.stack(values), [(t, lambda g, k=k: g[k]) for k, t in enumerate(tensors)])
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = np.empty((len(values),) + values[0].transpose(axes).shape)
    for k, value in enumerate(values):
        out[k] = value.transpose(axes)
    return _node(out, [(t, lambda g, k=k: g[k].transpose(inverse))
                       for k, t in enumerate(tensors)])


def sum_last(a):
    va = _value(a)
    return _node(va.sum(axis=-1),
                 [(a, lambda g: np.broadcast_to(g[..., None], va.shape).copy())])


def rsqrt_safe(a):
    """x -> x**-0.5 where x is safely positive, else 0 (with zero gradient)."""
    va = _value(a)
    ok = va > _DEGREE_FLOOR
    y = np.power(va, -0.5, out=np.zeros_like(va), where=ok)

    def vjp(g):
        slope = np.power(va, -1.5, out=np.zeros_like(va), where=ok)
        return np.multiply(slope, -0.5, out=slope, where=ok) * g

    return _node(y, [(a, vjp)])


# ---------------------------------------------------------------------------
# bilinear contractions for the (dim, node, batch, time) layout
# ---------------------------------------------------------------------------

_PLANS = {}


def _operand(sub, batch, first, second):
    """How one operand becomes its (batch..., rows, cols) matrix: the
    permutation of ``sub`` to (batch, first, second) and the cut between
    the row and column axes, or, when ``sub`` already lists its non-batch
    axes as (second, first), the permutation to that order and True, for
    the matrix to be read as its transposed view."""
    swap = bool(first and second) and [c for c in sub if c not in batch] == second + first
    rows, cols = (second, first) if swap else (first, second)
    return tuple(map(sub.index, batch + rows + cols)), len(batch) + len(rows), swap


def _plan(spec):
    """Matmul plan for the two-operand contraction ``spec`` ("sa,sb->so").

    Batch axes are in both operands and the output, summed axes in both
    operands only, free axes in one operand and the output; free axes keep
    the output's order and summed axes ``sa``'s. The product is
    out = a b, with a as (batch, free_a, summed) and b as (batch, summed,
    free_b), unless the output lists all of b's free axes before a's:
    then it is out^T = b^T a^T, so the product comes out in the output's
    order. An operand whose non-batch axes are listed in the opposite
    order to the one its side of the product needs (summed before free on
    the left, free before summed on the right) is passed as a transposed
    view of its own order, which costs no copy when it is contiguous.
    Returns ``flip``, each side's (permutation, cut, swap, free-axes
    slice), the batch count and the permutation from (batch, free_left,
    free_right) to the output order, None when that is the identity.
    Plans are cached by ``spec``; each is a tuple, so sharing one is safe.
    """
    plan = _PLANS.get(spec)
    if plan is None:
        a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
        batch = [c for c in out_sub if c in a_sub and c in b_sub]
        free_a = [c for c in out_sub if c in a_sub and c not in b_sub]
        free_b = [c for c in out_sub if c in b_sub and c not in a_sub]
        summed = [c for c in a_sub if c in b_sub and c not in out_sub]
        flip = bool(free_a and free_b) and out_sub.index(free_b[-1]) < out_sub.index(free_a[0])
        (left, free_l), (right, free_r) = (((b_sub, free_b), (a_sub, free_a)) if flip
                                           else ((a_sub, free_a), (b_sub, free_b)))
        perm_l, cut_l, swap_l = _operand(left, batch, free_l, summed)
        perm_r, cut_r, swap_r = _operand(right, batch, summed, free_r)
        n_batch = len(batch)
        perm_out = tuple((batch + free_l + free_r).index(c) for c in out_sub)
        plan = _PLANS[spec] = (
            flip,
            (perm_l, cut_l, swap_l, slice(cut_l, None) if swap_l else slice(n_batch, cut_l)),
            (perm_r, cut_r, swap_r, slice(n_batch, cut_r) if swap_r else slice(cut_r, None)),
            n_batch,
            None if perm_out == tuple(range(len(out_sub))) else perm_out,
        )
    return plan


def _matrix(x, side, n_batch):
    """``x`` as its side of the product, (batch..., rows, cols), and the
    shape it was permuted to (see ``_operand``)."""
    perm, cut, swap, _ = side
    x = x.transpose(perm)
    shape = x.shape
    x = x.reshape(shape[:n_batch] + (math.prod(shape[n_batch:cut]), math.prod(shape[cut:])))
    return (x.swapaxes(-1, -2) if swap else x), shape


def _matmul(spec, a, b):
    """Arrays ``a`` and ``b`` contracted by ``spec`` as one ``np.matmul``.

    Batch axes stay unflattened, so size-1 batch axes broadcast as in
    numpy; free and summed axes are flattened into the M, K and N axes. A
    reshape of an operand that is not contiguous in the planned order
    copies it, so any layout gives the same answer.
    """
    flip, left, right, n_batch, perm_out = _plan(spec)
    x, shape_x = _matrix(b if flip else a, left, n_batch)
    y, shape_y = _matrix(a if flip else b, right, n_batch)
    out = np.matmul(x, y)
    out = out.reshape(out.shape[:n_batch] + shape_x[left[3]] + shape_y[right[3]])
    return out if perm_out is None else out.transpose(perm_out)


def contract(spec, a, b):
    """Contraction ``spec`` ("sa,sb->so") of two operands as one tape node.

    Its VJPs contract by "so,sb->sa" (with ``g`` and ``b``) and "sa,so->sb"
    (with ``a`` and ``g``) and are summed back to each operand's shape, so
    size-1 axes broadcast. Forward and VJPs each run as one ``_matmul``.
    Every operand axis must appear in the other operand or in the output.
    """
    va, vb = _value(a), _value(b)
    a_sub, b_sub, out_sub = spec.replace("->", ",").split(",")
    return _node(_matmul(spec, va, vb), [
        (a, lambda g: _unbroadcast(
            _matmul(f"{out_sub},{b_sub}->{a_sub}", g, vb), va.shape)),
        (b, lambda g: _unbroadcast(
            _matmul(f"{a_sub},{out_sub}->{b_sub}", va, g), vb.shape)),
    ])


_GRAPH_MIX = {2: "ij,djbt->dibt", 3: "dij,djbt->dibt", 4: "bdij,djbt->dibt"}


def graph_mix(m, x):
    """Mix along the node axis of a (D, N, B, T) signal:
    out[d,i,b,t] = sum_j m[i,j] x[d,j,b,t].

    ``m`` is a shared (N, N) operator, a per-dimension (D|1, N, N) stack or
    a per-sample (B, D|1, N, N) stack; a size-1 dimension axis is shared by
    every dimension. A (D|1, N, N) stack runs as one (N, N) @ (N, B*T)
    product per dimension on the contiguous signal and returns a contiguous
    result.
    """
    return contract(_GRAPH_MIX[_value(m).ndim], m, x)


def time_mix(a, x):
    """Mix along the time axis of a (D, N, B, T) signal:
    out[d,n,b,i] = sum_j a[i,j] x[d,n,b,j].

    ``a`` is a shared (T, T) operator or a (D|1, N|1, T, T) stack of one
    operator per dimension and variable, whose size-1 axes are shared.
    Each (d, n) slice z runs as the product z (B x T) @ a^T, which reads a
    contiguous signal and a contiguous stack as they are and returns a
    contiguous result.
    """
    spec = "ij,dnbj->dnbi" if _value(a).ndim == 2 else "dnij,dnbj->dnbi"
    return contract(spec, a, x)


def mode_filter(x, w):
    """Per-variable per-dimension mode mixing.

    out[b,n,j,d] = sum_i x[b,n,i,d] w[n,d,i,j]; the first two axes of ``w``
    may be 1 for weight sharing across variables and/or dimensions.
    """
    return contract("bnid,ndij->bnjd", x, w)


def node_scores(q, k):
    """Pairwise mode scores per (node, batch) row.

    out[i,n,b,j] = sum_e q[i,e,n,b] k[j,e,n,b] for q (I, E, N, B) and
    k (J, E, N, B). The result is stored as (I, J, N, B): the products
    run over rows of length N*B instead of as N*B tiny (I, E) @ (E, J)
    products, and numpy's reductions over j in ``softmax_last`` run over
    these key-major scores one (I, N, B) slice at a time.
    """
    vq, vk = _value(q), _value(k)
    scores = (vq[:, None] * vk[None]).sum(axis=2)
    return _node(scores.transpose(0, 2, 3, 1), [
        (q, lambda g: (g.transpose(0, 3, 1, 2)[:, :, None] * vk[None]).sum(axis=1)),
        (k, lambda g: (g.transpose(0, 3, 1, 2)[:, :, None] * vq[:, None]).sum(axis=0)),
    ])


def node_apply(a, v):
    """Apply per-row mixing weights to modes, as rows of length N*B.

    out[i,e,n,b] = sum_j a[i,n,b,j] v[j,e,n,b] for (I, N, B, J) weights
    (best stored as (I, J, N, B), as ``node_scores`` leaves them) and
    (J, E, N, B) modes.
    """
    va, vv = _value(a), _value(v)
    weights = va.transpose(0, 3, 1, 2)[:, :, None]
    return _node((weights * vv[None]).sum(axis=1), [
        (a, lambda g: (g[:, None] * vv[None]).sum(axis=2).transpose(0, 2, 3, 1)),
        (v, lambda g: (weights * g[:, None]).sum(axis=0)),
    ])
