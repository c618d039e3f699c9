"""Reverse-mode differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced, so a
single `backward()` call on a scalar output fills `.grad` on every tensor
that contributed to it.  Only the operators needed by the question-answering
models are provided: affine maps, valid 1-d convolution over token
positions, max-over-time pooling, tanh/sigmoid, concatenation along the
feature axis, elementwise product, embedding lookup, a fused stacked LSTM
(in `lstm.py`) and a masked softmax cross entropy.  There is no broadcasting
beyond what these operators define internally.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, TrainingError


class Tensor:
    """Node of the computation graph.

    `grad_mask`, when set on a leaf, marks coordinates that must never
    receive gradient (used to freeze the padding row of embedding tables).
    """

    __slots__ = ("data", "grad", "op", "name", "trainable", "grad_mask",
                 "_parents", "_backward")

    def __init__(self, data, parents=(), op="leaf", name=None, trainable=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self.name = name
        self.trainable = trainable
        self.grad_mask = None
        self._parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.data.shape})"

    def backward(self):
        """Backpropagate from this scalar through the whole graph.

        A graph can be backpropagated once: each node drops its backward
        rule after running it.  That rule closes over the node, so dropping
        it breaks the reference cycle and lets the graph be freed as soon as
        the caller lets go of it, without waiting for the cyclic collector.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward: output must be scalar, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            rule, node._backward = node._backward, None
            if rule is not None and node.grad is not None:
                rule()


def parameter(data, name):
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), op="param", name=name, trainable=True)


def constant(data):
    return Tensor(data, op="const")


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def _accum(t, g):
    """Add `g` into `t.grad`, respecting a frozen-coordinate mask."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if t.grad_mask is not None:
        g = np.where(t.grad_mask, g, 0.0)
    t.grad += g


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise operators

def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor(a.data + b.data, parents=(a, b), op="add")

    def _bw():
        _accum(a, out.grad)
        _accum(b, out.grad)

    out._backward = _bw
    return out


def mul(a, b):
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor(a.data * b.data, parents=(a, b), op="mul")

    def _bw():
        _accum(a, out.grad * b.data)
        _accum(b, out.grad * a.data)

    out._backward = _bw
    return out


def scale(a, c):
    """Multiply by a python constant (not differentiated through `c`)."""
    c = float(c)
    out = Tensor(a.data * c, parents=(a,), op="scale")

    def _bw():
        _accum(a, out.grad * c)

    out._backward = _bw
    return out


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y, parents=(a,), op="tanh")

    def _bw():
        _accum(a, out.grad * (1.0 - y * y))

    out._backward = _bw
    return out


def _sigmoid(x):
    """Logistic function without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (e + 1.0)


def sigmoid(a):
    y = _sigmoid(a.data)
    out = Tensor(y, parents=(a,), op="sigmoid")

    def _bw():
        _accum(a, out.grad * y * (1.0 - y))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# linear algebra

def affine(x, w, b):
    """x @ w + b for a batch of row vectors; bias is broadcast over rows."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine: bias shape {b.data.shape} does not match output width {w.data.shape[1]}")
    out = Tensor(x.data @ w.data + b.data, parents=(x, w, b), op="affine")

    def _bw():
        g = out.grad
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    out._backward = _bw
    return out


def conv1d(x, w, b):
    """Valid 1-d convolution over token positions.

    x: (batch, time, channels), w: (width, channels, filters), b: (filters,).
    Output has time length `time - width + 1`.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-d input and kernel, got {x.data.shape}, {w.data.shape}")
    bsz, t, ch = x.data.shape
    width, ch2, nf = w.data.shape
    if ch2 != ch:
        raise ShapeError(f"conv1d: channel mismatch {ch} vs {ch2}")
    if t < width:
        raise ShapeError(f"conv1d: sequence length {t} shorter than filter width {width}")
    if b.data.shape != (nf,):
        raise ShapeError(f"conv1d: bias shape {b.data.shape} does not match filter count {nf}")
    tp = t - width + 1
    # (batch, tp, width*channels) windows, then one matmul
    win = np.stack([x.data[:, i:i + tp, :] for i in range(width)], axis=2)
    win = win.reshape(bsz, tp, width * ch)
    wr = w.data.reshape(width * ch, nf)
    out = Tensor(win @ wr + b.data, parents=(x, w, b), op="conv1d")

    def _bw():
        g = out.grad  # (batch, tp, nf)
        gw = win.reshape(bsz * tp, width * ch).T @ g.reshape(bsz * tp, nf)
        _accum(w, gw.reshape(width, ch, nf))
        _accum(b, g.sum(axis=(0, 1)))
        gwin = (g @ wr.T).reshape(bsz, tp, width, ch)
        gx = np.zeros_like(x.data)
        for i in range(width):
            gx[:, i:i + tp, :] += gwin[:, :, i, :]
        _accum(x, gx)

    out._backward = _bw
    return out


def max_over_time(x):
    """Max over the time axis of a (batch, time, channels) tensor."""
    if x.data.ndim != 3:
        raise ShapeError(f"max_over_time: expected 3-d input, got {x.data.shape}")
    idx = np.argmax(x.data, axis=1)  # (batch, channels), first max on ties
    bsz, _, ch = x.data.shape
    bi = np.arange(bsz)[:, None]
    ci = np.arange(ch)[None, :]
    out = Tensor(x.data[bi, idx, ci], parents=(x,), op="max_over_time")

    def _bw():
        gx = np.zeros_like(x.data)
        gx[bi, idx, ci] = out.grad
        _accum(x, gx)

    out._backward = _bw
    return out


def concat(tensors, what="features"):
    """Concatenate along the last (feature) axis."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: no inputs")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.shape[:-1] != lead:
            raise ShapeError(f"concat: leading shapes differ ({what})")
    sizes = [t.data.shape[-1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1),
                 parents=tuple(tensors), op="concat")

    def _bw():
        off = 0
        for t, sz in zip(tensors, sizes):
            _accum(t, out.grad[..., off:off + sz])
            off += sz

    out._backward = _bw
    return out


def embedding(table, ids):
    """Look up rows of `table` for an integer id array of shape (batch, time)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError("embedding: id out of range for table")
    out = Tensor(table.data[ids], parents=(table,), op="embedding")

    def _bw():
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), out.grad.reshape(-1, table.data.shape[1]))
        _accum(table, gt)

    out._backward = _bw
    return out


def weighted_sum(t, weights):
    """Scalar projection sum(t * weights) for a fixed weight array."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != t.data.shape:
        raise ShapeError(f"weighted_sum: weight shape {weights.shape} != {t.data.shape}")
    out = Tensor(np.float64((t.data * weights).sum()), parents=(t,), op="weighted_sum")

    def _bw():
        _accum(t, weights * out.grad)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy_masked(logits_heads, targets_heads, masks_heads):
    """Summed cross entropy over several answer heads with per-row masks.

    Each head supplies logits of shape (batch, classes), integer targets of
    shape (batch,), and a boolean mask of shape (batch,).  Masked rows
    contribute exactly zero to the value and to every gradient; their target
    entries are never read, so -1 is a valid placeholder.  The result is the
    plain sum over unmasked rows of all heads (no averaging).
    """
    logits_heads = list(logits_heads)
    saved = []
    total = np.float64(0.0)
    for h, (lg, tg, mk) in enumerate(zip(logits_heads, targets_heads, masks_heads)):
        z = lg.data
        if z.ndim != 2:
            raise ShapeError(f"softmax_cross_entropy_masked: head {h} logits must be 2-d")
        bsz, k = z.shape
        tg = np.asarray(tg, dtype=np.int64)
        mk = np.asarray(mk, dtype=bool)
        if tg.shape != (bsz,) or mk.shape != (bsz,):
            raise ShapeError(f"softmax_cross_entropy_masked: head {h} target/mask shape mismatch")
        bad = mk & ((tg < 0) | (tg >= k))
        if bad.any():
            row = int(np.argmax(bad))
            raise TrainingError(
                f"target {tg[row]} out of range [0, {k}) on unmasked head {h}, row {row}")
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        sez = ez.sum(axis=1)
        lse = np.log(sez) + zmax[:, 0]
        safe = np.where(mk, tg, 0)
        ce = lse - z[np.arange(bsz), safe]
        total = total + np.where(mk, ce, 0.0).sum()
        saved.append((lg, ez / sez[:, None], safe, mk))

    out = Tensor(np.float64(total), parents=tuple(logits_heads), op="softmax_ce_masked")

    def _bw():
        g = out.grad
        for lg, probs, safe, mk in saved:
            d = probs.copy()
            d[np.arange(d.shape[0]), safe] -= 1.0
            d *= mk[:, None].astype(np.float64)  # exact zeros on masked rows
            _accum(lg, d * g)

    out._backward = _bw
    return out
