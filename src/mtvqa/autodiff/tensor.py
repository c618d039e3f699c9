"""Reverse-mode differentiation over numpy arrays.

A Tensor wraps a float32 or float64 ndarray and remembers how it was
produced, so a single `backward()` call on a scalar output fills `.grad` on
every tensor that contributed to it.  The engine never picks a float type:
a tensor keeps its input's, every array an operator makes follows its
inputs, and gradients take their tensor's, so a graph built from float32
parameters runs in float32 end to end.  The engine holds exactly the
operators that the question-answering models and their training run:
affine maps, valid 1-d convolution over token positions max-pooled over
them, tanh, concatenation along the feature axis, elementwise product, the
word lookup (id 0 is padding: it reads zeros and its row takes no gradient), a
generic row lookup (of encoded questions, so a model encodes each distinct
question once), an affine map over an input laid beside per-head rows of
such an encoding that multiplies each head's weights by its distinct rows
once (`slot_affine`), a fused stacked LSTM (in `lstm.py`) and a masked
softmax cross entropy over answer heads laid side by side in one logits
tensor.  There is no broadcasting beyond what these operators define
internally.

Every operator builds its output with `_node`, and no node refers to
itself, so no graph is a reference cycle: reference counting frees a graph
as soon as the caller lets go of its root, backpropagated or not.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import ShapeError, TrainingError

# the dtypes a tensor keeps; it makes any other input float64
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Node of the computation graph."""

    __slots__ = ("data", "grad", "op", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), op="leaf", name=None):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad = None
        self.op = op
        self.name = name
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

        The root's upstream gradient is its `.grad` if the caller set one
        (training sets the loss's 1/batch factor there), and 1 otherwise,
        in the root's dtype.
        A graph can be backpropagated once: each node drops its backward
        rule after running it, and a second call raises `TrainingError`.
        Dropping the rules frees the arrays they saved (the convolution's
        side-by-side taps and outputs, LSTM gates) while the caller
        still holds this tensor.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward: output must be scalar, got shape {self.data.shape}")
        if self._parents and self._backward is None:
            raise TrainingError(f"backward: this {self.op} graph was already backpropagated")
        order = _toposort(self)
        self.grad = np.asarray(1.0 if self.grad is None else self.grad, dtype=self.data.dtype)
        for node in reversed(order):
            rule, node._backward = node._backward, None
            if rule is not None and node.grad is not None:
                rule()


def parameter(data, name):
    """A trainable leaf tensor holding a copy of `data`."""
    return Tensor(np.array(data), op="param", name=name)


def constant(data):
    return Tensor(data, op="const")


def _node(data, parents, op, rule):
    """The output of an operator, whose gradient `g` flows back by `rule(g)`.

    `rule` may refer to the inputs and to arrays saved by the forward pass,
    never to the output.  `_backward` stays a zero-argument callable; it
    reaches the output only through a weak reference, which is alive when
    it runs because `Tensor.backward` holds every node of the graph.
    """
    out = Tensor(data, parents=parents, op=op)
    ref = weakref.ref(out)
    out._backward = lambda: rule(ref().grad)
    return out


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


def _accum(t, g, rows=...):
    """Add `g` into `t.grad[rows]`, all of it by default.  Indexed rows must
    be distinct, so each gets its `g` once; the row lookups pass their
    touched rows and `slot_affine` its weight blocks, so they build no array
    the size of their table or weight.  A first gradient is `g + 0.0`, where
    -0.0 reads +0.0 as in zeros + g, placed in zeros if `rows` is indexed."""
    if t.grad is not None:
        t.grad[rows] += g
    elif rows is ...:
        t.grad = g + 0.0
    else:
        t.grad = np.zeros_like(t.data)
        t.grad[rows] = g + 0.0


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise operators

def mul(a, b):
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    def _bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), "mul", _bw)


def tanh(a):
    y = np.tanh(a.data)

    def _bw(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), "tanh", _bw)


# ---------------------------------------------------------------------------
# linear algebra

def affine(x, w, b):
    """x @ w + b for a batch of row vectors; bias is broadcast over rows."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine: bias shape {b.data.shape} does not match output width {w.data.shape[1]}")

    def _bw(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _node(x.data @ w.data + b.data, (x, w, b), "affine", _bw)


def slot_affine(x, enc, inv, w, b):
    """`affine(concat([x] + [gather_rows(enc, i) for i in inv]), w, b)` for
    (heads, batch) row ids `inv`, as `x @ w_x + b + sum_h (enc[u_h] @ w_h)[j_h]`:
    head h's block of `w` multiplies the distinct rows `u_h` it reads once,
    and the heads add in order.  The backward sums each head's gradient per
    distinct row with a one-hot GEMM (faster here than a sort and reduceat)."""
    inv = np.asarray(inv, dtype=np.int64)
    if {x.data.ndim, enc.data.ndim, w.data.ndim, inv.ndim} != {2} or inv.shape[1] != len(x.data) \
            or len(w.data) != x.data.shape[1] + len(inv) * enc.data.shape[1]:
        raise ShapeError(f"slot_affine: x {x.data.shape}, enc {enc.data.shape}, ids {inv.shape} "
                         f"and weight {w.data.shape} do not fit")
    nx, ne = x.data.shape[1], enc.data.shape[1]
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"slot_affine: bias shape {b.data.shape} does not match output width {w.data.shape[1]}")
    if inv.size and (inv.min() < 0 or inv.max() >= len(enc.data)):
        raise ShapeError("slot_affine: id out of range for enc")
    w_x, w_heads = w.data[:nx], w.data[nx:].reshape(len(inv), ne, w.data.shape[1])
    read = np.zeros((len(inv), len(enc.data)), dtype=bool)
    read[np.arange(len(inv))[:, None], inv] = True
    us = [np.flatnonzero(r) for r in read]  # the distinct rows each head reads
    js = np.take_along_axis(read.cumsum(axis=1) - 1, inv, axis=1)  # their places in us[h]
    out = x.data @ w_x + b.data
    for u, j, wh in zip(us, js, w_heads):
        out += (enc.data[u] @ wh)[j]

    def _bw(g):  # w's gradient goes in block by block, so no w-sized array is built
        _accum(x, g @ w_x.T)
        _accum(w, x.data.T @ g, slice(0, nx))
        for h, (u, j, wh) in enumerate(zip(us, js, w_heads)):
            gh = (np.arange(len(u))[:, None] == j).astype(g.dtype) @ g
            _accum(w, enc.data[u].T @ gh, slice(nx + h * ne, nx + (h + 1) * ne))
            _accum(enc, gh @ wh.T, u)
        _accum(b, g.sum(axis=0))

    return _node(out, (x, enc, w, b), "slot_affine", _bw)


def conv1d(x, w, b):
    """Valid 1-d convolution over token positions, max-pooled over them.

    x: (batch, time, channels), w: (width, channels, filters), b: (filters,).
    The convolution has `time - width + 1` positions; the output is each
    filter's maximum over them, (batch, filters).  On ties the first maximum
    takes the gradient.
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
    # one GEMM against the taps laid side by side, xw[:, s, i] = x[:, s] @ w[i];
    # output position p sums tap i at input position p + i
    x2 = x.data.reshape(bsz * t, ch)
    wr = w.data.transpose(1, 0, 2).reshape(ch, width * nf)
    xw = (x2 @ wr).reshape(bsz, t, width, nf)
    out = xw[:, :tp, 0] + b.data
    for i in range(1, width):
        out += xw[:, i:i + tp, i]

    def _bw(g):  # g: (batch, nf), at each filter's first maximum p, shifted to gs[:, p + i, i]
        rows, at, cols = np.arange(bsz)[:, None], np.argmax(out, axis=1), np.arange(nf)
        gs = np.zeros((bsz, t, width, nf), dtype=g.dtype)
        for i in range(width):
            gs[rows, at + i, i, cols] = g
        gs = gs.reshape(bsz * t, width * nf)
        _accum(w, (x2.T @ gs).reshape(ch, width, nf).transpose(1, 0, 2))
        _accum(b, g.sum(axis=0))
        _accum(x, (gs @ wr.T).reshape(bsz, t, ch))

    return _node(out.max(axis=1), (x, w, b), "conv1d", _bw)


def concat(tensors):
    """Concatenate along the last (feature) axis."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat: no inputs")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.shape[:-1] != lead:
            raise ShapeError("concat: leading shapes differ")
    sizes = [t.data.shape[-1] for t in tensors]

    def _bw(g):
        off = 0
        for t, sz in zip(tensors, sizes):
            _accum(t, g[..., off:off + sz])
            off += sz

    return _node(np.concatenate([t.data for t in tensors], axis=-1), tensors, "concat", _bw)


def embedding(table, ids):
    """The word lookup: `gather_rows` with id 0 as padding, like PyTorch's
    `nn.Embedding(padding_idx=0)`.  Id 0 reads exact zeros whatever row 0
    holds, and row 0 takes no gradient."""
    return _lookup(table, ids, "embedding", padding=True)


def gather_rows(x, ids):
    """Rows of a 2-d `x` for an integer id array of any shape; the output
    has shape `ids.shape + (x width,)`, and the backward sums the gradient
    per row."""
    return _lookup(x, ids, "gather_rows", padding=False)


def _lookup(table, ids, op, padding):
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"{op}: table must be 2-d, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(f"{op}: id out of range for table")
    out = table.data[ids]
    if padding:
        out[ids == 0] = 0.0

    def _bw(g):  # sum the rows of g per id: stable sort, then one reduceat
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sid = flat[order]
        # with padding, the sorted id-0 run starts no segment, so it adds nowhere
        starts = np.flatnonzero(np.diff(sid, prepend=0 if padding else -1))
        sums = np.add.reduceat(g.reshape(-1, table.data.shape[1])[order], starts, axis=0)
        _accum(table, sums, sid[starts])

    return _node(out, (table,), op, _bw)


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy_masked(logits, targets, mask):
    """Summed cross entropy over answer heads laid side by side, with masked slots.

    `logits` is one (batch, heads * answers) tensor, head h in columns
    h * answers onwards, as `Model.forward` returns it; column h of the
    (batch, heads) integer `targets` and boolean `mask` belongs to head h,
    as in `EncodedDataset`.  Masked slots add exactly zero to the value and
    to every gradient, and their targets are never read, so -1 is a valid
    placeholder.  The result is the plain sum over unmasked slots (no
    averaging), each head's batch sum added in head order: the float
    operations of one pass per head.
    """
    tg, mk = np.asarray(targets, dtype=np.int64), np.asarray(mask, dtype=bool)
    if logits.data.ndim != 2 or tg.ndim != 2 or mk.shape != tg.shape or tg.shape[1] < 1 \
            or len(tg) != len(logits.data) or logits.data.shape[1] % tg.shape[1]:
        raise ShapeError(f"softmax_cross_entropy_masked: logits {logits.data.shape} must be "
                         f"(batch, heads * answers) for (batch, heads) targets and mask, got "
                         f"{tg.shape} and {mk.shape}")
    bsz, n_heads = tg.shape
    k = logits.data.shape[1] // n_heads
    bad = np.argwhere((mk & ((tg < 0) | (tg >= k))).T)  # in head order
    if len(bad):
        h, row = bad[0]
        raise TrainingError(
            f"target {tg[row, h]} out of range [0, {k}) on unmasked head {h}, row {row}")
    z = logits.data.reshape(bsz, n_heads, k)
    zmax = z.max(axis=2, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=2)
    pick = (np.arange(bsz)[:, None], np.arange(n_heads), np.where(mk, tg, 0))
    # contiguous (heads, batch) rows, so each head's batch sum runs as a pass per head did
    ce = np.where(mk, np.log(sez) + zmax[..., 0] - z[pick], 0.0).T.copy()

    def _bw(g):
        d = ez / sez[..., None]
        d[pick] -= 1.0
        d *= mk[..., None]  # exact zeros on masked slots
        _accum(logits, (d * g).reshape(bsz, n_heads * k))

    return _node(ce.sum(axis=1).cumsum()[-1], (logits,), "softmax_ce_masked", _bw)
