"""Stacked LSTM over the nodes of a prefix trie as one graph operator.

A question's LSTM state after token t depends only on tokens 0..t, so rows
that share a prefix share its states.  The operator runs over the nodes of
the rows' prefix trie, read from the lexsorted rows' prefix marks: step t
holds one node per distinct (t+1)-token prefix, each continuing one node of
step t - 1.  This is the computation sharing of RadixAttention (Zheng et
al. 2023, arXiv:2312.07104).

The forward pass keeps every node's gate values and the backward pass runs
backpropagation through time over them by hand, so encoding the questions
adds one node to the graph instead of a dozen per token and layer.  As
Appleyard, Kočiský & Blunsom 2016 (arXiv:1604.01946) schedule it, each layer
covers all steps before the next, over step-major (nodes, ·) buffers, so its
input term `x @ w_in + bias` and each of its weight gradients is one GEMM.
A step's recurrent term is one GEMM over its parents' h, gathered to the
children; in the backward, the children's gradients are summed per parent
with `np.add.reduceat`.  A step where each parent has one child, as where
rows share no prefix, reads its parents' rows in place and sums nothing:
`reduceat` pays a fixed cost per segment.  The logistic gates are
`1/(1 + exp(-z))` over a step's whole gate row in place, where exp
overflowing to inf makes a gate exactly 0; the candidate takes tanh.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import _accum, _node


def lstm_sequence(x, new, layers):
    """Run a stack of LSTM layers over the nodes of a prefix trie.

    `x` is (nodes, channels): the inputs of step 0's nodes, then of step
    1's, and so on.  `new` is the (rows, steps) bool prefix marks of
    lexsorted rows: `new[r, t]` is true when row r's first t + 1 tokens
    differ from row r - 1's.  So column t marks the first row of each of
    step t's nodes, in order, and the node that row r starts at step t
    continues the node row r is in at step t - 1.  Rows that share no
    prefix are `np.ones((rows, steps), dtype=bool)`.

    `layers` is a list of (w_in, w_rec, bias) triples, one per layer, the
    first consuming the input channels and the rest the hidden size below.
    The fused weights hold the four gates side by side in the order input,
    forget, candidate, output: w_in (in_dim, 4*hidden), w_rec
    (hidden, 4*hidden), bias (4*hidden,).  Step 0 starts every layer from a
    zero state.  Returns the top layer's hidden state at the last step's
    nodes.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"lstm_sequence: expected 2-d node inputs, got {x.data.shape}")
    n_nodes, in_dim = x.data.shape
    for w_in, w_rec, bias in layers:
        hidden = w_rec.data.shape[0]
        if (w_in.data.shape != (in_dim, 4 * hidden) or w_rec.data.shape != (hidden, 4 * hidden)
                or bias.data.shape != (4 * hidden,)):
            raise ShapeError(
                f"lstm_sequence: gate weights {w_in.data.shape}/{w_rec.data.shape}/"
                f"{bias.data.shape} inconsistent with input width {in_dim} "
                f"and hidden size {hidden}")
        in_dim = hidden
    new = np.asarray(new)
    if (new.ndim != 2 or new.dtype != bool or not new.shape[1] or not new[:1].all()
            or (new[:, :-1] > new[:, 1:]).any() or new.sum() != n_nodes):
        raise ShapeError(f"lstm_sequence: prefix marks {new.dtype} {new.shape} must be 2-d "
                         f"bool over at least one step, all true in row 0, never true then "
                         f"false along a row, and true {n_nodes} times, once per node of x")
    sizes = new.sum(axis=0).tolist()
    off = np.cumsum([0] + sizes).tolist()
    node = np.cumsum(new, axis=0) - 1  # node[r, t]: row r's node among step t's
    parents = [node[new[:, t], t - 1] for t in range(1, len(sizes))]
    # per step: its nodes, its parents' nodes, and where each parent's run of children starts
    steps = [(slice(off[t], off[t + 1]), slice(off[t - 1], off[t]) if t else None,
              np.flatnonzero(new[new[:, t], t - 1]) if t else None)
             for t in range(len(sizes))]
    # every node but step 0's, none in a one-step call: its parent's index among all nodes
    gpar = np.concatenate([np.arange(0)] + [off[t] + p for t, p in enumerate(parents)])

    # per layer: weights, (nodes, in) input, gates (i, f, g, o), c, h and tanh(c)
    saved = []
    inp = x.data
    for w_in, w_rec, bias in layers:
        n = w_rec.data.shape[0]
        gates = inp @ w_in.data
        gates += bias.data
        c, h, tc = np.empty((3, n_nodes, n), dtype=gates.dtype)
        g_buf = np.empty((max(sizes), n), dtype=gates.dtype)
        with np.errstate(over="ignore"):
            for t, (sl, psl, starts) in enumerate(steps):
                z = gates[sl]
                g = g_buf[:len(z)]
                if t:
                    take = slice(None) if len(starts) == len(z) else parents[t - 1]
                    z += (h[psl] @ w_rec.data)[take]
                np.tanh(z[:, 2 * n:3 * n], out=g)
                np.exp(np.negative(z, out=z), out=z)
                np.divide(1.0, np.add(z, 1.0, out=z), out=z)
                z[:, 2 * n:3 * n] = g
                if t:
                    np.multiply(z[:, n:2 * n], c[psl][take], out=c[sl])
                    c[sl] += z[:, :n] * g
                else:
                    np.multiply(z[:, :n], g, out=c[sl])
                np.tanh(c[sl], out=tc[sl])
                np.multiply(z[:, 3 * n:], tc[sl], out=h[sl])
        saved.append((w_in.data, w_rec.data, inp, gates, c, h, tc))
        inp = h

    weights = [w for layer in layers for w in layer]
    last = steps[-1][0]

    def _bw(dh_top):
        # into each node's h from above
        d_up = np.zeros((n_nodes, dh_top.shape[1]), dtype=dh_top.dtype)
        d_up[last] = dh_top
        for layer in reversed(layers):  # popped, so a layer's arrays go once it is done
            d_up, *layer_grads = _layer_backward(d_up, steps, gpar, *saved.pop())
            for w, gw in zip(layer, layer_grads):
                _accum(w, gw)
        _accum(x, d_up)

    return _node(h[last].copy(), (x, *weights), "lstm_sequence", _bw)


def _layer_backward(d_up, steps, gpar, w_in, w_rec, inp, gates, c, h, tc):
    """One layer's input, w_in, w_rec and bias gradients, given `d_up` into its h."""
    n = w_rec.shape[0]
    n0, n_inner = steps[0][0].stop, steps[-1][0].start  # nodes of step 0; nodes with children
    i, f, g, o = (gates[:, k * n:(k + 1) * n] for k in range(4))
    # dz / dc for the gates i, f, g and dz / dh for o, every node
    dz = np.subtract(1.0, gates)
    dz *= gates
    di, df, dg, do = (dz[:, k * n:(k + 1) * n] for k in range(4))
    di *= g
    df[:n0] = 0.0  # step 0's previous cell is zero
    df[n0:] *= c[gpar]
    dz_sum = np.empty((n_inner, 4 * n), dtype=dz.dtype)  # per node, its children's dz
    np.subtract(1.0, np.multiply(g, g, out=dg), out=dg)
    dg *= i
    do *= tc
    dc_dh = np.subtract(1.0, tc * tc)
    dc_dh *= o
    dh_rec = dc_next = 0.0  # into each node from its children
    for t in reversed(range(len(steps))):
        sl, psl, starts = steps[t]
        dh = d_up[sl]
        dh += dh_rec
        dc = dh * dc_dh[sl]
        dc += dc_next
        dz[sl] *= np.concatenate((dc, dc, dc, dh), axis=1)
        if not t:
            break
        dc *= f[sl]
        if len(starts) == len(dc):  # one child per parent: the sums are the children's own
            dz_sum[psl] = dz[sl]
            dc_next = dc
        else:
            np.add.reduceat(dz[sl], starts, axis=0, out=dz_sum[psl])
            dc_next = np.add.reduceat(dc, starts, axis=0)
        dh_rec = dz_sum[psl] @ w_rec.T
    return dz @ w_in.T, inp.T @ dz, h[:n_inner].T @ dz_sum, dz.sum(axis=0)
