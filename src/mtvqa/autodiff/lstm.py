"""Stacked LSTM over a token sequence as one graph operator.

The forward pass keeps every step's gate values and the backward pass runs
backpropagation through time over them by hand, so encoding a question adds
one node to the graph instead of a dozen per token and layer.  As Appleyard,
Kočiský & Blunsom 2016 (arXiv:1604.01946) schedule it, each layer covers all
steps before the next, over time-major (steps, rows, ·) buffers, so its input
term `x @ w_in + bias` and each of its weight gradients is one GEMM.  The
logistic gates are `1/(1 + exp(-z))` over a step's whole gate row in place,
where exp overflowing to inf makes a gate exactly 0; the candidate takes tanh.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import _accum, _node


def lstm_sequence(x_seq, layers):
    """Run a stack of LSTM layers over a (batch, time, channels) sequence.

    `layers` is a list of (w_in, w_rec, bias) triples, one per layer, the
    first consuming the input channels and the rest the hidden size below.
    The fused weights hold the four gates side by side in the order input,
    forget, candidate, output: w_in (in_dim, 4*hidden), w_rec
    (hidden, 4*hidden), bias (4*hidden,).  Every layer starts from a zero
    state.  Returns the top layer's hidden state after the last step.
    """
    if x_seq.data.ndim != 3:
        raise ShapeError(f"lstm_sequence: expected 3-d input, got {x_seq.data.shape}")
    bsz, steps, in_dim = x_seq.data.shape
    for w_in, w_rec, bias in layers:
        hidden = w_rec.data.shape[0]
        if (w_in.data.shape != (in_dim, 4 * hidden) or w_rec.data.shape != (hidden, 4 * hidden)
                or bias.data.shape != (4 * hidden,)):
            raise ShapeError(
                f"lstm_sequence: gate weights {w_in.data.shape}/{w_rec.data.shape}/"
                f"{bias.data.shape} inconsistent with input width {in_dim} "
                f"and hidden size {hidden}")
        in_dim = hidden

    # per layer: weights, (steps*rows, in) input, gates (i, f, g, o), c, h and tanh(c)
    saved = []
    inp = x_seq.data.transpose(1, 0, 2).reshape(steps * bsz, x_seq.data.shape[2])
    for w_in, w_rec, bias in layers:
        n = w_rec.data.shape[0]
        gates = (inp @ w_in.data).reshape(steps, bsz, 4 * n)
        gates += bias.data
        cs, hs, tcs = np.zeros((3, steps + 1, bsz, n))  # entry t + 1: after step t
        g = np.empty((bsz, n))
        with np.errstate(over="ignore"):
            for t in range(steps):
                z = gates[t]
                if t:
                    z += hs[t] @ w_rec.data
                np.tanh(z[:, 2 * n:3 * n], out=g)
                np.exp(np.negative(z, out=z), out=z)
                np.divide(1.0, np.add(z, 1.0, out=z), out=z)
                z[:, 2 * n:3 * n] = g
                np.multiply(z[:, n:2 * n], cs[t], out=cs[t + 1])
                cs[t + 1] += z[:, :n] * g
                np.tanh(cs[t + 1], out=tcs[t + 1])
                np.multiply(z[:, 3 * n:], tcs[t + 1], out=hs[t + 1])
        saved.append((w_in.data, w_rec.data, inp, gates, cs, hs, tcs))
        inp = hs[1:].reshape(steps * bsz, n)

    weights = [w for layer in layers for w in layer]

    def _bw(dh_top):
        d_up = np.zeros((steps, *dh_top.shape))  # into each step's h from above
        d_up[-1:] = dh_top  # none if there are no steps
        for layer in reversed(layers):  # popped, so a layer's arrays go once it is done
            d_up, *layer_grads = _layer_backward(d_up, *saved.pop())
            for w, gw in zip(layer, layer_grads):
                _accum(w, gw)
        _accum(x_seq, d_up.transpose(1, 0, 2))

    return _node(hs[steps].copy(), (x_seq, *weights), "lstm_sequence", _bw)


def _layer_backward(d_up, w_in, w_rec, inp, gates, cs, hs, tcs):
    """One layer's input, w_in, w_rec and bias gradients, given `d_up` into its h."""
    steps, bsz, n = d_up.shape
    i, f, g, o = (gates[..., k * n:(k + 1) * n] for k in range(4))
    # dz / dc for the gates i, f, g and dz / dh for o, every step
    dz = np.subtract(1.0, gates)
    dz *= gates
    di, df, dg, do = (dz[..., k * n:(k + 1) * n] for k in range(4))
    di *= g
    df *= cs[:-1]
    np.subtract(1.0, np.multiply(g, g, out=dg), out=dg)
    dg *= i
    do *= tcs[1:]
    dc_dh = np.subtract(1.0, tcs[1:] * tcs[1:])
    dc_dh *= o
    dh_rec = dc_next = 0.0  # from the step after
    for t in reversed(range(steps)):
        dh = d_up[t]
        dh += dh_rec
        dc = dh * dc_dh[t] + dc_next
        dz[t] *= np.concatenate((dc, dc, dc, dh), axis=1)
        if t:
            dh_rec = dz[t] @ w_rec.T
            dc_next = dc * f[t]
    dz2 = dz.reshape(steps * bsz, 4 * n)
    return ((dz2 @ w_in.T).reshape(steps, bsz, w_in.shape[0]), inp.T @ dz2,
            hs[1:-1].reshape(-1, n).T @ dz[1:].reshape(-1, 4 * n), dz2.sum(axis=0))
