"""Stacked LSTM over a token sequence as one graph operator.

The forward pass keeps every step's gate values and the backward pass runs
backpropagation through time over them by hand (Appleyard, Kočiský &
Blunsom 2016, arXiv:1604.01946), so encoding a question adds one node to
the graph instead of a dozen per token and layer.  Each step evaluates the
same elementwise products as an unfused cell of affine maps, logistic and
tanh gates, products and sums, in the same order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import _accum, _node, _sigmoid


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

    # per layer: h and c before each step and after the last (entry 0 is
    # the zero start state), and each step's (i, f, g, o, tanh(c))
    hs, cs, gates = [], [], []
    for _, w_rec, _ in layers:
        zeros = np.zeros((bsz, w_rec.data.shape[0]))
        hs.append([zeros])
        cs.append([zeros])
        gates.append([])
    for t in range(steps):
        inp = x_seq.data[:, t, :]
        for li, (w_in, w_rec, bias) in enumerate(layers):
            n = w_rec.data.shape[0]
            z = (inp @ w_in.data + bias.data) + hs[li][-1] @ w_rec.data
            i = _sigmoid(z[:, :n])
            f = _sigmoid(z[:, n:2 * n])
            g = np.tanh(z[:, 2 * n:3 * n])
            o = _sigmoid(z[:, 3 * n:])
            c = f * cs[li][-1] + i * g
            tc = np.tanh(c)
            inp = o * tc
            hs[li].append(inp)
            cs[li].append(c)
            gates[li].append((i, f, g, o, tc))

    weights = [w for layer in layers for w in layer]

    def _bw(dh_top):
        gx = np.zeros_like(x_seq.data)
        gw = [np.zeros_like(w.data) for w in weights]
        # gradient reaching each layer's h and c from the step after
        dh_next = [0.0] * (len(layers) - 1) + [dh_top]
        dc_next = [0.0] * len(layers)
        for t in reversed(range(steps)):
            d_up = 0.0  # gradient reaching this layer's h from the layer above
            for li in reversed(range(len(layers))):
                w_in, w_rec, _ = layers[li]
                i, f, g, o, tc = gates[li][t]
                dh = dh_next[li] + d_up
                dc = (dh * o) * (1.0 - tc * tc) + dc_next[li]
                dz = np.concatenate((dc * g * i * (1.0 - i),
                                     dc * cs[li][t] * f * (1.0 - f),
                                     dc * i * (1.0 - g * g),
                                     dh * tc * o * (1.0 - o)), axis=1)
                inp = x_seq.data[:, t, :] if li == 0 else hs[li - 1][t + 1]
                gw[3 * li] += inp.T @ dz
                gw[3 * li + 1] += hs[li][t].T @ dz
                gw[3 * li + 2] += dz.sum(axis=0)
                d_up = dz @ w_in.data.T
                dh_next[li] = dz @ w_rec.data.T
                dc_next[li] = dc * f
            gx[:, t, :] = d_up
        _accum(x_seq, gx)
        for w, g in zip(weights, gw):
            _accum(w, g)

    return _node(hs[-1][-1], (x_seq, *weights), "lstm_sequence", _bw)
