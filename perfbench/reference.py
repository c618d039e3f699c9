"""A fixed reference job that tracks how fast the machine runs right now.

On a shared VM the same code runs up to 1.4 times slower in phases that
come and go within seconds to minutes, which moves every timing of a run
together.  The benchmark runs this job, which uses no code of the package,
between repetitions and scales each set-up and repetition by how long the
job took around it:

    scaled seconds = measured seconds * (REF_S / reference seconds) ** EXPONENT

The job mixes the kinds of work the workloads do: mid-size matrix
products and gathers (the conv encoder), many small array operations with
a Python object per step (graph building in the LSTM) and float
formatting (text checkpoints).  It slows more than the workloads do: in
fast and slow phases of a 2-core VM it took about 0.115 and 0.185 s, while
a repetition slowed by 1.3 to 1.4 times.  EXPONENT is below 1 for that
reason.  Across runs of one workload (ten, five for the LSTM one), the
largest of the three workloads' spreads of scaled wall_s medians
(IQR/median) was smallest at 0.7-0.8: conv_mtl_vs_stl 0.23 unscaled,
0.07 at 0.8; eval_sweep 0.04 unscaled, 0.08 at 0.8 (the job over-corrects
it a little); lstm_vqateam_compare 0.05 unscaled, 0.04 at 0.8.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# seconds of one job on the 2-core VM the benchmark was defined on, with
# one BLAS thread; only the scale of scaled times depends on it
REF_S = 0.15
EXPONENT = 0.8


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 300))
_W = _rng.standard_normal((300, 128))
_E = _rng.standard_normal((2000, 50))
_IDX = _rng.integers(0, 2000, (256, 20))
_A = _rng.standard_normal((32, 64))
_V = _rng.standard_normal((64, 64)) * 0.1
_F = _rng.standard_normal(4000).tolist()


def run():
    """Seconds one reference job takes now; raises if its result is wrong."""
    gc.collect()  # no garbage of the workload is collected inside the job
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        h = np.tanh(_X @ _W)
        acc += float((h.T @ _X).sum()) + float(_E[_IDX].max(axis=1).sum())
    node = _Node(_A, ())
    for _ in range(3000):
        node = _Node(np.tanh(node.value @ _V) * 0.5 + node.value * 0.5, (node,))
        node.parents = ()
    text = " ".join(f"{v:.17g}" for _ in range(10) for v in _F)
    seconds = time.perf_counter() - t0
    if not (np.isfinite(acc) and np.isfinite(node.value).all() and len(text) > 20000):
        raise RuntimeError("reference job gave a wrong result")
    return seconds


def scale(before, after):
    """Factor for work done between reference jobs of `before` and `after` seconds."""
    return (REF_S / ((before + after) / 2)) ** EXPONENT
