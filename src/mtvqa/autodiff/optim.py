"""Nadam and SGD-with-momentum over lists of parameter tensors.

An optimizer packs its parameters: each one's `.data` and `.grad` become
views into one data vector and one gradient vector (the optimizer's `.data`
and `.grad`), so a step is a few whole-vector operations and one
`grad.fill(0.0)` resets every gradient.  A gradient set by hand is written
into its view (`p.grad[...] = g`); a step raises on a rebound one.  The
steps write every intermediate into preallocated scratch vectors, since a
whole-vector temporary costs more than the per-parameter ones it replaces,
and keep each formula's operation order ((1-b2)*g*g is ((1-b2)*g)*g), so
every element rounds as in a loop over the parameters.  Every vector has
the parameters' dtype.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class _Packed:
    """Parameters as views into two flat vectors of their dtype (the widest
    if they differ); a gradient set before packing is carried over, a
    missing one is zero."""

    def __init__(self, params):
        self.params = list(params)
        sizes = [p.data.size for p in self.params]
        dtype = np.result_type(*(p.data.dtype for p in self.params)) if self.params else np.float64
        self.data, self.grad = np.empty(sum(sizes), dtype=dtype), np.zeros(sum(sizes), dtype=dtype)
        self.t = 0
        for p, end, n in zip(self.params, np.cumsum(sizes), sizes):
            span, shape = slice(end - n, end), p.data.shape
            self.data[span] = p.data.reshape(-1)
            if p.grad is not None:
                self.grad[span] = p.grad.reshape(-1)
            p.data, p.grad = self.data[span].reshape(shape), self.grad[span].reshape(shape)

    def _checked_grad(self):
        """The gradient vector, once every view is in place and it is finite."""
        for p in self.params:
            if p.grad is None or p.grad.base is not self.grad or p.data.base is not self.data:
                raise TrainingError(f"parameter {p.name or '<unnamed>'} was rebound away from "
                                    "the optimizer's vectors; write into p.grad[...] instead")
        if not np.isfinite(self.grad).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise TrainingError(f"non-finite gradient for parameter {bad.name or '<unnamed>'}")
        return self.grad


class Nadam(_Packed):
    """Adam with Nesterov momentum folded into the first-moment estimate.

    Update with bias correction, per step t (1-based):

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        m_hat = m / (1 - b1^t)        v_hat = v / (1 - b2^t)
        m_bar = b1*m_hat + (1-b1)*g / (1 - b1^t)
        p <- p - lr * m_bar / (sqrt(v_hat) + eps)
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self._s1, self._s2 = (np.zeros_like(self.data) for _ in range(4))

    def step(self):
        g = self._checked_grad()
        self.t += 1
        b1, b2, s1, s2 = self.beta1, self.beta2, self._s1, self._s2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        self.m *= b1
        self.m += np.multiply(g, 1.0 - b1, out=s1)  # s1 keeps (1-b1)*g for m_bar
        self.v *= b2
        self.v += np.multiply(np.multiply(g, 1.0 - b2, out=s2), g, out=s2)
        np.multiply(np.divide(self.m, bc1, out=s2), b1, out=s2)
        s2 += np.divide(s1, bc1, out=s1)  # m_bar
        s2 *= self.lr
        np.sqrt(np.divide(self.v, bc2, out=s1), out=s1)
        s1 += self.eps
        self.data -= np.divide(s2, s1, out=s2)


class SgdMomentum(_Packed):
    """Classical momentum: velocity <- mu*velocity - lr*g; p <- p + velocity."""

    def __init__(self, params, lr=1e-4, momentum=0.9):
        super().__init__(params)
        self.lr, self.momentum = lr, momentum
        self.vel, self._s1 = np.zeros_like(self.data), np.zeros_like(self.data)

    def step(self):
        g = self._checked_grad()
        self.t += 1
        self.vel *= self.momentum
        self.vel -= np.multiply(g, self.lr, out=self._s1)
        self.data += self.vel
