"""Finite-difference verification of the backward pass."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .tensor import zero_grads


@dataclass
class GradCheckReport:
    max_rel_err: float
    tolerance: float
    worst_param: str | None = None
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.max_rel_err < self.tolerance


def check_gradients(fn, params, tolerance=1e-4, step=1e-5, max_coords_per_param=None, seed=0):
    """Compare the backward pass of `fn()` against central finite differences.

    `fn` must rebuild and return a scalar output tensor from the current
    values of `params` each time it is called.  Every coordinate of every
    parameter is perturbed by ±step unless `max_coords_per_param` caps the
    number of (seeded, reproducible) sampled coordinates.  The error measure
    per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).  Every parameter
    must be float64: a float32 loss carries rounding of about 6e-8 of its
    size, which a ±1e-5 central difference turns into errors near 6e-3 of
    it, far above any useful tolerance.
    """
    for pi, p in enumerate(params):
        if p.data.dtype != np.float64:
            raise ConfigError(f"check_gradients: parameter {p.name or f'param{pi}'} is "
                              f"{p.data.dtype}; build it as float64")
    zero_grads(params)
    out = fn()
    out.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    worst = None
    per_param = {}
    for pi, (p, ga) in enumerate(zip(params, analytic)):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        coords = range(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = np.sort(rng.choice(flat.size, size=max_coords_per_param, replace=False))
        prm_max = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn().data)
            flat[i] = orig - step
            f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = gflat[i]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > prm_max:
                prm_max = rel
            if rel > max_rel:
                max_rel = rel
                worst = p.name or f"param{pi}"
        per_param[p.name or f"param{pi}"] = prm_max
    return GradCheckReport(max_rel_err=max_rel, tolerance=tolerance,
                           worst_param=worst, per_param=per_param)
