import numpy as np
import pytest

from mtvqa import autodiff as ad
from mtvqa.autodiff.tensor import _accum, _node
from mtvqa.errors import ConfigError

from helpers import weighted_sum


def test_constant_graph_passes():
    p = ad.parameter(np.ones(3), "p")

    def fn():
        return ad.constant(np.float64(4.2))

    report = ad.check_gradients(fn, [p])
    assert report.passed
    assert report.max_rel_err == 0.0


def test_corrupted_backward_rule_fails():
    # negative control: a tanh clone whose backward is off by 10 percent
    def bad_tanh(a):
        y = np.tanh(a.data)
        return _node(y, (a,), "bad_tanh", lambda g: _accum(a, 1.1 * g * (1.0 - y * y)))

    rng = np.random.default_rng(5)
    p = ad.parameter(rng.normal(size=(2, 3)), "p")
    w = rng.normal(size=(2, 3))
    report = ad.check_gradients(lambda: weighted_sum(bad_tanh(p), w), [p])
    assert not report.passed
    assert report.worst_param == "p"


def test_coordinate_sampling_is_reproducible():
    rng = np.random.default_rng(6)
    p = ad.parameter(rng.normal(size=(6, 6)), "p")
    w = rng.normal(size=(6, 6))

    def fn():
        return weighted_sum(ad.tanh(p), w)

    r1 = ad.check_gradients(fn, [p], max_coords_per_param=5, seed=3)
    r2 = ad.check_gradients(fn, [p], max_coords_per_param=5, seed=3)
    assert r1.max_rel_err == r2.max_rel_err
    assert r1.passed


def test_float32_parameter_is_rejected_by_name():
    # at float32 a central difference measures rounding, not the gradient
    p = ad.parameter(np.ones(3), "p")
    q = ad.parameter(np.ones(3, dtype=np.float32), "q")
    with pytest.raises(ConfigError, match="parameter q is float32"):
        ad.check_gradients(lambda: weighted_sum(ad.tanh(p), np.ones(3)), [p, q])
