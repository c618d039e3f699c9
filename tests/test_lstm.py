import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mtvqa import autodiff as ad
from mtvqa.errors import ShapeError

from helpers import lstm_reference, lstm_stepwise_reference, weighted_sum


def _params(arrs):
    return [ad.parameter(a, f"p{i}") for i, a in enumerate(arrs)]


def _stacked_case(rng, hidden=4):
    layers = [(ad.constant(rng.normal(size=(3, 4 * hidden))),
               ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=4 * hidden))),
              (ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=4 * hidden)))]
    return ad.constant(rng.normal(size=(2, 5, 3))), layers


def test_all_zero_cell_stays_zero():
    # zero weights and input: every gate sits at 0.5, the candidate at 0
    x = ad.constant(np.zeros((2, 3, 3)))
    layers = [(ad.constant(np.zeros((3, 16))), ad.constant(np.zeros((4, 16))),
               ad.constant(np.zeros(16)))]
    h = ad.lstm_sequence(x, layers)
    npt.assert_array_equal(h.data, np.zeros((2, 4)))


def test_scalar_cell_matches_hand_computation():
    # two steps of a 1-wide cell from a zero state, gate order: input,
    # forget, cand, out
    wx = np.array([[0.5, 0.25, -0.5, 1.0]])
    wh = np.array([[1.0, 0.5, -0.25, 0.75]])
    b = np.array([0.1, 0.2, 0.3, 0.4])
    xs = (0.3, -0.7)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_val = c_val = 0.0
    for x_val in xs:
        zi, zf, zg, zo = (x_val * wx[0, k] + h_val * wh[0, k] + b[k] for k in range(4))
        c_val = sig(zf) * c_val + sig(zi) * math.tanh(zg)
        h_val = sig(zo) * math.tanh(c_val)

    h = ad.lstm_sequence(ad.constant(np.array([[[xs[0]], [xs[1]]]])),
                         [(ad.constant(wx), ad.constant(wh), ad.constant(b))])
    npt.assert_allclose(float(h.data[0, 0]), h_val, rtol=1e-12)


def test_sequence_is_one_graph_node():
    rng = np.random.default_rng(13)
    x, layers = _stacked_case(rng)
    out = ad.lstm_sequence(x, layers)
    assert out.op == "lstm_sequence"
    expected = [x] + [t for layer in layers for t in layer]
    assert len(out._parents) == len(expected)
    assert all(p is q for p, q in zip(out._parents, expected))


def test_gate_weights_must_match_hidden_size():
    x = ad.constant(np.zeros((2, 3, 3)))
    layers = [(ad.constant(np.zeros((3, 12))), ad.constant(np.zeros((4, 16))),
               ad.constant(np.zeros(16)))]
    with pytest.raises(ShapeError, match="lstm_sequence"):
        ad.lstm_sequence(x, layers)


def test_two_step_unroll_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    hidden = 3
    w_in, w_rec, bias = _params([rng.normal(size=(2, 4 * hidden)),
                                 rng.normal(size=(hidden, 4 * hidden)),
                                 rng.normal(size=4 * hidden)])
    x_seq = ad.parameter(rng.normal(size=(2, 2, 2)), "x_seq")
    w = rng.normal(size=(2, hidden))

    def fn():
        h = ad.lstm_sequence(x_seq, [(w_in, w_rec, bias)])
        return weighted_sum(h, w)

    report = ad.check_gradients(fn, [w_in, w_rec, bias, x_seq])
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"


def test_stacked_layers_shapes_and_determinism():
    x, layers = _stacked_case(np.random.default_rng(12))
    out1 = ad.lstm_sequence(x, layers)
    out2 = ad.lstm_sequence(x, layers)
    assert out1.data.shape == (2, 4)
    npt.assert_array_equal(out1.data, out2.data)


def test_stacked_layers_match_numpy_reference():
    x, layers = _stacked_case(np.random.default_rng(12))
    expected = lstm_reference(x.data, [tuple(t.data for t in layer) for layer in layers])
    npt.assert_array_equal(ad.lstm_sequence(x, layers).data, expected)


@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("steps", [1, 6])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("hidden", [1, 8])
def test_matches_stepwise_where_form_kernel(rows, steps, depth, hidden):
    # the layer-major kernel against the step-major one it replaced: the
    # logistic form and the GEMMs' summation order differ, nothing else
    rng = np.random.default_rng([rows, steps, depth, hidden])
    x = ad.parameter(rng.normal(size=(rows, steps, 3)), "x")
    layers, in_dim = [], 3
    for li in range(depth):
        layers.append(tuple(_params([rng.normal(size=(in_dim, 4 * hidden)),
                                     rng.normal(size=(hidden, 4 * hidden)),
                                     rng.normal(size=4 * hidden)])))
        in_dim = hidden
    params = [x] + [t for layer in layers for t in layer]
    w = rng.normal(size=(rows, hidden))
    results = []
    for op in (ad.lstm_sequence, lstm_stepwise_reference):
        ad.zero_grads(params)
        out = op(x, layers)
        weighted_sum(out, w).backward()
        results.append([out.data] + [p.grad for p in params])
    for got, want in zip(*results):
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_saturated_gates_are_exact_without_overflow_warnings():
    # pre-activations of +-800 put the logistic gates at exactly 1 (row 0)
    # and 0 (row 1): the cell then adds the candidate onto itself, or stays 0
    x = ad.parameter(np.array([[[1.0], [1.0]], [[-1.0], [-1.0]]]), "x")
    layers = [tuple(_params([np.array([[800.0, 800.0, 0.5, 800.0]]), np.zeros((1, 4)),
                             np.zeros(4)]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.lstm_sequence(x, layers)
        g = np.tanh(0.5)
        npt.assert_array_equal(out.data, [[np.tanh(g + g)], [0.0]])
        weighted_sum(out, np.ones((2, 1))).backward()
    for p in [x] + list(layers[0]):
        assert np.isfinite(p.grad).all()


@pytest.mark.parametrize("rows, steps", [(0, 3), (2, 0)])
def test_no_rows_or_no_steps(rows, steps):
    # no steps leave every layer at its zero start state
    x = ad.parameter(np.zeros((rows, steps, 3)), "x")
    layers = [tuple(_params([np.ones((3, 8)), np.ones((2, 8)), np.ones(8)]))]
    out = ad.lstm_sequence(x, layers)
    npt.assert_array_equal(out.data, np.zeros((rows, 2)))
    weighted_sum(out, np.ones((rows, 2))).backward()
    assert x.grad.shape == x.data.shape
    for p in layers[0]:
        npt.assert_array_equal(p.grad, np.zeros_like(p.data))
