import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from mtvqa import autodiff as ad
from mtvqa.errors import ShapeError

from helpers import lstm_reference, lstm_stepwise_reference, weighted_sum


def _params(arrs):
    return [ad.parameter(a, f"p{i}") for i, a in enumerate(arrs)]


def _per_row(seq):
    """Node inputs and prefix marks of a (rows, steps, channels) sequence
    whose rows share no prefix: every mark is true."""
    rows, steps, channels = seq.shape
    return (seq.transpose(1, 0, 2).reshape(steps * rows, channels),
            np.ones((rows, steps), dtype=bool))


def _trie(ids):
    """The prefix trie of the rows of (rows, steps) `ids`, built from sorted
    tuples: (step-major node tokens, prefix marks of the sorted distinct
    rows, each row's last node).  A mark is true where a distinct row's
    prefix differs from the one of the row before."""
    steps = ids.shape[1]
    distinct = sorted({tuple(r) for r in ids.tolist()})
    new = np.array([[k == 0 or r[:t + 1] != distinct[k - 1][:t + 1] for t in range(steps)]
                    for k, r in enumerate(distinct)], dtype=bool).reshape(-1, steps)
    tokens = np.array([r[t] for t in range(steps) for k, r in enumerate(distinct) if new[k, t]],
                      dtype=np.int64)
    index = {r: k for k, r in enumerate(distinct)}
    last = np.array([index[tuple(r)] for r in ids.tolist()], dtype=np.intp)
    return tokens, new, last


def _layers(rng, depth, in_dim, hidden):
    layers = []
    for _ in range(depth):
        layers.append(tuple(_params([rng.normal(size=(in_dim, 4 * hidden)),
                                     rng.normal(size=(hidden, 4 * hidden)),
                                     rng.normal(size=4 * hidden)])))
        in_dim = hidden
    return layers


def _stacked_case(rng, hidden=4):
    # a trie of 2, 3, 4 and 4 nodes: steps 1 and 2 share prefixes, step 3
    # maps one-to-one onto step 2
    layers = [(ad.constant(rng.normal(size=(3, 4 * hidden))),
               ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=4 * hidden))),
              (ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=(hidden, 4 * hidden))),
               ad.constant(rng.normal(size=4 * hidden)))]
    new = np.array([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=bool)
    return ad.constant(rng.normal(size=(13, 3))), new, layers


def test_all_zero_cell_stays_zero():
    # zero weights and input: every gate sits at 0.5, the candidate at 0
    x, new = _per_row(np.zeros((2, 3, 3)))
    layers = [(ad.constant(np.zeros((3, 16))), ad.constant(np.zeros((4, 16))),
               ad.constant(np.zeros(16)))]
    h = ad.lstm_sequence(ad.constant(x), new, layers)
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

    h = ad.lstm_sequence(ad.constant(np.array([[xs[0]], [xs[1]]])), np.ones((1, 2), dtype=bool),
                         [(ad.constant(wx), ad.constant(wh), ad.constant(b))])
    npt.assert_allclose(float(h.data[0, 0]), h_val, rtol=1e-12)


def test_sequence_is_one_graph_node():
    rng = np.random.default_rng(13)
    x, new, layers = _stacked_case(rng)
    out = ad.lstm_sequence(x, new, layers)
    assert out.op == "lstm_sequence"
    expected = [x] + [t for layer in layers for t in layer]
    assert len(out._parents) == len(expected)
    assert all(p is q for p, q in zip(out._parents, expected))


def test_gate_weights_must_match_hidden_size():
    x, new = _per_row(np.zeros((2, 3, 3)))
    layers = [(ad.constant(np.zeros((3, 12))), ad.constant(np.zeros((4, 16))),
               ad.constant(np.zeros(16)))]
    with pytest.raises(ShapeError, match="lstm_sequence"):
        ad.lstm_sequence(ad.constant(x), new, layers)


@pytest.mark.parametrize("n_nodes, new", [
    (4, np.ones((2, 2), dtype=int)),
    (4, np.ones(4, dtype=bool)),
    (0, np.ones((2, 0), dtype=bool)),
    (3, np.array([[0, 1], [1, 1]], dtype=bool)),
    (3, np.array([[1, 1], [1, 0]], dtype=bool)),
    (5, np.ones((2, 2), dtype=bool)),
], ids=["not_bool", "not_2d", "no_steps", "row_0_not_all_true", "true_then_false",
        "count_not_nodes"])
def test_prefix_marks_must_describe_a_prefix_trie(n_nodes, new):
    # each case breaks one rule and keeps the others
    layers = [tuple(_params([np.ones((3, 8)), np.ones((2, 8)), np.ones(8)]))]
    with pytest.raises(ShapeError, match="lstm_sequence"):
        ad.lstm_sequence(ad.constant(np.zeros((n_nodes, 3))), new, layers)


def test_two_step_unroll_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    hidden = 3
    w_in, w_rec, bias = _params([rng.normal(size=(2, 4 * hidden)),
                                 rng.normal(size=(hidden, 4 * hidden)),
                                 rng.normal(size=4 * hidden)])
    x_nodes = ad.parameter(rng.normal(size=(4, 2)), "x_nodes")
    w = rng.normal(size=(2, hidden))

    def fn():
        h = ad.lstm_sequence(x_nodes, np.ones((2, 2), dtype=bool), [(w_in, w_rec, bias)])
        return weighted_sum(h, w)

    report = ad.check_gradients(fn, [w_in, w_rec, bias, x_nodes])
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"


def test_stacked_layers_shapes_and_determinism():
    x, new, layers = _stacked_case(np.random.default_rng(12))
    out1 = ad.lstm_sequence(x, new, layers)
    out2 = ad.lstm_sequence(x, new, layers)
    assert out1.data.shape == (4, 4)
    npt.assert_array_equal(out1.data, out2.data)


def test_stacked_layers_match_numpy_reference():
    x, new, layers = _stacked_case(np.random.default_rng(12))
    expected = lstm_reference(x.data, new, [tuple(t.data for t in layer) for layer in layers])
    npt.assert_array_equal(ad.lstm_sequence(x, new, layers).data, expected)


@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("steps", [1, 6])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("hidden", [1, 8])
def test_matches_stepwise_where_form_kernel(rows, steps, depth, hidden):
    # rows that share no prefix, against the step-major kernel the engine
    # once ran: the logistic form and the GEMMs' summation order differ,
    # nothing else
    rng = np.random.default_rng([rows, steps, depth, hidden])
    x = ad.parameter(rng.normal(size=(rows, steps, 3)), "x")
    nodes, new = _per_row(x.data)
    x_nodes = ad.parameter(nodes, "x_nodes")
    layers = _layers(rng, depth, 3, hidden)
    weights = [t for layer in layers for t in layer]
    w = rng.normal(size=(rows, hidden))
    results = []
    for leaf, run in ((x_nodes, lambda: ad.lstm_sequence(x_nodes, new, layers)),
                      (x, lambda: lstm_stepwise_reference(x, layers))):
        ad.zero_grads(weights)
        out = run()
        weighted_sum(out, w).backward()
        results.append([out.data, _per_row(x.grad)[0] if leaf is x else leaf.grad]
                       + [p.grad for p in weights])
    for got, want in zip(*results):
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(0, 12), steps=st.integers(1, 5), depth=st.integers(1, 2),
       kind=st.sampled_from(["pool", "equal", "distinct_first"]), padded=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n_rows=0, steps=3, depth=2, kind="pool", padded=False, seed=0)
@example(n_rows=7, steps=1, depth=2, kind="pool", padded=False, seed=1)
@example(n_rows=6, steps=4, depth=2, kind="equal", padded=False, seed=2)
@example(n_rows=9, steps=4, depth=2, kind="distinct_first", padded=False, seed=3)
@example(n_rows=10, steps=5, depth=2, kind="pool", padded=True, seed=4)
def test_prefix_trie_matches_the_stepwise_kernel_on_every_row(n_rows, steps, depth, kind,
                                                              padded, seed):
    # token rows from pools of 1-3 ids, so prefixes repeat; each row's
    # output is its last node's state, and every gradient sums over the
    # rows that share a node
    rng = np.random.default_rng(seed)
    vocab, hidden = 16, 3
    ids = rng.integers(1, 1 + rng.integers(1, 4), size=(n_rows, steps))
    if kind == "equal":
        ids[:] = ids[:1]
    elif kind == "distinct_first":
        ids[:, 0] = rng.permutation(np.arange(1, vocab))[:n_rows]
    if padded:  # each row keeps 1 to `steps` real tokens
        ids[np.arange(steps) >= rng.integers(1, steps + 1, size=(n_rows, 1))] = 0
    tokens, new, last = _trie(ids)
    table = ad.parameter(rng.normal(size=(vocab, 2)), "table")
    layers = _layers(rng, depth, 2, hidden)
    params = [table] + [t for layer in layers for t in layer]
    w = rng.normal(size=(n_rows, hidden))
    results = []
    for run in (lambda: ad.gather_rows(ad.lstm_sequence(ad.embedding(table, tokens), new,
                                                        layers), last),
                lambda: lstm_stepwise_reference(ad.embedding(table, ids), layers)):
        ad.zero_grads(params)
        out = run()
        weighted_sum(out, w).backward()
        results.append([out.data] + [p.grad for p in params])
    (out, *grads), (ref_out, *ref_grads) = results
    npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    for got, want in zip(grads, ref_grads):
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_saturated_gates_are_exact_without_overflow_warnings():
    # pre-activations of +-800 put the logistic gates at exactly 1 (row 0)
    # and 0 (row 1): the cell then adds the candidate onto itself, or stays 0
    x = ad.parameter(np.array([[1.0], [-1.0], [1.0], [-1.0]]), "x")
    layers = [tuple(_params([np.array([[800.0, 800.0, 0.5, 800.0]]), np.zeros((1, 4)),
                             np.zeros(4)]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.lstm_sequence(x, np.ones((2, 2), dtype=bool), layers)
        g = np.tanh(0.5)
        npt.assert_array_equal(out.data, [[np.tanh(g + g)], [0.0]])
        weighted_sum(out, np.ones((2, 1))).backward()
    for p in [x] + list(layers[0]):
        assert np.isfinite(p.grad).all()


@pytest.mark.parametrize("steps", [1, 3])
def test_no_nodes(steps):
    x = ad.parameter(np.zeros((0, 3)), "x")
    layers = [tuple(_params([np.ones((3, 8)), np.ones((2, 8)), np.ones(8)]))]
    out = ad.lstm_sequence(x, np.ones((0, steps), dtype=bool), layers)
    npt.assert_array_equal(out.data, np.zeros((0, 2)))
    weighted_sum(out, np.ones((0, 2))).backward()
    assert x.grad.shape == x.data.shape
    for p in layers[0]:
        npt.assert_array_equal(p.grad, np.zeros_like(p.data))
