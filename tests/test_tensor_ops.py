import gc
import inspect
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mtvqa import autodiff as ad
from mtvqa.autodiff.tensor import _accum, _node
from mtvqa.errors import ShapeError, TrainingError
from mtvqa.models import VARIANTS

from helpers import (OP_CASES, conv1d_reference, max_over_time_reference,
                     slot_affine_reference, slot_product_reference, softmax_ce_reference,
                     tiny_model, weighted_sum)


def test_affine_identity_passthrough():
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = ad.affine(ad.constant(x), ad.constant(np.eye(4)), ad.constant(np.zeros(4)))
    npt.assert_array_equal(out.data, x)


def _pooled_reference(x, w, b):
    return max_over_time_reference(conv1d_reference(x, w, b))


def test_conv_width1_is_positionwise_affine():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 3))
    k = rng.normal(size=(1, 3, 4))
    b = rng.normal(size=4)
    out = ad.conv1d(ad.constant(x), ad.constant(k), ad.constant(b))
    expected = np.max([x[:, t, :] @ k[0] + b for t in range(5)], axis=0)
    npt.assert_allclose(out.data, expected, rtol=1e-12)


@pytest.mark.parametrize("width", range(1, 7))
def test_conv1d_matches_the_window_reference(width):
    # time 6, so width 6 leaves one position to pool over
    rng = np.random.default_rng(width)
    x, w, b = rng.normal(size=(3, 6, 4)), rng.normal(size=(width, 4, 5)), rng.normal(size=5)
    upstream = rng.normal(size=(3, 5))
    results = []
    for op in (ad.conv1d, _pooled_reference):
        params = [ad.parameter(a, n) for a, n in ((x, "x"), (w, "w"), (b, "b"))]
        out = op(*params)
        weighted_sum(out, upstream).backward()
        results.append([out.data] + [p.grad for p in params])
    assert results[0][0].shape == (3, 5)
    for got, want in zip(*results):
        npt.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_conv1d_of_a_constant_sequence_pools_its_one_value():
    # every position reads the same, so the first one takes the gradient
    x = ad.parameter(np.tile(np.array([2.5, -1.0, 0.0]), (2, 4, 1)), "x")
    out = ad.conv1d(x, ad.constant(np.ones((2, 3, 1))), ad.constant(np.array([0.5])))
    npt.assert_array_equal(out.data, np.full((2, 1), 3.5))
    weighted_sum(out, np.ones((2, 1))).backward()
    npt.assert_array_equal(x.grad[:, :2], np.ones((2, 2, 3)))
    npt.assert_array_equal(x.grad[:, 2:], np.zeros((2, 2, 3)))


def test_conv1d_matches_the_pooled_reference_on_ties():
    # small integers everywhere, so both sum exactly and only the tie-break
    # could tell them apart; the all-padding questions' convolution is the
    # bias at every position, and the others tie often
    rng = np.random.default_rng(5)
    x = np.concatenate([np.zeros((2, 5, 3)), rng.integers(-2, 3, size=(3, 5, 3))])
    w, b = rng.integers(-1, 2, size=(2, 3, 4)), rng.integers(-2, 3, size=4)
    upstream = rng.integers(-3, 4, size=(5, 4)).astype(np.float64)
    conv = conv1d_reference(*(ad.constant(a.astype(np.float64)) for a in (x, w, b)))
    assert np.all(conv.data[:2] == b)
    results = []
    for op in (ad.conv1d, _pooled_reference):
        params = [ad.parameter(a.astype(np.float64), n) for a, n in ((x, "x"), (w, "w"), (b, "b"))]
        out = op(*params)
        weighted_sum(out, upstream).backward()
        results.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


def test_concat_splits_gradient():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.normal(size=(2, 2)), "a")
    b = ad.parameter(rng.normal(size=(2, 3)), "b")
    w = rng.normal(size=(2, 5))
    out = weighted_sum(ad.concat([a, b]), w)
    out.backward()
    npt.assert_array_equal(a.grad, w[:, :2])
    npt.assert_array_equal(b.grad, w[:, 2:])


def test_embedding_rows_and_scatter():
    table = ad.parameter(np.arange(12, dtype=float).reshape(4, 3), "table")
    ids = np.array([[1, 1, 0]])
    out = ad.embedding(table, ids)
    npt.assert_array_equal(out.data[0, 0], table.data[1])
    loss = weighted_sum(out, np.ones((1, 3, 3)))
    loss.backward()
    npt.assert_array_equal(table.grad[1], np.full(3, 2.0))  # id 1 used twice
    npt.assert_array_equal(table.grad[2], np.zeros(3))


@pytest.mark.parametrize("ids", [
    np.array([[0, 1], [2, 0]]),
    np.zeros((2, 3), dtype=np.int64),  # all padding
    np.zeros((0, 4), dtype=np.int64),  # no rows
], ids=["mixed", "all_padding", "empty"])
def test_embedding_reads_padding_as_zeros_and_gives_row_0_no_gradient(ids):
    rng = np.random.default_rng(ids.size)
    table = ad.parameter(rng.normal(size=(3, 2)), "table")
    out = ad.embedding(table, ids)
    assert out.data.shape == ids.shape + (2,)
    assert not out.data[ids == 0].view(np.uint64).any()  # +0.0 bits, whatever row 0 holds
    npt.assert_array_equal(out.data[ids != 0], table.data[ids[ids != 0]])
    weighted_sum(out, rng.normal(size=ids.shape + (2,))).backward()
    assert not table.grad[0].view(np.uint64).any()


@pytest.mark.parametrize("ids", [
    np.array([[3, 1, 3, 3], [1, 4, 4, 3]]),  # repeated ids
    np.full((3, 4), 2),                       # one id everywhere
    np.array([[0, 0, 5, 1], [2, 0, 0, 0]]),   # padding id 0 among real ids
    np.zeros((0, 4), dtype=np.int64),         # no rows
    np.array([4, 1, 4, 0]),                   # 1-d ids
], ids=["repeated", "one_id", "padding", "empty", "one_dim"])
def test_embedding_gradient_matches_add_at(ids):
    rng = np.random.default_rng(ids.size)
    table = ad.parameter(rng.normal(size=(6, 3)), "table")
    upstream = rng.normal(size=ids.shape + (3,))
    weighted_sum(ad.embedding(table, ids), upstream).backward()
    want = np.zeros((6, 3))
    np.add.at(want, ids.reshape(-1), upstream.reshape(-1, 3))
    want[0] = 0.0
    npt.assert_allclose(table.grad, want, rtol=1e-13, atol=0)
    npt.assert_array_equal(table.grad[0], np.zeros(3))


def test_embedding_twice_into_a_preset_gradient_matches_add_at():
    # one table looked up twice in one graph adds both lookups' rows into a
    # gradient that already holds values (as the packed store's does); the
    # values are multiples of 1/4, so every order of the sums is exact
    rng = np.random.default_rng(11)
    table = ad.parameter(rng.normal(size=(6, 3)), "table")
    preset = rng.integers(-8, 9, size=(6, 3)) / 4.0
    preset[0] = 0.0
    table.grad = preset.copy()
    ids_a = np.array([[3, 0, 3], [1, 4, 3]])
    ids_b = np.array([[0, 4, 5], [4, 4, 2]])
    upstream = rng.integers(-8, 9, size=(2, 3, 6)) / 4.0
    both = ad.concat([ad.embedding(table, ids_a), ad.embedding(table, ids_b)])
    weighted_sum(both, upstream).backward()
    want = preset.copy()
    np.add.at(want, ids_a.reshape(-1), upstream[..., :3].reshape(-1, 3))
    np.add.at(want, ids_b.reshape(-1), upstream[..., 3:].reshape(-1, 3))
    want[0] = 0.0
    assert not table.grad[0].view(np.uint64).any()
    assert table.grad.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(heads=st.integers(1, 5), batch=st.integers(0, 70),
       reads=st.sampled_from(["all_distinct", "heavy_repeats", "mixed"]),
       one_row_head=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_slot_affine_matches_the_gather_concat_affine_graph(heads, batch, reads,
                                                             one_row_head, seed):
    rng = np.random.default_rng(seed)
    nx, ne, width = 3, 4, 5
    if reads == "all_distinct":
        n_read = heads * batch
        inv = rng.permutation(n_read).reshape(heads, batch)
    else:
        n_read = 3 if reads == "heavy_repeats" else max(heads * batch, 1)
        inv = rng.integers(0, n_read, size=(heads, batch))
    if one_row_head:
        inv[rng.integers(heads)] = inv[0, :1]  # one head reads one distinct row
    values = [rng.normal(size=shape) for shape in
              ((batch, nx), (n_read + 1, ne), (nx + heads * ne, width), (width,))]
    upstream = rng.normal(size=(batch, width))
    results = []
    for op in (ad.slot_affine, slot_affine_reference):
        params = [ad.parameter(a, n) for a, n in zip(values, ("x", "enc", "w", "b"))]
        out = op(params[0], params[1], inv, params[2], params[3])
        weighted_sum(out, upstream).backward()
        results.append([out.data] + [p.grad for p in params])
    for name, got, want in zip(("value", "x", "enc", "w", "b"), *results):
        assert got.shape == want.shape, name
        if want.size:
            gap = np.abs(got - want).max()
            assert gap <= 1e-12 * np.abs(want).max(), f"{name}: gap {gap:.2e}"
    assert not results[0][2][-1].view(np.uint64).any()  # the row no head reads


def _backward_from(out, upstream):
    """Backpropagate `upstream`, an array of `out`'s shape and dtype, from `out`."""
    _node(np.zeros((), out.data.dtype), (out,), "seed", lambda g: _accum(out, upstream)).backward()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(heads=st.integers(1, 5), batch=st.integers(0, 70),
       reads=st.sampled_from(["all_distinct", "heavy_repeats", "mixed"]),
       one_row_head=st.booleans(), unread=st.integers(0, 3),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**32 - 1))
def test_slot_product_matches_the_gather_mul_concat_graph_bit_for_bit(heads, batch, reads,
                                                                      one_row_head, unread,
                                                                      dtype, seed):
    rng = np.random.default_rng(seed)
    width = 4
    if reads == "all_distinct":
        n_read = heads * batch
        inv = rng.permutation(n_read).reshape(heads, batch)
    else:
        n_read = 3 if reads == "heavy_repeats" else max(heads * batch, 1)
        inv = rng.integers(0, n_read, size=(heads, batch))
    if one_row_head:
        inv[rng.integers(heads)] = inv[0, :1]  # one head reads one distinct row
    # `unread` more rows, scattered among the rest, that no head reads
    place = rng.permutation(n_read + unread)
    inv, unread_rows = place[inv], place[n_read:]
    enc_v, v_v = rng.normal(size=(n_read + unread, width)), rng.normal(size=(batch, width))
    upstream = rng.normal(size=(batch, heads * width))
    upstream[rng.random(upstream.shape) < 0.1] = -0.0  # signed zeros reach both gradients
    results = []
    for op in (ad.slot_product, slot_product_reference):
        enc, v = ad.parameter(enc_v.astype(dtype), "enc"), ad.parameter(v_v.astype(dtype), "v")
        out = op(enc, inv, v)
        _backward_from(out, upstream.astype(dtype))
        results.append([out.data, enc.grad, v.grad])
    for name, got, want in zip(("value", "enc", "v"), *results):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert not results[0][1][unread_rows].view(np.uint8).any()  # +0.0 bits


@pytest.mark.parametrize("change", ["id_too_large", "id_negative", "width", "ids_batch",
                                    "ids_1d"])
def test_slot_product_shape_errors(change):
    args = dict(enc=ad.constant(np.zeros((4, 3))), inv=np.array([[0, 1, 1], [3, 3, 2]]),
                v=ad.constant(np.zeros((3, 3))))
    assert ad.slot_product(**args).data.shape == (3, 6)
    args.update({"id_too_large": dict(inv=np.array([[0, 1, 4], [3, 3, 2]])),
                 "id_negative": dict(inv=np.array([[0, 1, -1], [3, 3, 2]])),
                 "width": dict(v=ad.constant(np.zeros((3, 2)))),
                 "ids_batch": dict(inv=np.array([[0, 1], [3, 3]])),
                 "ids_1d": dict(inv=np.array([0, 1, 1]))}[change])
    with pytest.raises(ShapeError, match="slot_product"):
        ad.slot_product(**args)


@pytest.mark.parametrize("change", ["w_rows", "id_too_large", "id_negative", "bias", "ids_batch"])
def test_slot_affine_shape_errors(change):
    args = dict(x=ad.constant(np.zeros((3, 2))), enc=ad.constant(np.zeros((4, 3))),
                inv=np.array([[0, 1, 1], [3, 3, 2]]), w=ad.constant(np.zeros((8, 5))),
                b=ad.constant(np.zeros(5)))
    assert ad.slot_affine(**args).data.shape == (3, 5)
    args.update({"w_rows": dict(w=ad.constant(np.zeros((7, 5)))),
                 "id_too_large": dict(inv=np.array([[0, 1, 4], [3, 3, 2]])),
                 "id_negative": dict(inv=np.array([[0, 1, -1], [3, 3, 2]])),
                 "bias": dict(b=ad.constant(np.zeros(4))),
                 "ids_batch": dict(inv=np.array([[0, 1], [3, 3]]))}[change])
    with pytest.raises(ShapeError, match="slot_affine"):
        ad.slot_affine(**args)


def test_gradient_accumulates_over_reuse():
    x = ad.parameter(np.array([2.0]), "x")
    y = ad.concat([x, x])  # x reaches y twice, weighted 1 and 3: dy/dx = 1 + 3 = 4
    weighted_sum(y, np.array([1.0, 3.0])).backward()
    npt.assert_array_equal(x.grad, [4.0])


def test_second_backward_raises():
    x = ad.parameter(np.array([2.0]), "x")
    loss = weighted_sum(ad.concat([x, x]), np.array([1.0, 3.0]))
    loss.backward()
    with pytest.raises(TrainingError, match="already backpropagated"):
        loss.backward()
    npt.assert_array_equal(x.grad, [4.0])


# leaf constructors and the public names that build no graph node
_NOT_OPERATORS = {"parameter", "constant", "zero_grads", "check_gradients",
                  "load_checkpoint", "save_checkpoint"}


def test_every_operator_has_a_gradient_case():
    # criterion 1 and the test below check exactly the operators in OP_CASES
    ops = {n for n in ad.__all__ if inspect.isfunction(getattr(ad, n))}
    assert ops - _NOT_OPERATORS == set(OP_CASES)


def test_every_operator_is_used_by_a_model(monkeypatch):
    # the engine holds only the operators some model's training step calls
    called = set()

    def recorded(name, op):
        def wrapper(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        return wrapper

    for name in OP_CASES:
        monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
    rng = np.random.default_rng(9)
    for variant in VARIANTS:
        model = tiny_model(variant)
        cfg = model.config
        images = rng.normal(size=(3, cfg.feature_dim))
        ids = rng.integers(0, cfg.vocab_size, size=(3, model.n_heads, cfg.max_len))
        targets = rng.integers(0, cfg.n_answers, size=(3, model.n_heads))
        loss, _ = model.loss(images, ids, targets, np.ones((3, model.n_heads), dtype=bool))
        loss.backward()
    assert called == set(OP_CASES)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_operator_gradients(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(10):
        fn, params = OP_CASES[name](rng)
        report = ad.check_gradients(fn, params)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-4, f"{name}: max relative error {worst:.3e}"


def test_shape_errors_name_the_operator():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="slot_product"):
        ad.slot_product(a, np.zeros((1, 3), dtype=np.int64), b)
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(a, ad.constant(np.zeros((4, 2))), ad.constant(np.zeros(2)))
    with pytest.raises(ShapeError, match="conv1d"):
        ad.conv1d(ad.constant(np.zeros((1, 2, 3))), ad.constant(np.zeros((3, 3, 2))),
                  ad.constant(np.zeros(2)))


@pytest.mark.parametrize("backpropagated", [False, True], ids=["forward_only", "backpropagated"])
@pytest.mark.parametrize("variant", ["mtl_simple", "vqateam_mtl"])
def test_graph_is_freed_without_the_cyclic_collector(variant, backpropagated):
    model = tiny_model(variant)
    cfg, rng = model.config, np.random.default_rng(5)
    images = rng.normal(size=(3, cfg.feature_dim))
    ids = rng.integers(1, cfg.vocab_size, size=(3, model.n_heads, cfg.max_len))
    ids[0, 1] = 0  # one empty slot, so the padding row is placed too
    targets = rng.integers(0, cfg.n_answers, size=(3, model.n_heads))
    mask = np.ones((3, model.n_heads), dtype=bool)
    gc.collect()
    gc.disable()
    try:
        if backpropagated:
            loss, logits = model.loss(images, ids, targets, mask)
            loss.backward()
            del loss, logits
        else:
            model.forward(images, ids)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        ad.constant(np.zeros(3)).backward()


def test_masked_ce_examples():
    # uniform logits over 4 classes, one unmasked head
    out = ad.softmax_cross_entropy_masked(ad.constant(np.zeros((1, 4))),
                                          np.array([[2]]), np.array([[True]]))
    npt.assert_allclose(float(out.data), np.log(4.0), rtol=1e-12)

    # all heads masked: zero loss, exactly-zero gradients
    lg = ad.parameter(np.random.default_rng(3).normal(size=(2, 4)), "lg")
    out = ad.softmax_cross_entropy_masked(lg, np.array([[-1], [-1]]),
                                          np.array([[False], [False]]))
    out.backward()
    assert float(out.data) == 0.0
    assert np.all(lg.grad == 0.0)


def test_masked_ce_scalar_oracle():
    # independent scalar computation for logits [2,1,0], target 0
    z = [2.0, 1.0, 0.0]
    import math
    denom = sum(math.exp(v) for v in z)
    expected = -math.log(math.exp(z[0]) / denom)
    out = ad.softmax_cross_entropy_masked(ad.constant(np.array([z])),
                                          np.array([[0]]), np.array([[True]]))
    npt.assert_allclose(float(out.data), expected, rtol=1e-12)


def test_masked_ce_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(4)
    lg = ad.parameter(rng.normal(size=(3, 5)), "lg")
    targets = np.array([[0], [3], [2]])
    mask = np.array([[True], [False], [True]])
    ad.softmax_cross_entropy_masked(lg, targets, mask).backward()
    row_sums = lg.grad.sum(axis=1)
    npt.assert_allclose(row_sums[mask[:, 0]], 0.0, atol=1e-12)
    assert np.all(lg.grad[1] == 0.0)


def test_masked_ce_heads_add():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 6))
    targets = np.array([[1, 1], [4, 4]])
    both = ad.softmax_cross_entropy_masked(ad.constant(np.concatenate([raw, raw], axis=1)),
                                           targets, np.ones((2, 2), dtype=bool))
    single = ad.softmax_cross_entropy_masked(ad.constant(raw), targets[:, :1],
                                             np.ones((2, 1), dtype=bool))
    npt.assert_allclose(float(both.data), 2 * float(single.data), rtol=1e-12)


def test_masked_ce_masked_head_equals_unmasked_head_alone():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    targets = np.array([[0, -1], [3, -1]])
    mask = np.array([[True, False], [True, False]])
    two = ad.softmax_cross_entropy_masked(ad.constant(np.concatenate([a, b], axis=1)),
                                          targets, mask)
    one = ad.softmax_cross_entropy_masked(ad.constant(a), targets[:, :1], mask[:, :1])
    npt.assert_allclose(float(two.data), float(one.data), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_masked_ce_matches_the_per_head_reference_bit_for_bit(data):
    # the heads side by side give the value and every head's gradient of
    # one numpy pass per head, under the 1/batch root gradient training sets
    bsz = data.draw(st.integers(1, 40), label="rows")
    n_heads = data.draw(st.integers(1, 5), label="heads")
    k = data.draw(st.integers(2, 39), label="answers")
    logits = [data.draw(arrays(np.float64, (bsz, k), elements=st.floats(-30, 30)))
              for _ in range(n_heads)]
    mask = data.draw(arrays(bool, (bsz, n_heads)))
    targets = np.where(mask, data.draw(arrays(np.int64, (bsz, n_heads),
                                              elements=st.integers(0, k - 1))), -1)
    lg = ad.parameter(np.concatenate(logits, axis=1), "lg")
    out = ad.softmax_cross_entropy_masked(lg, targets, mask)
    out.grad = np.float64(1.0 / bsz)
    out.backward()
    want, want_grads = softmax_ce_reference(logits, targets, mask, np.float64(1.0 / bsz))
    assert out.data.tobytes() == want.tobytes()
    for h, g in enumerate(want_grads):
        assert lg.grad[:, h * k:(h + 1) * k].tobytes() == g.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_masked_rows_add_bit_zero_loss_and_gradient(data):
    # rewriting the logits and targets of masked slots leaves the loss and
    # every gradient bit-identical, and masked slots get all-zero-bit
    # gradient; the heads share one answer width, as a model's heads do
    bsz = data.draw(st.integers(1, 6), label="rows")
    n_heads = data.draw(st.integers(1, 4), label="heads")
    k = data.draw(st.integers(2, 6), label="classes")
    mask = data.draw(arrays(bool, (bsz, n_heads)))
    targets = data.draw(arrays(np.int64, (bsz, n_heads), elements=st.integers(0, k - 1)))
    plain, rewritten = [], []
    for h in range(n_heads):
        z = data.draw(arrays(np.float64, (bsz, k), elements=st.floats(-30, 30)))
        other = data.draw(arrays(np.float64, (bsz, k), elements=st.floats(-30, 30)))
        plain.append(z)
        rewritten.append(np.where(mask[:, h, None], z, other))

    def run(logits, tg):
        lg = ad.parameter(np.concatenate(logits, axis=1), "lg")
        out = ad.softmax_cross_entropy_masked(lg, tg, mask)
        out.backward()
        return out.data, [lg.grad[:, h * k:(h + 1) * k] for h in range(n_heads)]

    loss, grads = run(plain, targets)
    loss2, grads2 = run(rewritten, np.where(mask, targets, -1))
    assert loss.tobytes() == loss2.tobytes()
    for h, (g, g2) in enumerate(zip(grads, grads2)):
        assert g.tobytes() == g2.tobytes()
        assert not g[~mask[:, h]].view(np.uint64).any()


def test_masked_ce_target_out_of_range():
    lg = ad.constant(np.zeros((1, 3)))
    with pytest.raises(TrainingError, match="out of range"):
        ad.softmax_cross_entropy_masked(lg, np.array([[5]]), np.array([[True]]))
    # the first bad slot in head order is named; masked slots are never read
    heads = ad.constant(np.zeros((3, 9)))
    targets = np.array([[0, 0, -1], [0, 0, 9], [0, -1, 0]])
    mask = np.array([[True, True, False], [True, True, True], [True, True, True]])
    with pytest.raises(TrainingError, match="head 1, row 2"):
        ad.softmax_cross_entropy_masked(heads, targets, mask)


def test_masked_ce_rejects_heads_of_unequal_width_and_misshapen_targets():
    a, b = np.zeros((2, 4)), np.zeros((2, 5))
    targets, mask = np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool)
    cases = [
        (np.concatenate([a, b], axis=1), targets, mask),  # heads of unequal width
        (np.concatenate([a, a], axis=1), targets.T[:1], mask),  # targets of one row
        (np.concatenate([a, a], axis=1), targets, mask[:, :1]),  # mask of one head
        (np.concatenate([a, a, a], axis=1)[:1], targets, mask),  # logits of one row
        (np.zeros((2, 7)), targets, mask),  # a width that is no multiple of the heads
        (np.zeros(8), targets, mask),  # 1-d logits
    ]
    for logits, tg, mk in cases:
        with pytest.raises(ShapeError, match="softmax_cross_entropy_masked"):
            ad.softmax_cross_entropy_masked(ad.constant(logits), tg, mk)
