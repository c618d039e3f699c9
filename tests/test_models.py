import json
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mtvqa.autodiff.lstm as lstm_module
from mtvqa import autodiff as ad
from mtvqa.autodiff.checkpoint import save_checkpoint
from mtvqa.autodiff.tensor import _toposort
from mtvqa.corpus import QuestionType
from mtvqa.errors import ConfigError, FormatError, ShapeError
from mtvqa.models import (
    _FAMILY,
    VARIANTS,
    ModelConfig,
    _distinct_rows,
    build_model,
    load_model,
    save_model,
)

from helpers import (TINY_TASKS, EveryRowModel, conv1d_reference, heads_affine_reference,
                     max_over_time_reference, slot_affine_reference, slot_product_reference,
                     tiny_model, tiny_model_config, weighted_sum)


def _batch(model, rng, batch=3):
    cfg = model.config
    images = rng.normal(size=(batch, cfg.feature_dim))
    ids = rng.integers(0, cfg.vocab_size, size=(batch, model.n_heads, cfg.max_len))
    return images, ids


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_heads_and_logit_shapes(variant):
    model = tiny_model(variant, n_answers=100)
    per_task = variant in ("mtl_simple", "vqateam_mtl")
    assert model.n_heads == (4 if per_task else 1)
    assert model.head_names == (tuple(t.value for t in TINY_TASKS) if per_task
                                else ("single",))
    images, ids = _batch(model, np.random.default_rng(0))
    assert model.forward(images, ids).shape == (3, model.n_heads * 100)


def test_forward_is_deterministic():
    model = tiny_model("mtl_simple")
    rng = np.random.default_rng(1)
    images, ids = _batch(model, rng)
    a = model.forward(images, ids).data
    b = model.forward(images, ids).data
    npt.assert_array_equal(a, b)


def test_same_seed_same_parameters():
    m1 = tiny_model("vqateam_mtl", seed=9)
    m2 = tiny_model("vqateam_mtl", seed=9)
    for name in m1.params:
        npt.assert_array_equal(m1.params[name].data, m2.params[name].data)
    m3 = tiny_model("vqateam_mtl", seed=10)
    assert any(not np.array_equal(m1.params[n].data, m3.params[n].data)
               for n in m1.params)


def test_all_pad_slots_still_defined():
    model = tiny_model("mtl_simple")
    rng = np.random.default_rng(2)
    images, _ = _batch(model, rng)
    ids = np.zeros((3, model.n_heads, model.config.max_len), dtype=np.int64)
    out = model.forward(images, ids).data
    assert np.all(np.isfinite(out))


def test_question_encoder_output_width():
    cfg = tiny_model_config(filter_widths=(1, 2, 3), filters_per_width=32, max_len=6)
    assert cfg.question_feat_dim == 96
    model = tiny_model("mtl_simple", filter_widths=(1, 2, 3), filters_per_width=32,
                       max_len=6)
    concat_dim = model.config.img_compress_dim + 4 * 96
    assert model.params["hidden.W"].data.shape[0] == concat_dim


def test_pad_question_is_bias_only():
    model = tiny_model("mtl_simple")
    cfg = model.config
    ids = np.zeros((2, cfg.max_len), dtype=np.int64)
    out = model.encode_question_conv(ids)
    expected = np.concatenate([np.tanh(model.params[f"conv.shared.w{w}.b"].data)
                               for w in cfg.filter_widths])
    npt.assert_allclose(out.data, np.tile(expected, (2, 1)), rtol=1e-12)


def test_stl_hidden_width_matches_mtl():
    mtl = tiny_model("mtl_simple")
    stl = tiny_model("stl_simple")
    assert mtl.params["hidden.W"].data.shape[1] == stl.params["hidden.W"].data.shape[1]
    # only the input and output connections differ
    assert mtl.params["hidden.W"].data.shape[0] > stl.params["hidden.W"].data.shape[0]


def test_vqateam_zero_image_annihilates_questions():
    # with zero-initialized biases the image projection of a zero vector is
    # zero, so the product vectors vanish and questions cannot matter
    model = tiny_model("vqateam_mtl")
    rng = np.random.default_rng(4)
    images = np.zeros((2, model.config.feature_dim))
    ids_a = rng.integers(0, model.config.vocab_size, size=(2, 4, model.config.max_len))
    ids_b = rng.integers(0, model.config.vocab_size, size=(2, 4, model.config.max_len))
    npt.assert_array_equal(model.forward(images, ids_a).data,
                           model.forward(images, ids_b).data)


def test_vqateam_mtl_classifier_input_width():
    model = tiny_model("vqateam_mtl", common_dim=64, classifier_dims=(10,))
    assert model.params["clf.0.W"].data.shape[0] == 4 * 64


def test_masked_head_parameters_get_exactly_zero_gradient():
    model = tiny_model("mtl_simple")
    rng = np.random.default_rng(7)
    images, ids = _batch(model, rng, batch=2)
    targets = np.zeros((2, 4), dtype=np.int64)
    mask = np.ones((2, 4), dtype=bool)
    mask[:, 2] = False  # position head fully masked
    targets[:, 2] = -1
    ad.zero_grads(list(model.params.values()))
    loss, _ = model.loss(images, ids, targets, mask)
    loss.backward()
    masked_head = model.params["head.position.W"]
    assert masked_head.grad is None or np.all(masked_head.grad == 0.0)
    live_head = model.params["head.colour.W"]
    assert live_head.grad is not None and np.any(live_head.grad != 0.0)


def test_primary_head_ignores_other_slots_when_pad():
    # the same (image, question) pair in slot 0 gives bit-identical slot-0
    # logits whether the example is built alone or alongside pad slots
    model = tiny_model("mtl_simple")
    rng = np.random.default_rng(8)
    cfg = model.config
    images = rng.normal(size=(2, cfg.feature_dim))
    q = rng.integers(1, cfg.vocab_size, size=(2, cfg.max_len))
    ids = np.zeros((2, 4, cfg.max_len), dtype=np.int64)
    ids[:, 0, :] = q
    first = model.forward(images, ids).data
    second = model.forward(images, ids.copy()).data
    npt.assert_array_equal(first[:, :cfg.n_answers], second[:, :cfg.n_answers])


def test_forward_shape_validation():
    model = tiny_model("mtl_simple")
    rng = np.random.default_rng(9)
    images, ids = _batch(model, rng)
    with pytest.raises(ShapeError):
        model.forward(images[:, :-1], ids)
    with pytest.raises(ShapeError):
        model.forward(images, ids[:, :2, :])


def test_variant_and_task_validation():
    cfg = tiny_model_config()
    with pytest.raises(ConfigError):
        build_model("nonsense", cfg, np.zeros((cfg.vocab_size, cfg.embed_dim)))
    solo = tiny_model_config(tasks=(QuestionType.COLOUR,))
    with pytest.raises(ConfigError):
        build_model("mtl_simple", solo, np.zeros((solo.vocab_size, solo.embed_dim)))


def test_save_load_round_trip(tmp_path):
    model = tiny_model("vqateam_stl", seed=3)
    path = tmp_path / "m.ckpt"
    save_model(path, model, binary=True)
    loaded = load_model(path)
    assert loaded.variant == "vqateam_stl"
    assert loaded.config == model.config
    for name in model.params:
        npt.assert_array_equal(loaded.params[name].data, model.params[name].data)
    rng = np.random.default_rng(10)
    images, ids = _batch(model, rng, batch=2)
    npt.assert_array_equal(model.forward(images, ids).data,
                           loaded.forward(images, ids).data)


def test_save_load_text_variant(tmp_path):
    model = tiny_model("mtl_simple", seed=4)
    path = tmp_path / "m.txt"
    save_model(path, model, binary=False)
    loaded = load_model(path)
    for name in model.params:
        npt.assert_array_equal(loaded.params[name].data, model.params[name].data)


# every float32 bit pattern, NaNs quiet: widening to float64 quiets a
# signalling NaN, so only quiet NaNs can come back bit for bit
_FLOAT32_BITS = st.integers(0, 2**32 - 1).map(
    lambda b: b | 1 << 22 if b >> 23 & 0xFF == 0xFF and b & 0x7FFFFF else b)
_FLOAT64_BITS = st.integers(0, 2**64 - 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VARIANTS), st.sampled_from(["float32", "float64"]), st.booleans(),
       st.data())
def test_checkpoint_reloads_a_model_at_its_dtype_bit_for_bit(tmp_path_factory, variant, dtype,
                                                             binary, data):
    model = tiny_model(variant, seed=6, dtype=dtype)
    name = data.draw(st.sampled_from(sorted(model.params)), label="parameter")
    p = model.params[name].data
    bits = np.uint32 if dtype == "float32" else np.uint64
    p[...] = data.draw(arrays(bits, p.shape, elements=_FLOAT32_BITS if dtype == "float32"
                              else _FLOAT64_BITS), label="bits").view(p.dtype)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_model(path, model, binary=binary)
    loaded = load_model(path)
    assert loaded.dtype == dtype
    for n, t in model.params.items():
        assert loaded.params[n].data.dtype == dtype and \
            loaded.params[n].data.tobytes() == t.data.tobytes(), n


def _write_v1_text(path, params, meta):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mtvqa-ckpt v1 text {len(params)}\nconfig {json.dumps(meta)}\n")
        for n, a in params.items():
            fh.write(f"{n}\t{' '.join(map(str, a.shape)) or '-'}\t"
                     f"{' '.join(repr(float(v)) for v in a.reshape(-1))}\n")


@pytest.mark.parametrize("form", ["v1 text", "v2 text", "npz"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_without_a_dtype_loads_as_float64_bit_for_bit(tmp_path, variant, form):
    # checkpoints written before models had a dtype record none
    model = tiny_model(variant, seed=7)
    params = {n: p.data for n, p in model.params.items()}
    meta = {"variant": variant, "config": model.config.to_dict(), "extras": None}
    path = tmp_path / "old.ckpt"
    if form == "v1 text":
        _write_v1_text(path, params, meta)
    else:
        save_checkpoint(path, params, config=meta, binary=form == "npz")
    loaded = load_model(path)
    assert loaded.dtype == np.float64
    for n, a in params.items():
        assert loaded.params[n].data.dtype == np.float64 and \
            loaded.params[n].data.tobytes() == a.tobytes(), n


@pytest.mark.parametrize("dtype", ["float16", "int64", "f4", None, 32, ["float32"]])
def test_checkpoint_with_an_unknown_dtype_raises_format_error(tmp_path, dtype):
    model = tiny_model("stl_simple", seed=7)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {n: p.data for n, p in model.params.items()},
                    config={"variant": "stl_simple", "config": model.config.to_dict(),
                            "extras": None, "dtype": dtype})
    with pytest.raises(FormatError, match=r"m\.ckpt: unknown model dtype"):
        load_model(path)


def test_load_rejects_configless_checkpoint(tmp_path):
    from mtvqa.autodiff.checkpoint import save_checkpoint
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, {"embedding": np.zeros((3, 2))}, config=None)
    with pytest.raises(FormatError, match="config"):
        load_model(path)


def test_load_rejects_question_encoder_echo(tmp_path):
    # shared_question_encoder is no config field, so its echo is an unknown key
    from mtvqa.autodiff.checkpoint import save_checkpoint
    model = tiny_model("mtl_simple", seed=5)
    params = {n: p.data for n, p in model.params.items()}
    for shared in (True, False):
        config = dict(model.config.to_dict(), shared_question_encoder=shared)
        path = tmp_path / f"echo-{shared}.ckpt"
        save_checkpoint(path, params, config={"variant": "mtl_simple", "config": config,
                                              "extras": None})
        with pytest.raises(FormatError, match="unknown key 'shared_question_encoder'"):
            load_model(path)


@pytest.mark.parametrize("trained", [True, False])
def test_load_ignores_embedding_trainable_echo(tmp_path, trained):
    # the embedding always trains, and the loader reads no embed_trainable echo
    from mtvqa.autodiff.checkpoint import save_checkpoint
    model = tiny_model("mtl_simple", seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {n: p.data for n, p in model.params.items()},
                    config={"variant": "mtl_simple", "config": model.config.to_dict(),
                            "embed_trainable": trained, "extras": None})
    loaded = load_model(path)
    assert loaded.config == model.config
    for name in model.params:
        npt.assert_array_equal(loaded.params[name].data, model.params[name].data)


@pytest.mark.parametrize("dims", [(0,), (-2,), (4, 0)])
def test_non_positive_classifier_width_is_rejected(dims):
    cfg = tiny_model_config(classifier_dims=dims)
    with pytest.raises(ConfigError, match="classifier_dims"):
        build_model("vqateam_mtl", cfg, np.zeros((cfg.vocab_size, cfg.embed_dim)))


def test_empty_classifier_builds_and_runs():
    model = tiny_model("vqateam_mtl", seed=5, classifier_dims=())
    assert not any(name.startswith("clf.") for name in model.params)
    ids = np.ones((2, model.n_heads, model.config.max_len), dtype=np.int64)
    logits = model.forward(np.ones((2, model.config.feature_dim)), ids)
    assert logits.shape == (2, model.n_heads * model.config.n_answers)


def test_load_rejects_config_echo_with_unknown_or_missing_key(tmp_path, capsys):
    from mtvqa.autodiff.checkpoint import save_checkpoint
    from mtvqa.cli import main
    model = tiny_model("mtl_simple", seed=5)
    params = {n: p.data for n, p in model.params.items()}
    echo = model.config.to_dict()
    meta = {"variant": "mtl_simple", "config": echo, "embed_trainable": True, "extras": None}
    bad = {"dropout": dict(meta, config=dict(echo, dropout=0.5)),
           "n_answers": dict(meta, config={k: v for k, v in echo.items() if k != "n_answers"}),
           "config echo": {k: v for k, v in meta.items() if k != "config"}}
    for key, bad_meta in bad.items():
        path = tmp_path / f"{key}.ckpt"
        save_checkpoint(path, params, config=bad_meta)
        with pytest.raises(FormatError, match=key):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(tmp_path / "none.tsv"),
                     "--features", str(tmp_path / "none.feat")]) == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("embed_dim", "x"), ("embed_dim", 2.5), ("embed_dim", True), ("embed_dim", 0),
    ("tasks", 5), ("tasks", ["colour", "shape"]), ("filter_widths", None),
    ("filter_widths", [1, "2"]), ("classifier_dims", {"a": 1}), ("classifier_dims", [0]),
    ("classifier_dims", [-2]), ("config", "list"), ("tasks", ["colour", "count", "colour"])],
    ids=["embed_dim-str", "embed_dim-float", "embed_dim-bool", "embed_dim-zero",
         "tasks-int", "tasks-unknown", "filter_widths-null", "filter_widths-str-item",
         "classifier_dims-object", "classifier_dims-zero", "classifier_dims-negative",
         "config-list", "tasks-repeated"])
def test_load_rejects_config_echo_with_bad_value(tmp_path, key, value):
    # a wrong-typed or invalid value is a FormatError naming the key, and a
    # config that is not a JSON object (here a list) is one too
    from mtvqa.autodiff.checkpoint import save_checkpoint
    model = tiny_model("mtl_simple", seed=5)
    echo = model.config.to_dict()
    config = list(echo) if key == "config" else dict(echo, **{key: value})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {n: p.data for n, p in model.params.items()},
                    config={"variant": "mtl_simple", "config": config, "extras": None})
    with pytest.raises(FormatError, match="not a JSON object" if key == "config" else key):
        load_model(path)


@pytest.mark.parametrize("fault", ["missing", "wrong_shape", "extra"])
def test_load_rejects_bad_embedding_like_any_parameter(tmp_path, fault):
    from mtvqa.autodiff.checkpoint import save_checkpoint
    model = tiny_model("mtl_simple", seed=5)
    params = {n: p.data for n, p in model.params.items()}
    name = "embedding"
    if fault == "missing":
        del params[name]
    elif fault == "wrong_shape":
        params[name] = params[name][:, 1:]
    else:  # a parameter the model does not have
        name = "bogus"
        params[name] = np.zeros(2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config={"variant": "mtl_simple",
                                          "config": model.config.to_dict(), "extras": None})
    with pytest.raises(FormatError, match=rf"m\.ckpt: .*parameter {name}\b"):
        load_model(path)


@pytest.mark.parametrize("variant", VARIANTS)
def test_embedding_row_0_is_never_read(variant):
    # padding id 0 reads zeros whatever row 0 holds, so random values there
    # change no logit and no other gradient, and row 0 takes no gradient
    rng = np.random.default_rng(4)
    images, ids = _batch(tiny_model(variant), rng, batch=4)
    ids[:, :, -1] = 0
    ids[0, 0] = 0
    targets = rng.integers(0, 3, size=ids.shape[:2])
    mask = np.ones(ids.shape[:2], dtype=bool)
    runs = []
    for row0 in (np.zeros(3), rng.normal(size=3)):
        model = tiny_model(variant)
        model.params["embedding"].data[0] = row0
        loss, logits = model.loss(images, ids, targets, mask)
        loss.backward()
        runs.append([logits.data.tobytes()]
                    + [p.grad.tobytes() for n, p in model.params.items() if n != "embedding"]
                    + [model.params["embedding"].grad[1:].tobytes()])
        assert not model.params["embedding"].grad[0].view(np.uint64).any()
    assert runs[0] == runs[1]


def test_vqateam_stl_matches_scalar_trace():
    # independent step-by-step evaluation of a 2-token question through a
    # 1-wide LSTM, the two tanh projections, the product, and the classifier
    import math

    cfg = ModelConfig(tasks=(QuestionType.COLOUR, QuestionType.COUNT), n_answers=2,
                      vocab_size=3, feature_dim=2, embed_dim=2, max_len=2,
                      filter_widths=(1,), filters_per_width=1, hidden_dim=1,
                      img_compress_dim=1, lstm_dim=1, lstm_depth=1, common_dim=1,
                      classifier_dims=(1,))
    emb_rows = np.array([[0.0, 0.0], [0.5, -0.3], [0.2, 0.4]])
    model = build_model("vqateam_stl", cfg, emb_rows.copy(), seed=0, dtype=np.float64)
    wx = np.array([[0.1, 0.2, 0.3, 0.4], [-0.2, 0.1, 0.0, 0.3]])
    wh = np.array([[0.05, -0.1, 0.2, 0.15]])
    bias = np.array([0.01, 0.02, 0.03, 0.04])
    model.params["lstm.l0.Wx"].data[...] = wx
    model.params["lstm.l0.Wh"].data[...] = wh
    model.params["lstm.l0.b"].data[...] = bias
    model.params["qproj.W"].data[...] = [[0.7]]
    model.params["qproj.b"].data[...] = [0.1]
    model.params["iproj.W"].data[...] = [[0.4], [-0.6]]
    model.params["iproj.b"].data[...] = [0.05]
    model.params["clf.0.W"].data[...] = [[1.2]]
    model.params["clf.0.b"].data[...] = [-0.1]
    model.params["head.single.W"].data[...] = [[0.9, -1.1]]
    model.params["head.single.b"].data[...] = [0.2, 0.3]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = c = 0.0
    for tok in (1, 2):
        z = emb_rows[tok] @ wx + h * wh[0] + bias
        c = sig(z[1]) * c + sig(z[0]) * math.tanh(z[2])
        h = sig(z[3]) * math.tanh(c)
    q = math.tanh(h * 0.7 + 0.1)
    v = math.tanh(0.3 * 0.4 + (-0.7) * (-0.6) + 0.05)
    trunk = math.tanh(q * v * 1.2 - 0.1)
    expected = [trunk * 0.9 + 0.2, trunk * (-1.1) + 0.3]

    logits = model.forward(np.array([[0.3, -0.7]]), np.array([[[1, 2]]]))
    npt.assert_allclose(logits.data[0], expected, rtol=1e-12)


def test_all_pad_question_embeds_to_exact_zero_sequence():
    model = tiny_model("mtl_simple")
    from mtvqa import autodiff as adiff
    seq = adiff.embedding(model.params["embedding"],
                          np.zeros((2, model.config.max_len), dtype=np.int64))
    assert np.all(seq.data == 0.0)


def _slot_batch(model, rng, kind):
    """A batch with filled and empty (all-padding) question slots: "mixed"
    empties some slots and every slot of head 2, "none_empty" fills every
    slot, "all_empty" fills none, and "repeated" copies questions down a
    head and across heads, as combined examples repeat them, and empties
    one slot."""
    cfg = model.config
    batch = 5
    images = rng.normal(size=(batch, cfg.feature_dim))
    ids = rng.integers(1, cfg.vocab_size, size=(batch, model.n_heads, cfg.max_len))
    ids[:, :, -1] = 0  # trailing padding inside filled questions
    if kind == "mixed":
        ids[rng.random((batch, model.n_heads)) < 0.4] = 0
        ids[:, 2] = 0
        ids[0, 0, 0] = 1  # head 0 keeps one filled row
    elif kind == "all_empty":
        ids[:] = 0
    elif kind == "repeated":
        ids[1:3] = ids[0]
        ids[3:, 1:] = ids[3:, :1]
        ids[4, 2] = 0
    targets = rng.integers(0, cfg.n_answers, size=(batch, model.n_heads))
    mask = rng.random((batch, model.n_heads)) < 0.7
    return images, ids, targets, mask


def _loss_and_grads(model, batch):
    params = list(model.params.values())
    ad.zero_grads(params)
    loss, logits = model.loss(*batch)
    loss.backward()
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for n, p in model.params.items()}
    return float(loss.data), logits.data, grads


@pytest.mark.parametrize("kind", ["mixed", "none_empty", "all_empty", "repeated"])
@pytest.mark.parametrize("variant", ["mtl_simple", "vqateam_mtl"])
def test_filled_slot_encoding_matches_every_row_reference(variant, kind, monkeypatch):
    model = tiny_model(variant, seed=3, emb_scale=1.0)
    reference = EveryRowModel(model)
    batch = _slot_batch(model, np.random.default_rng(11), kind)
    enc, inv = model.encode_questions(batch[1])
    ref_enc, ref_inv = reference.encode_questions(batch[1])
    npt.assert_array_equal(enc.data[inv], ref_enc.data[ref_inv])
    loss, logits, grads = _loss_and_grads(model, batch)
    # the reference hidden layer gathers every slot's row and multiplies the
    # concatenation, as the conv models did before `slot_affine`
    monkeypatch.setattr(ad, "slot_affine", slot_affine_reference)
    ref_loss, ref_logits, ref_grads = _loss_and_grads(reference, batch)
    if variant == "vqateam_mtl":
        npt.assert_array_equal(logits, ref_logits)
    else:  # the hidden layer adds its terms in another order
        assert np.abs(logits - ref_logits).max() <= 1e-12 * np.abs(ref_logits).max()
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, ref in ref_grads.items():
        gap = np.abs(grads[name] - ref).max()
        assert gap <= 1e-12 * np.abs(ref).max(), f"{name}: gradient gap {gap:.2e}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_affine_heads_match_one_affine_per_head(variant, monkeypatch):
    # the heads' weights side by side give each head's logits bit for bit;
    # the trunk's gradient is one GEMM over all heads where the reference
    # adds one per head, so gradients agree to rounding
    model = tiny_model(variant, seed=3, emb_scale=1.0)
    batch = _slot_batch(model, np.random.default_rng(14), "none_empty")
    loss, logits, grads = _loss_and_grads(model, batch)
    monkeypatch.setattr(ad, "affine", heads_affine_reference)
    ref_loss, ref_logits, ref_grads = _loss_and_grads(model, batch)
    assert logits.tobytes() == ref_logits.tobytes() and loss == ref_loss
    for name, ref in ref_grads.items():
        gap = np.abs(grads[name] - ref).max()
        assert gap <= 1e-12 * np.abs(ref).max(), f"{name}: gradient gap {gap:.2e}"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("variant, kind", [("vqateam_mtl", "repeated"),
                                           ("vqateam_stl", "none_empty")])
def test_vqateam_trunk_is_one_slot_product_node(variant, kind, dtype, monkeypatch):
    # the trunk was a gather and a product per head and their concatenation,
    # 2 * heads + 1 nodes; one node gives its loss, logits and gradients bit
    # for bit
    model = tiny_model(variant, seed=3, emb_scale=1.0, dtype=dtype)
    batch = _slot_batch(model, np.random.default_rng(15), kind)

    def run():
        ad.zero_grads(model.params.values())
        loss, logits = model.loss(*batch)
        ops = Counter(node.op for node in _toposort(loss))
        loss.backward()
        return ops, [loss.data.tobytes(), logits.data.tobytes()] + [
            p.grad.tobytes() for p in model.params.values() if p.grad is not None]

    ops, got = run()
    monkeypatch.setattr(ad, "slot_product", slot_product_reference)
    ref_ops, want = run()
    assert ops["slot_product"] == 1 and ops["mul"] == ops["gather_rows"] == 0
    assert ref_ops["slot_product"] == 0
    assert ref_ops["mul"] == ref_ops["gather_rows"] == model.n_heads
    assert sum(ops.values()) == sum(ref_ops.values()) - 2 * model.n_heads
    assert got == want


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_of_no_rows_gives_empty_logits_and_zero_loss(variant):
    model = tiny_model(variant)
    cfg, heads = model.config, model.n_heads
    images, ids = np.zeros((0, cfg.feature_dim)), np.zeros((0, heads, cfg.max_len), dtype=int)
    rows, inv, new = _distinct_rows(ids.reshape(0, cfg.max_len))
    assert rows.shape == new.shape == (0, cfg.max_len) and inv.shape == (0,)
    assert model.forward(images, ids).shape == (0, heads * cfg.n_answers)
    loss, _, grads = _loss_and_grads(model, (images, ids, np.zeros((0, heads), dtype=int),
                                             np.zeros((0, heads), dtype=bool)))
    assert loss == 0.0
    assert not any(g.any() for g in grads.values())


def _encoder_calls(model):
    """Record the ids of every call to the model's per-row encoder."""
    name = "encode_question_conv" if _FAMILY[model.variant][0] else "_question_lstm"
    encode = getattr(model, name)
    calls = []

    def recorded(ids2d, *rest):
        calls.append(ids2d.copy())
        return encode(ids2d, *rest)

    setattr(model, name, recorded)
    return calls


@pytest.mark.parametrize("variant", ["stl_simple", "vqateam_stl"])
def test_stl_forward_never_encodes_the_padding_row(variant):
    model = tiny_model(variant)
    calls = _encoder_calls(model)
    images, ids = _batch(model, np.random.default_rng(12), batch=4)
    ids[:, :, 0] = 1  # single questions are never empty
    model.forward(images, ids)
    (rows,) = calls
    assert len(rows) == 4 and rows.any(axis=1).all()


@pytest.mark.parametrize("variant", ["mtl_simple", "vqateam_mtl"])
def test_one_encoder_call_per_forward_over_the_distinct_rows(variant):
    model = tiny_model(variant)
    calls = _encoder_calls(model)
    images, ids, _, _ = _slot_batch(model, np.random.default_rng(13), "repeated")
    model.forward(images, ids)
    (rows,) = calls
    distinct = {tuple(q) for q in ids.reshape(-1, ids.shape[2])}
    assert (0,) * ids.shape[2] in distinct and len(distinct) < ids.shape[0] * ids.shape[1]
    assert len(rows) == len(distinct) and {tuple(r) for r in rows} == distinct


def _assert_matches_np_unique(a):
    rows, inv, new = _distinct_rows(a)
    ref_rows, ref_inv = np.unique(a, axis=0, return_inverse=True)
    npt.assert_array_equal(rows, ref_rows)
    assert rows.dtype == ref_rows.dtype
    npt.assert_array_equal(inv, ref_inv.reshape(-1))
    # the distinct rows' prefix marks are those a sort of them alone gives
    npt.assert_array_equal(new, _distinct_rows(rows)[2])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_rows_matches_np_unique(data):
    # rows drawn from a small pool of rows over a few ids up to 2**40, so
    # most rows repeat and runs of equal rows are long
    n_rows = data.draw(st.integers(1, 300), label="rows")
    n_cols = data.draw(st.integers(1, 25), label="cols")
    ids = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    pool = data.draw(arrays(np.int64, (data.draw(st.integers(1, 8)), n_cols),
                            elements=st.sampled_from(ids)))
    pick = data.draw(arrays(np.int64, n_rows, elements=st.integers(0, len(pool) - 1)))
    _assert_matches_np_unique(pool[pick])


@pytest.mark.parametrize("shape", [(1, 1), (1, 25), (300, 1), (300, 25)])
def test_distinct_rows_of_one_row_and_of_equal_rows(shape):
    _assert_matches_np_unique(np.full(shape, 2**40, dtype=np.int64))
    _assert_matches_np_unique(np.zeros(shape, dtype=np.int64))


def test_pooling_before_tanh_matches_tanh_first_on_saturated_batch():
    model = tiny_model("mtl_simple", seed=4, emb_scale=1.0)
    p, cfg = model.params, model.config
    # eighths sum exactly in any order, so the reference convolution's
    # window GEMM gives the engine's bits
    for name in ["embedding"] + [f"conv.shared.w{w}.W" for w in cfg.filter_widths]:
        p[name].data[...] = np.round(p[name].data * 8) / 8
    for w in cfg.filter_widths:
        p[f"conv.shared.w{w}.W"].data *= 40.0  # pre-activations saturate tanh
    rng = np.random.default_rng(14)
    ids = rng.integers(0, cfg.vocab_size, size=(16, cfg.max_len))
    upstream = rng.normal(size=(16, cfg.question_feat_dim))

    def tanh_first(ids2d):
        seq = ad.embedding(p["embedding"], ids2d)
        return ad.concat([max_over_time_reference(ad.tanh(conv1d_reference(
            seq, p[f"conv.shared.w{w}.W"], p[f"conv.shared.w{w}.b"])))
            for w in cfg.filter_widths])

    results = []
    for encode in (model.encode_question_conv, tanh_first):
        ad.zero_grads(p.values())
        pooled = encode(ids)
        weighted_sum(pooled, upstream).backward()
        results.append((pooled.data, {n: t.grad for n, t in p.items() if t.grad is not None}))
    (out, grads), (ref_out, ref_grads) = results
    assert np.any(np.abs(out) == 1.0)  # the batch holds saturated maxima
    npt.assert_array_equal(out, ref_out)
    # where tanh rounds two maxima to one value, 1 - y**2 is 0 in both orders,
    # so every gradient agrees, not only those of unsaturated outputs
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        npt.assert_allclose(grads[name], ref, rtol=1e-12, atol=0, err_msg=name)


def _rows_of_repeats(model, rng, batch):
    """`batch` float64 rows drawn from 8 distinct ones, some slots empty."""
    images, ids = _batch(model, rng, batch=8)
    ids[rng.random(ids.shape[:2]) < 0.3] = 0
    pick = rng.integers(0, 8, size=batch)
    targets = rng.integers(0, model.config.n_answers, size=(batch, model.n_heads))
    return images[pick], ids[pick], targets, rng.random(targets.shape) < 0.7


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_model_computes_in_its_own_dtype_with_no_silent_upcast(variant, dtype,
                                                                 monkeypatch):
    # a first gradient is its own array, so an operator that made a wider
    # scratch array would show here as a wider `.grad`; packed, the
    # optimizers would silently narrow it instead, and so would `_accum`
    # adding it in place, so every gradient handed to `_accum` is checked too
    model = tiny_model(variant, seed=2, emb_scale=1.0, dtype=dtype)
    assert model.dtype == dtype
    images, ids, targets, mask = _rows_of_repeats(model, np.random.default_rng(15), 64)
    accum, handed = ad.tensor._accum, []

    def checked(t, g, rows=...):
        handed.append((t, np.asarray(g).dtype))
        accum(t, g, rows)

    for module in (ad.tensor, lstm_module):  # the LSTM imports `_accum` by name
        monkeypatch.setattr(module, "_accum", checked)
    loss, _ = model.loss(images, ids, targets, mask)
    loss.backward()
    assert handed
    for t, g_dtype in handed:
        assert g_dtype == t.data.dtype == dtype, f"{t!r} was handed a {g_dtype} gradient"
    nodes = ad.tensor._toposort(loss)
    assert {p.op for p in nodes} >= {"param", "const", "affine", "tanh", "embedding"}
    for node in nodes:
        assert node.data.dtype == dtype, f"{node!r} data is {node.data.dtype}"
        assert node.grad is None or node.grad.dtype == dtype, f"{node!r} grad is {node.grad.dtype}"
    for optimizer in (ad.Nadam, ad.SgdMomentum):  # each packs the gradients it finds
        opt = optimizer(model.params.values())
        opt.step()
        vectors = {k: v for k, v in vars(opt).items() if isinstance(v, np.ndarray)}
        assert {"data", "grad"} <= vectors.keys()
        assert all(v.dtype == dtype for v in vectors.values()), \
            {k: v.dtype for k, v in vectors.items()}
        assert all(p.data.dtype == p.grad.dtype == dtype for p in model.params.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_sort_per_forward(variant, monkeypatch):
    # the LSTM's prefix trie comes from the sort that finds the distinct rows
    model = tiny_model(variant)
    images, ids, _, _ = _rows_of_repeats(model, np.random.default_rng(17), 64)
    logits = model.forward(images, ids).data
    sorts = []
    lexsort = np.lexsort

    def counted(keys):
        sorts.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counted)
    assert model.forward(images, ids).data.tobytes() == logits.tobytes()
    assert sorts == [model.config.max_len]
