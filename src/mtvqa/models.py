"""The four network variants over the differentiation engine.

* mtl_simple: per-type question inputs through a convolutional sentence
  encoder, a linearly compressed image vector, one shared tanh hidden
  layer, and one softmax head per type over the shared answer vocabulary.
  Each type's block of hidden weights multiplies that type's distinct
  questions in the batch once (`ad.slot_affine`), not one copy per example.
* stl_simple: the same network with a single question input and head; the
  hidden width is unchanged, so only the input/output connections differ.
* vqateam_stl: deep LSTM question encoding and image features each pass a
  tanh projection to a common width, are multiplied elementwise, and feed
  a deep tanh classifier.
* vqateam_mtl: one shared LSTM applied per question type; each product
  vector is concatenated before the shared classifier trunk and per-type
  heads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff.checkpoint import load_checkpoint, save_checkpoint
from .corpus.qtypes import QuestionType, parse_qtype
from .errors import ConfigError, FormatError, MtvqaError, ShapeError

# variant -> (convolutional question encoder, one head per task); each
# single-task network is its multi-task twin with one head
_FAMILY = {"mtl_simple": (True, True), "stl_simple": (True, False),
           "vqateam_stl": (False, False), "vqateam_mtl": (False, True)}
VARIANTS = tuple(_FAMILY)


@dataclass(frozen=True)
class ModelConfig:
    tasks: tuple
    n_answers: int
    vocab_size: int
    feature_dim: int
    embed_dim: int = 50
    max_len: int = 25
    filter_widths: tuple = (1, 2, 3)
    filters_per_width: int = 32
    hidden_dim: int = 128
    img_compress_dim: int = 64
    lstm_dim: int = 64
    lstm_depth: int = 2
    common_dim: int = 64
    classifier_dims: tuple = (128,)

    def validate(self):
        if not self.tasks or len(set(self.tasks)) < len(self.tasks):
            raise ConfigError("tasks must be non-empty and distinct")
        if self.n_answers < 1:
            raise ConfigError("answer vocabulary must be non-empty")
        if not self.filter_widths:
            raise ConfigError("filter_widths must be non-empty")
        positive = ("vocab_size", "feature_dim", "embed_dim", "max_len",
                    "filters_per_width", "hidden_dim", "img_compress_dim",
                    "lstm_dim", "lstm_depth", "common_dim")
        for fname in positive:
            if getattr(self, fname) < 1:
                raise ConfigError(f"{fname} must be positive")
        if any(w < 1 for w in self.filter_widths):
            raise ConfigError("filter widths must be positive")
        if any(w < 1 for w in self.classifier_dims):
            raise ConfigError("classifier_dims must be positive")
        if max(self.filter_widths) > self.max_len:
            raise ConfigError("filter width exceeds max question length")

    @property
    def question_feat_dim(self):
        return len(self.filter_widths) * self.filters_per_width

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["tasks"] = [t.value for t in self.tasks]
        d["filter_widths"] = list(self.filter_widths)
        d["classifier_dims"] = list(self.classifier_dims)
        return d

    @staticmethod
    def from_dict(d):
        """The config a `to_dict` echo describes, validated; FormatError
        names the first key whose value does not fit its field."""
        if not isinstance(d, dict):
            raise FormatError("model config echo is not a JSON object")
        d = dict(d)
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise FormatError(f"model config echo has unknown key {unknown[0]!r}")
        missing = [n for n in names if n not in d]
        if missing:
            raise FormatError(f"model config echo lacks key {missing[0]!r}")
        for name in names:
            try:
                d[name] = _FROM_ECHO.get(name, _echo_int)(d[name])
            except (AttributeError, TypeError, ValueError, MtvqaError) as exc:
                raise FormatError(f"model config echo has a bad {name!r}: {exc}") from exc
        config = ModelConfig(**d)
        try:
            config.validate()
        except ConfigError as exc:
            raise FormatError(f"model config echo: {exc}") from exc
        return config


def _echo_int(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return value


# field -> its value from the JSON echo; every other field is an integer
_FROM_ECHO = {"tasks": lambda v: tuple(parse_qtype(t) for t in v),
              "filter_widths": lambda v: tuple(map(_echo_int, v)),
              "classifier_dims": lambda v: tuple(map(_echo_int, v))}


def _distinct_rows(a):
    """`np.unique(a, axis=0, return_inverse=True)` of 2-d ints from one
    lexsort, and the distinct rows' prefix marks `new`: `new[r, t]` is true
    when distinct row r's first t + 1 ids differ from row r - 1's.  Rows
    sharing a prefix are adjacent in the sort, so `new[:, t]` marks the
    first row of each distinct (t + 1)-id prefix."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(a.shape, dtype=bool)
    np.logical_or.accumulate(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    first = new[:, -1]
    inv = np.empty(len(a), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return ordered[first], inv, new[first]


def _xavier(rng, shape, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Named parameters plus a forward-graph builder for one variant."""

    def __init__(self, variant, config, params):
        self.variant = variant
        self.config = config
        self.params = params

    @property
    def dtype(self):
        """The parameters' dtype, which the forward casts the images to."""
        return self.params["embedding"].data.dtype

    @property
    def n_heads(self):
        return len(self.head_names)

    @property
    def head_names(self):
        per_task = _FAMILY[self.variant][1]
        return tuple(t.value for t in self.config.tasks) if per_task else ("single",)

    def forward(self, images, ids):
        """images: (batch, feature_dim); ids: (batch, n_heads, max_len).

        Returns one (batch, n_heads * n_answers) logits tensor in which head
        h fills columns h * n_answers to (h + 1) * n_answers - 1: the heads
        are one affine map over their `head.<name>` weights laid side by
        side.  The question encoder runs once, over the batch's distinct
        question rows; see `encode_questions`.
        """
        images = np.asarray(images, dtype=self.dtype)
        ids = np.asarray(ids, dtype=np.int64)
        if images.ndim != 2 or images.shape[1] != self.config.feature_dim:
            raise ShapeError(
                f"forward: image features must be (batch, {self.config.feature_dim})")
        if ids.ndim != 3 or ids.shape[1] != self.n_heads or ids.shape[2] != self.config.max_len:
            raise ShapeError(
                f"forward: ids must be (batch, {self.n_heads}, {self.config.max_len})")
        p = self.params
        enc, inv = self.encode_questions(ids)
        if _FAMILY[self.variant][0]:
            img = ad.affine(ad.constant(images), p["img.W"], p["img.b"])
            x = ad.tanh(ad.slot_affine(img, enc, inv, p["hidden.W"], p["hidden.b"]))
        else:
            # the products depend on the image, so each head's rows are gathered
            v = ad.tanh(ad.affine(ad.constant(images), p["iproj.W"], p["iproj.b"]))
            x = ad.concat([ad.mul(ad.gather_rows(enc, i), v) for i in inv])
            for i in range(len(self.config.classifier_dims)):
                x = ad.tanh(ad.affine(x, p[f"clf.{i}.W"], p[f"clf.{i}.b"]))
        return ad.affine(x, ad.concat([p[f"head.{name}.W"] for name in self.head_names]),
                         ad.concat([p[f"head.{name}.b"] for name in self.head_names]))

    def encode_questions(self, ids):
        """`(enc, inv)` for (batch, n_heads, max_len) ids: slot (i, h) reads
        row `inv[h, i]` of the encoding `enc`.

        The distinct question rows of all heads, the all-padding question of
        empty slots among them, are encoded in one encoder call, so `enc`
        has one row per distinct question and `inv` is (n_heads, batch).
        """
        n, n_heads, max_len = ids.shape
        rows, inv, new = _distinct_rows(ids.transpose(1, 0, 2).reshape(n_heads * n, max_len))
        enc = self.encode_question_conv(rows) if _FAMILY[self.variant][0] \
            else self._question_lstm(rows, new)
        return enc, inv.reshape(n_heads, n)

    def encode_question_conv(self, ids2d):
        seq = ad.embedding(self.params["embedding"], ids2d)
        pooled = [ad.conv1d(seq, self.params[f"conv.shared.w{w}.W"],
                            self.params[f"conv.shared.w{w}.b"])
                  for w in self.config.filter_widths]
        # tanh is monotone, so pooling first gives the same values; where tanh
        # rounds two maxima to one value, 1 - y**2 is 0 and so is the gradient
        return ad.tanh(ad.concat(pooled))

    def _question_lstm(self, rows, new):
        """The LSTM encoding of each of the distinct, lexsorted rows of
        (rows, max_len) ids, given their prefix marks `new`, as
        `_distinct_rows` returns both.

        The stacked LSTM runs each distinct (t + 1)-id prefix once at step
        t, over the prefix trie the marks describe (`ad.lstm_sequence`), so
        rows that share their first tokens share those steps' states.  The
        top layer's state at each row's last node passes a tanh projection.
        """
        seq = ad.embedding(self.params["embedding"], rows.T[new.T])  # step-major node tokens
        layers = [(self.params[f"lstm.l{li}.Wx"], self.params[f"lstm.l{li}.Wh"],
                   self.params[f"lstm.l{li}.b"]) for li in range(self.config.lstm_depth)]
        h_top = ad.lstm_sequence(seq, new, layers)
        return ad.tanh(ad.affine(h_top, self.params["qproj.W"], self.params["qproj.b"]))

    def loss(self, images, ids, targets, mask):
        """Summed masked cross entropy over all heads (no batch averaging)."""
        logits = self.forward(images, ids)
        return ad.softmax_cross_entropy_masked(logits, targets, mask), logits


def build_model(variant, config, embedding, seed=0, dtype=np.float32):
    """Construct a freshly initialized model whose parameters are `dtype`.

    `embedding` is a (config.vocab_size, config.embed_dim) array; it is
    copied into the model parameters, where its padding row 0 is never read.
    Initial values are drawn in float64, then cast.  Gradient checks and
    float64 reference tests pass `dtype=np.float64`.
    """
    if variant not in _FAMILY:
        raise ConfigError(f"unknown model variant {variant!r}")
    config.validate()
    conv, per_task_heads = _FAMILY[variant]
    if per_task_heads and len(config.tasks) < 2:
        raise ConfigError(f"{variant} needs at least two tasks")
    if embedding.shape != (config.vocab_size, config.embed_dim):
        raise ShapeError(
            f"embedding table shape {embedding.shape} does not match config "
            f"({config.vocab_size}, {config.embed_dim})")

    rng = np.random.default_rng(seed)
    model = Model(variant, config, {})
    params = model.params

    def add_param(name, data):
        params[name] = ad.parameter(np.asarray(data, dtype=dtype), name)

    add_param("embedding", embedding)

    cfg = config
    if conv:
        add_param("img.W", _xavier(rng, (cfg.feature_dim, cfg.img_compress_dim),
                                   cfg.feature_dim, cfg.img_compress_dim))
        add_param("img.b", np.zeros(cfg.img_compress_dim))
        for w in cfg.filter_widths:
            fan_in = w * cfg.embed_dim
            add_param(f"conv.shared.w{w}.W",
                      _xavier(rng, (w, cfg.embed_dim, cfg.filters_per_width),
                              fan_in, cfg.filters_per_width))
            add_param(f"conv.shared.w{w}.b", np.zeros(cfg.filters_per_width))
        concat_dim = cfg.img_compress_dim + model.n_heads * cfg.question_feat_dim
        add_param("hidden.W", _xavier(rng, (concat_dim, cfg.hidden_dim),
                                      concat_dim, cfg.hidden_dim))
        add_param("hidden.b", np.zeros(cfg.hidden_dim))
        trunk_dim = cfg.hidden_dim
    else:
        for li in range(cfg.lstm_depth):
            in_dim = cfg.embed_dim if li == 0 else cfg.lstm_dim
            add_param(f"lstm.l{li}.Wx", _xavier(rng, (in_dim, 4 * cfg.lstm_dim),
                                                in_dim, cfg.lstm_dim))
            add_param(f"lstm.l{li}.Wh", _xavier(rng, (cfg.lstm_dim, 4 * cfg.lstm_dim),
                                                cfg.lstm_dim, cfg.lstm_dim))
            bias = np.zeros(4 * cfg.lstm_dim)
            bias[cfg.lstm_dim:2 * cfg.lstm_dim] = 1.0  # forget gate starts open
            add_param(f"lstm.l{li}.b", bias)
        add_param("qproj.W", _xavier(rng, (cfg.lstm_dim, cfg.common_dim),
                                     cfg.lstm_dim, cfg.common_dim))
        add_param("qproj.b", np.zeros(cfg.common_dim))
        add_param("iproj.W", _xavier(rng, (cfg.feature_dim, cfg.common_dim),
                                     cfg.feature_dim, cfg.common_dim))
        add_param("iproj.b", np.zeros(cfg.common_dim))
        trunk_dim = model.n_heads * cfg.common_dim
        for i, width in enumerate(cfg.classifier_dims):
            add_param(f"clf.{i}.W", _xavier(rng, (trunk_dim, width), trunk_dim, width))
            add_param(f"clf.{i}.b", np.zeros(width))
            trunk_dim = width

    for name in model.head_names:
        add_param(f"head.{name}.W", _xavier(rng, (trunk_dim, cfg.n_answers),
                                            trunk_dim, cfg.n_answers))
        add_param(f"head.{name}.b", np.zeros(cfg.n_answers))

    return model


def save_model(path, model, binary=True, extras=None):
    """The checkpoint stores float64, to which float32 widens exactly, and
    records the model's dtype in its meta."""
    meta = {"variant": model.variant, "config": model.config.to_dict(), "extras": extras,
            "dtype": model.dtype.name}
    save_checkpoint(path, {n: p.data for n, p in model.params.items()},
                    config=meta, binary=binary)


def load_model(path):
    model, _ = load_model_with_extras(path)
    return model


def load_model_with_extras(path):
    """The model at the dtype its meta records; a meta without one, as
    checkpoints written before models had a dtype, means float64."""
    raw, meta = load_checkpoint(path)
    if not isinstance(meta, dict) or "variant" not in meta or "config" not in meta:
        raise FormatError(f"{path}: checkpoint lacks a model config echo")
    dtype = meta.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise FormatError(f"{path}: unknown model dtype {dtype!r}")
    config = ModelConfig.from_dict(meta["config"])
    model = build_model(meta["variant"], config,
                        np.zeros((config.vocab_size, config.embed_dim)), seed=0, dtype=dtype)
    extra = [name for name in raw if name not in model.params]
    if extra:
        raise FormatError(f"{path}: checkpoint has unexpected parameter {extra[0]}")
    for name, p in model.params.items():
        if name not in raw:
            raise FormatError(f"{path}: checkpoint is missing parameter {name}")
        if raw[name].shape != p.data.shape:  # `load_checkpoint` gives float64 arrays
            raise FormatError(
                f"{path}: parameter {name} has shape {raw[name].shape}, expected {p.data.shape}")
        p.data[...] = raw[name]
    return model, meta.get("extras")
