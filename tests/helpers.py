"""Shared builders for gradient-check instances over operators and models,
and per-item reference versions of the corpus generator and the encoder."""

import numpy as np

from mtvqa import autodiff as ad
from mtvqa.autodiff.tensor import _accum, _node
from mtvqa.corpus import ALL_TYPES, FeatureStore, LabeledQuestion, QuestionType
from mtvqa.corpus.synthetic import _TYPE_WEIGHTS, _cell_label
from mtvqa.errors import ConfigError, ShapeError
from mtvqa.models import _FAMILY, Model, ModelConfig, _distinct_rows, build_model
from mtvqa.textenc import encode


def weighted_sum(t, weights):
    """Scalar projection sum(t * weights) for a fixed weight array, the
    reduction that turns an operator's output into a checkable loss."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != t.data.shape:
        raise ShapeError(f"weighted_sum: weight shape {weights.shape} != {t.data.shape}")
    return _node(np.float64((t.data * weights).sum()), (t,), "weighted_sum",
                 lambda g: _accum(t, weights * g))


def conv1d_reference(x, w, b):
    """Valid 1-d convolution, not pooled, as the engine computed it before
    `conv1d` ran one GEMM against side-by-side taps: copy the (batch, tp,
    width*channels) windows, multiply them by the flattened kernel, and
    scatter the window gradient back tap by tap."""
    bsz, t, ch = x.data.shape
    width, _, nf = w.data.shape
    tp = t - width + 1
    win = np.stack([x.data[:, i:i + tp, :] for i in range(width)], axis=2)
    win = win.reshape(bsz, tp, width * ch)
    wr = w.data.reshape(width * ch, nf)

    def _bw(g):
        gw = win.reshape(bsz * tp, width * ch).T @ g.reshape(bsz * tp, nf)
        _accum(w, gw.reshape(width, ch, nf))
        _accum(b, g.sum(axis=(0, 1)))
        gwin = (g @ wr.T).reshape(bsz, tp, width, ch)
        gx = np.zeros_like(x.data)
        for i in range(width):
            gx[:, i:i + tp, :] += gwin[:, :, i, :]
        _accum(x, gx)

    return _node(win @ wr + b.data, (x, w, b), "conv1d_reference", _bw)


def max_over_time_reference(x):
    """Max over the time axis of a (batch, time, channels) tensor, as the
    engine's own pooling node computed it before `conv1d` pooled: gather at
    the argmax (first maximum on ties) and scatter back."""
    idx = np.argmax(x.data, axis=1)
    bsz, _, ch = x.data.shape
    bi = np.arange(bsz)[:, None]
    ci = np.arange(ch)[None, :]

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[bi, idx, ci] = g
        _accum(x, gx)

    return _node(x.data[bi, idx, ci], (x,), "max_over_time_reference", _bw)


class NadamReference:
    """Nadam as a loop over the parameters, one tensor at a time, as the
    optimizers stepped before they packed their parameters into one vector.
    A missing gradient counts as zero."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_bar = b1 * (m / bc1) + (1.0 - b1) * g / bc1
            p.data -= self.lr * m_bar / (np.sqrt(v / bc2) + self.eps)


class SgdMomentumReference:
    """SGD with momentum as a per-parameter loop (see `NadamReference`)."""

    def __init__(self, params, lr=1e-4, momentum=0.9):
        self.params = list(params)
        self.lr, self.momentum = lr, momentum
        self.vel = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.vel):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            v *= self.momentum
            v -= self.lr * g
            p.data += v


def _p(rng, shape, name):
    return ad.parameter(rng.normal(size=shape), name)


def op_case_mul(rng):
    a, b = _p(rng, (2, 3), "a"), _p(rng, (2, 3), "b")
    w = rng.normal(size=(2, 3))
    return lambda: weighted_sum(ad.mul(a, b), w), [a, b]


def op_case_tanh(rng):
    a = _p(rng, (2, 4), "a")
    w = rng.normal(size=(2, 4))
    return lambda: weighted_sum(ad.tanh(a), w), [a]


def op_case_affine(rng):
    x, m, b = _p(rng, (2, 3), "x"), _p(rng, (3, 4), "m"), _p(rng, (4,), "b")
    w = rng.normal(size=(2, 4))
    return lambda: weighted_sum(ad.affine(x, m, b), w), [x, m, b]


def op_case_conv1d(rng):
    width = int(rng.integers(1, 4))
    x, k, b = _p(rng, (2, 5, 3), "x"), _p(rng, (width, 3, 4), "k"), _p(rng, (4,), "b")
    w = rng.normal(size=(2, 4))
    return lambda: weighted_sum(ad.conv1d(x, k, b), w), [x, k, b]


def op_case_concat(rng):
    a, b, c = _p(rng, (2, 2), "a"), _p(rng, (2, 3), "b"), _p(rng, (2, 1), "c")
    w = rng.normal(size=(2, 6))
    return lambda: weighted_sum(ad.concat([a, b, c]), w), [a, b, c]


def op_case_embedding(rng):
    table = _p(rng, (5, 3), "table")
    ids = rng.integers(0, 5, size=(2, 4))
    w = rng.normal(size=(2, 4, 3))
    return lambda: weighted_sum(ad.embedding(table, ids), w), [table]


def op_case_gather_rows(rng):
    x = _p(rng, (5, 3), "x")
    ids = rng.integers(0, 5, size=(2, 4))
    w = rng.normal(size=(2, 4, 3))
    return lambda: weighted_sum(ad.gather_rows(x, ids), w), [x]


def op_case_softmax_ce(rng):
    # three heads as one affine over their weights side by side, as a
    # model's heads are, so x collects the backward of all of them; one
    # slot is masked
    x = _p(rng, (3, 4), "x")
    heads = [(_p(rng, (4, 5), f"m{h}"), _p(rng, (5,), f"b{h}")) for h in range(3)]
    targets = rng.integers(0, 5, size=(3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[rng.integers(0, 3), rng.integers(0, 3)] = False

    def fn():
        logits = ad.affine(x, ad.concat([m for m, _ in heads]), ad.concat([b for _, b in heads]))
        return ad.softmax_cross_entropy_masked(logits, targets, mask)

    return fn, [x] + [p for head in heads for p in head]


def softmax_ce_reference(logits, targets, mask, g):
    """Masked cross entropy and its gradient as the engine computed them
    before the loss read its heads side by side: one plain-numpy pass per
    (batch, answers) head in the list `logits`, reading column h of the
    (batch, heads) `targets` and `mask`, with the head sums added in head
    order.  Returns the value and each head's gradient for the upstream
    gradient `g`."""
    total = np.float64(0.0)
    grads = []
    for h, z in enumerate(logits):
        tg, mk = targets[:, h], mask[:, h]
        rows = np.arange(z.shape[0])
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        sez = ez.sum(axis=1)
        safe = np.where(mk, tg, 0)
        ce = np.log(sez) + zmax[:, 0] - z[rows, safe]
        total = total + np.where(mk, ce, 0.0).sum()
        d = ez / sez[:, None]
        d[rows, safe] -= 1.0
        d *= mk[:, None].astype(np.float64)
        grads.append(d * g + 0.0)
    return total, grads


def op_case_lstm_sequence(rng):
    # a trie of 2, 3, 3 and 4 nodes: steps 1 and 3 share prefixes, step 2
    # maps one-to-one onto step 1
    hidden = 3
    new = np.array([[1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1]], dtype=bool)
    x = _p(rng, (12, 2), "x")
    layers = [( _p(rng, (2, 4 * hidden), "l0.Wx"),
                _p(rng, (hidden, 4 * hidden), "l0.Wh"),
                _p(rng, (4 * hidden,), "l0.b")),
              ( _p(rng, (hidden, 4 * hidden), "l1.Wx"),
                _p(rng, (hidden, 4 * hidden), "l1.Wh"),
                _p(rng, (4 * hidden,), "l1.b"))]
    w = rng.normal(size=(4, hidden))
    params = [x] + [t for layer in layers for t in layer]
    return lambda: weighted_sum(ad.lstm_sequence(x, new, layers), w), params


def lstm_reference(x, new, layers):
    """Plain-numpy stacked LSTM over prefix-trie nodes in `lstm_sequence`'s
    arithmetic: step-major (nodes, channels) inputs and the (rows, steps)
    prefix marks -> top h at the last step's nodes, gates in the order
    input, forget, candidate, output.  Each layer runs over every step
    before the next, with one input GEMM over all nodes; a step's recurrent
    term and previous cell are its parents', gathered.  The parent of the
    node row r starts at step t is the last node of step t - 1 that a row
    at or above r starts."""
    sizes = new.sum(axis=0)
    bounds = np.cumsum(np.r_[0, sizes])
    parents = [np.array([new[:r + 1, t - 1].sum() - 1 for r in np.flatnonzero(new[:, t])],
                        dtype=np.intp) for t in range(1, new.shape[1])]
    inp = x
    for w_in, w_rec, bias in layers:
        n = w_rec.shape[0]
        zs = inp @ w_in + bias
        h = c = np.zeros((sizes[0], n))
        hs = []
        for t in range(len(sizes)):
            z = zs[bounds[t]:bounds[t + 1]]
            if t:
                z = z + (h @ w_rec)[parents[t - 1]]
                c = c[parents[t - 1]]
            with np.errstate(over="ignore"):
                i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * n:(k + 1) * n])) for k in (0, 1, 3))
            c = f * c + i * np.tanh(z[:, 2 * n:3 * n])
            h = o * np.tanh(c)
            hs.append(h)
        inp = np.concatenate(hs)
    return h


def lstm_stepwise_reference(x_seq, layers):
    """`lstm_sequence` as the engine computed it before it ran layer by
    layer over a prefix trie: every row of a (batch, time, channels)
    sequence runs every step, step-major over the layers, with two GEMMs per
    step and layer in the forward and five in the backward, and each
    logistic gate in the overflow-free `where` form.  Returns the top h
    after the last step."""

    def sig(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0.0, 1.0, e) / (e + 1.0)

    bsz, steps, _ = x_seq.data.shape
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
            i, f, o = sig(z[:, :n]), sig(z[:, n:2 * n]), sig(z[:, 3 * n:])
            g = np.tanh(z[:, 2 * n:3 * n])
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
        dh_next = [0.0] * (len(layers) - 1) + [dh_top]
        dc_next = [0.0] * len(layers)
        for t in reversed(range(steps)):
            d_up = 0.0
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

    return _node(hs[-1][-1], (x_seq, *weights), "lstm_stepwise_reference", _bw)


def op_case_slot_affine(rng):
    # two heads over four encoded rows; row 3 is read by no head
    x, enc = _p(rng, (3, 2), "x"), _p(rng, (4, 3), "enc")
    m, b = _p(rng, (2 + 2 * 3, 4), "m"), _p(rng, (4,), "b")
    inv = np.array([[0, 2, 0], [1, 1, 1]])
    w = rng.normal(size=(3, 4))
    return lambda: weighted_sum(ad.slot_affine(x, enc, inv, m, b), w), [x, enc, m, b]


def slot_affine_reference(x, enc, inv, w, b):
    """`slot_affine` as the graph the conv models built before it: each
    head gathers its rows of `enc`, and one affine map reads them laid side
    by side after `x`."""
    return ad.affine(ad.concat([x] + [ad.gather_rows(enc, i) for i in inv]), w, b)


_affine = ad.affine


def heads_affine_reference(x, w, b):
    """`affine` as a model's heads ran before they were one map: a weight
    that `concat` laid side by side from the `head.<name>.W` blocks runs as
    one affine map per block, and the logits are their concatenation.  Any
    other weight runs the plain `affine`."""
    if w.op != "concat":
        return _affine(x, w, b)
    return ad.concat([_affine(x, wh, bh) for wh, bh in zip(w._parents, b._parents)])


OP_CASES = {
    "mul": op_case_mul,
    "tanh": op_case_tanh,
    "affine": op_case_affine,
    "conv1d": op_case_conv1d,
    "concat": op_case_concat,
    "embedding": op_case_embedding,
    "gather_rows": op_case_gather_rows,
    "slot_affine": op_case_slot_affine,
    "softmax_cross_entropy_masked": op_case_softmax_ce,
    "lstm_sequence": op_case_lstm_sequence,
}


class EveryRowModel(Model):
    """A model that encodes every question row of each head, repeated
    questions and empty slots included: the reference for the forward
    pass, which encodes each distinct row once.  Head h's slots read rows
    h * batch onwards of one encoding of all heads' rows.  It shares the
    parameters of the model it wraps."""

    def __init__(self, model):
        super().__init__(model.variant, model.config, model.params)

    def encode_questions(self, ids):
        n, n_heads, max_len = ids.shape
        every = ids.transpose(1, 0, 2).reshape(n_heads * n, max_len)
        if _FAMILY[self.variant][0]:
            enc = self.encode_question_conv(every)
        else:  # the LSTM encoder takes distinct rows; each row gathers its own
            rows, inv, new = _distinct_rows(every)
            enc = ad.gather_rows(self._question_lstm(rows, new), inv)
        return enc, np.arange(n_heads * n).reshape(n_heads, n)


TINY_TASKS = (QuestionType.COLOUR, QuestionType.COUNT,
              QuestionType.POSITION, QuestionType.SIZE)


def tiny_model_config(**overrides):
    base = dict(tasks=TINY_TASKS, n_answers=3, vocab_size=7, feature_dim=5,
                embed_dim=3, max_len=4, filter_widths=(1, 2), filters_per_width=2,
                hidden_dim=5, img_compress_dim=3, lstm_dim=3, lstm_depth=2,
                common_dim=3, classifier_dims=(4,))
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(variant, seed=0, emb_scale=0.1, dtype=np.float64, **overrides):
    """A tiny model, float64 unless asked: gradient checks and the float64
    references compare against it."""
    cfg = tiny_model_config(**overrides)
    rng = np.random.default_rng(seed + 1)
    table = rng.uniform(-emb_scale, emb_scale, size=(cfg.vocab_size, cfg.embed_dim))
    table[0] = 0.0
    return build_model(variant, cfg, table, seed=seed, dtype=dtype)


def model_loss_case(variant, rng, batch=2):
    """A (fn, params) pair computing the training loss of a tiny model.

    Instances are kept well conditioned for finite differences: questions
    use real token ids (padding behaviour has its own exact tests) and the
    embedding scale is large enough that max-over-time pooling does not sit
    near a tie.
    """
    overrides = dict(max_len=3, lstm_dim=2, classifier_dims=(3,))
    if variant in ("vqateam_mtl", "vqateam_stl"):
        overrides["filter_widths"] = (1, 2)
    model = tiny_model(variant, seed=int(rng.integers(0, 2 ** 31)),
                       emb_scale=1.0, **overrides)
    cfg = model.config
    heads = model.n_heads
    images = rng.normal(size=(batch, cfg.feature_dim))
    ids = rng.integers(1, cfg.vocab_size, size=(batch, heads, cfg.max_len))
    targets = rng.integers(0, cfg.n_answers, size=(batch, heads))
    mask = rng.integers(0, 2, size=(batch, heads)).astype(bool)
    mask[0, 0] = True  # keep at least one unmasked slot

    def fn():
        loss, _ = model.loss(images, ids, targets, mask)
        return loss

    return fn, list(model.params.values())


def question_ids_reference(examples, tasks):
    """(rows, heads) index of the distinct question in each slot, -1 on
    padded slots, in the layout `encode_multitask` gives `examples`: the
    numbering the harness computed from the examples before the encoder
    recorded it as `EncodedDataset.qids`.

    A question is keyed by (image_id, qtype, tokens, answer) and numbered
    in first-seen order.
    """
    tasks = tuple(tasks)
    index = {}
    ids = np.full((len(examples), len(tasks)), -1, dtype=np.int64)
    for i, ex in enumerate(examples):
        for q in ex.slots:
            if q.qtype in tasks:
                key = (ex.image_id, q.qtype, q.tokens, q.answer)
                ids[i, tasks.index(q.qtype)] = index.setdefault(key, len(index))
    return ids


def encode_reference(examples, records, n_heads, tasks, vocab, answer_vocab, max_len,
                     features):
    """`datasets._encode` as one Python step per slot, with one feature row
    per example: a dict of its `ids`, `targets`, `mask`, `qtypes`, `qids`
    and the (n, feature_dim) `images`."""
    tasks = tuple(tasks)
    n = len(examples)
    ids = np.zeros((n, n_heads, max_len), dtype=np.int64)
    targets = np.full((n, n_heads), -1, dtype=np.int64)
    mask = np.zeros((n, n_heads), dtype=bool)
    qtypes = np.full((n, n_heads), -1, dtype=np.int64)
    qids = np.full((n, n_heads), -1, dtype=np.int64)
    images = features.rows([ex.image_id for ex in examples])
    numbers = {}
    for i, slots in enumerate(records):
        for q in slots:
            if q.qtype not in tasks:
                raise ConfigError(f"question type {q.qtype} is not in the task set "
                                  f"({', '.join(map(str, tasks))})")
            t = tasks.index(q.qtype)
            k = t if n_heads > 1 else 0
            ids[i, k] = encode(q.tokens, vocab, max_len)
            targets[i, k] = answer_vocab.id_of(q.answer)
            mask[i, k] = True
            qtypes[i, k] = t
            qids[i, k] = numbers.setdefault(q, len(numbers))
    return dict(ids=ids, targets=targets, mask=mask, qtypes=qtypes, qids=qids, images=images)


def synthetic_corpus_reference(cfg):
    """`corpus.gen_synthetic_corpus` with one numpy scalar read and one
    feature write per object attribute."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_cells = cfg.grid_size * cfg.grid_size
    block = 1 + len(cfg.colours) + n_cells + len(cfg.sizes) + cfg.max_count
    dim = len(cfg.nouns) * block
    questions = []
    vectors = {}
    max_objects = min(cfg.max_objects, len(cfg.nouns), len(cfg.colours))
    for i in range(cfg.num_images):
        image_id = f"img{i:05d}"
        n_obj = 1 + int(rng.integers(0, max_objects))
        noun_idx = rng.choice(len(cfg.nouns), size=n_obj, replace=False)
        colour_idx = rng.choice(len(cfg.colours), size=n_obj, replace=False)
        cells = rng.integers(0, n_cells, size=n_obj)
        size_idx = rng.integers(0, len(cfg.sizes), size=n_obj)
        counts = rng.integers(1, cfg.max_count + 1, size=n_obj)
        vec = np.zeros(dim, dtype=np.float64)
        for o in range(n_obj):
            base = int(noun_idx[o]) * block
            vec[base] = 1.0
            vec[base + 1 + int(colour_idx[o])] = 1.0
            vec[base + 1 + len(cfg.colours) + int(cells[o])] = 1.0
            vec[base + 1 + len(cfg.colours) + n_cells + int(size_idx[o])] = 1.0
            vec[base + 1 + len(cfg.colours) + n_cells + len(cfg.sizes)
                + int(counts[o]) - 1] = 1.0
        if cfg.noise_std > 0:
            vec = vec + rng.normal(0.0, cfg.noise_std, size=dim)
        vectors[image_id] = vec
        chosen = [t for t in ALL_TYPES if rng.random() < _TYPE_WEIGHTS[t]]
        if len(chosen) < 2:
            rest = [t for t in ALL_TYPES if t not in chosen]
            wts = np.array([_TYPE_WEIGHTS[t] for t in rest])
            extra = rng.choice(len(rest), size=2 - len(chosen), replace=False,
                               p=wts / wts.sum())
            chosen = sorted(chosen + [rest[int(j)] for j in extra], key=ALL_TYPES.index)
        for qtype in chosen:
            n_q = 1 + int(rng.integers(0, min(2, n_obj)))
            for o in rng.permutation(n_obj)[:n_q]:
                o = int(o)
                noun = cfg.nouns[int(noun_idx[o])]
                colour = cfg.colours[int(colour_idx[o])]
                if qtype is QuestionType.OBJECT:
                    tokens, answer = ("what", "thing", "is", "the", colour), noun
                elif qtype is QuestionType.COLOUR:
                    tokens, answer = ("what", "colour", "is", "the", noun), colour
                elif qtype is QuestionType.COUNT:
                    tokens, answer = ("how", "many", "of", "the", noun), str(int(counts[o]))
                elif qtype is QuestionType.POSITION:
                    tokens = ("what", "position", "is", "the", noun)
                    answer = _cell_label(int(cells[o]), cfg.grid_size)
                else:
                    tokens = ("what", "size", "is", "the", noun)
                    answer = cfg.sizes[int(size_idx[o])]
                questions.append(LabeledQuestion(image_id=image_id, tokens=tokens,
                                                 answer=answer, qtype=qtype))
    return questions, FeatureStore(vectors=vectors, feature_dim=dim)
