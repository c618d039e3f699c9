"""Turning reformatted examples into the dense arrays the models consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .textenc import encode


@dataclass
class EncodedDataset:
    """Dense slot-per-head layout.

    ids: (n, heads, max_len) int64; targets/mask/qtypes/qids: (n, heads).
    `qtypes` holds indices into `tasks` (-1 on padded slots) so per-type
    accuracy can be reported even when one head serves every type.  `qids`
    numbers each slot's distinct question (LabeledQuestion record) in
    first-seen order, -1 on padded slots.  `images` holds each distinct
    image's features once, (images, feature_dim) in first-seen order, and
    `image_rows`, (n,) intp, gives each row's row of `images`:
    `images[image_rows]` is the (n, feature_dim) feature matrix.
    """
    ids: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    qtypes: np.ndarray
    qids: np.ndarray
    images: np.ndarray
    image_rows: np.ndarray
    image_ids: tuple
    tasks: tuple

    def __len__(self):
        return self.ids.shape[0]


def _encode(examples, records, n_heads, tasks, vocab, answer_vocab, max_len, features):
    """The dense layout of `examples`, where `records[i]` holds example i's
    question records: each on head `tasks.index(q.qtype)` when there are
    several heads, else on head 0.  A type outside `tasks` raises `ConfigError`."""
    tasks = tuple(tasks)
    n = len(examples)
    image_ids = tuple(ex.image_id for ex in examples)
    first = {}  # image id -> its row of `images`
    image_rows = np.array([first.setdefault(i, len(first)) for i in image_ids], dtype=np.intp)
    images = features.rows(list(first))
    numbers = {}  # question record -> its index in `qids`; each is looked up once below
    qid = np.array([numbers.setdefault(q, len(numbers)) for r in records for q in r], np.int64)
    row = np.array([i for i, slots in enumerate(records) for _ in slots], dtype=np.intp)
    bad = [q.qtype for q in numbers if q.qtype not in tasks]
    if bad:
        raise ConfigError(f"question type {bad[0]} is not in the task set "
                          f"({', '.join(map(str, tasks))})")
    codes = {t: encode(t, vocab, max_len) for t in {q.tokens for q in numbers}}
    qtype = np.array([tasks.index(q.qtype) for q in numbers], dtype=np.int64)[qid]
    head = qtype if n_heads > 1 else 0
    ids = np.zeros((n, n_heads, max_len), dtype=np.int64)
    ids[row, head] = np.array([codes[q.tokens] for q in numbers],
                              dtype=np.int64).reshape(len(numbers), max_len)[qid]
    targets, qtypes, qids = (np.full((n, n_heads), -1, dtype=np.int64) for _ in range(3))
    targets[row, head] = np.array([answer_vocab.id_of(q.answer) for q in numbers],
                                  dtype=np.int64)[qid]
    qtypes[row, head], qids[row, head] = qtype, qid
    return EncodedDataset(ids=ids, targets=targets, mask=qids >= 0, qtypes=qtypes, qids=qids,
                          images=images, image_rows=image_rows, image_ids=image_ids,
                          tasks=tasks)


def encode_multitask(examples, tasks, vocab, answer_vocab, max_len, features):
    """One head per task; padded slots get all-padding ids and mask False."""
    return _encode(examples, [ex.slots for ex in examples], len(tasks), tasks,
                   vocab, answer_vocab, max_len, features)


def encode_single(singles, tasks, vocab, answer_vocab, max_len, features):
    """One head total; the slot's question type varies per example."""
    return _encode(singles, [(s,) for s in singles], 1, tasks, vocab, answer_vocab,
                   max_len, features)
