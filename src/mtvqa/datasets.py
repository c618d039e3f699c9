"""Turning reformatted examples into the dense arrays the models consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .textenc import encode


@dataclass
class EncodedDataset:
    """Dense slot-per-head layout.

    ids: (n, heads, max_len) int64; targets/mask/qtypes/qids: (n, heads);
    images: (n, feature_dim).  `qtypes` holds indices into `tasks` (-1 on
    padded slots) so per-type accuracy can be reported even when one head
    serves every type.  `qids` numbers each slot's distinct question
    (LabeledQuestion record) in first-seen order, -1 on padded slots.
    """
    ids: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    qtypes: np.ndarray
    qids: np.ndarray
    images: np.ndarray
    image_ids: tuple
    tasks: tuple

    def __len__(self):
        return self.ids.shape[0]

    @property
    def n_heads(self):
        return self.ids.shape[1]


def _encode(examples, n_heads, slots_of, tasks, vocab, answer_vocab, max_len, features):
    """The dense layout of `examples`, whose slots `slots_of(example)` lists
    as (head, question record)."""
    n = len(examples)
    ids = np.zeros((n, n_heads, max_len), dtype=np.int64)
    targets = np.full((n, n_heads), -1, dtype=np.int64)
    mask = np.zeros((n, n_heads), dtype=bool)
    qtypes = np.full((n, n_heads), -1, dtype=np.int64)
    qids = np.full((n, n_heads), -1, dtype=np.int64)
    images = np.zeros((n, features.feature_dim), dtype=np.float64)
    features.require([ex.image_id for ex in examples])
    codes = {}  # token tuple -> ids: the combined format repeats each question
    numbers = {}  # question record -> its index in `qids`
    for i, ex in enumerate(examples):
        images[i] = features.get(ex.image_id)
        for k, q in slots_of(ex):
            if q.tokens not in codes:
                codes[q.tokens] = encode(q.tokens, vocab, max_len)
            ids[i, k] = codes[q.tokens]
            targets[i, k] = answer_vocab.id_of(q.answer)
            mask[i, k] = True
            qtypes[i, k] = tasks.index(q.qtype)
            qids[i, k] = numbers.setdefault(q, len(numbers))
    return EncodedDataset(ids=ids, targets=targets, mask=mask, qtypes=qtypes, qids=qids,
                          images=images, image_ids=tuple(ex.image_id for ex in examples),
                          tasks=tasks)


def encode_multitask(examples, tasks, vocab, answer_vocab, max_len, features):
    """One head per task; padded slots get all-padding ids and mask False."""
    tasks = tuple(tasks)

    def slots_of(ex):
        return [(tasks.index(q.qtype), q) for q in ex.slots if q.qtype in tasks]

    return _encode(examples, len(tasks), slots_of, tasks, vocab, answer_vocab, max_len,
                   features)


def encode_single(singles, tasks, vocab, answer_vocab, max_len, features):
    """One head total; the slot's question type varies per example."""
    tasks = tuple(tasks)

    def slots_of(s):
        if s.qtype not in tasks:
            raise ConfigError(f"question type {s.qtype} not in task set {tasks}")
        return [(0, s)]

    return _encode(singles, 1, slots_of, tasks, vocab, answer_vocab, max_len, features)
