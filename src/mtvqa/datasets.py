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


def _encode(examples, records, n_heads, tasks, vocab, answer_vocab, max_len, features):
    """The dense layout of `examples`, where `records[i]` holds example i's
    question records: each on head `tasks.index(q.qtype)` when there are
    several heads, else on head 0.  A type outside `tasks` raises `ConfigError`."""
    tasks = tuple(tasks)
    n = len(examples)
    ids = np.zeros((n, n_heads, max_len), dtype=np.int64)
    targets = np.full((n, n_heads), -1, dtype=np.int64)
    mask = np.zeros((n, n_heads), dtype=bool)
    qtypes = np.full((n, n_heads), -1, dtype=np.int64)
    qids = np.full((n, n_heads), -1, dtype=np.int64)
    images = features.rows([ex.image_id for ex in examples])
    codes = {}  # token tuple -> ids: the combined format repeats each question
    numbers = {}  # question record -> its index in `qids`
    for i, slots in enumerate(records):
        for q in slots:
            if q.qtype not in tasks:
                raise ConfigError(f"question type {q.qtype} is not in the task set "
                                  f"({', '.join(map(str, tasks))})")
            t = tasks.index(q.qtype)
            k = t if n_heads > 1 else 0
            if q.tokens not in codes:
                codes[q.tokens] = encode(q.tokens, vocab, max_len)
            ids[i, k] = codes[q.tokens]
            targets[i, k] = answer_vocab.id_of(q.answer)
            mask[i, k] = True
            qtypes[i, k] = t
            qids[i, k] = numbers.setdefault(q, len(numbers))
    return EncodedDataset(ids=ids, targets=targets, mask=mask, qtypes=qtypes, qids=qids,
                          images=images, image_ids=tuple(ex.image_id for ex in examples),
                          tasks=tasks)


def encode_multitask(examples, tasks, vocab, answer_vocab, max_len, features):
    """One head per task; padded slots get all-padding ids and mask False."""
    return _encode(examples, [ex.slots for ex in examples], len(tasks), tasks,
                   vocab, answer_vocab, max_len, features)


def encode_single(singles, tasks, vocab, answer_vocab, max_len, features):
    """One head total; the slot's question type varies per example."""
    return _encode(singles, [(s,) for s in singles], 1, tasks, vocab, answer_vocab,
                   max_len, features)
