"""Vocabulary construction, embedding loading and fixed-length encoding.

Id 0 is the padding id of the word vocabulary.  `encode` writes it for
padding positions and unknown words, and the engine's word lookup
(`autodiff.embedding`) reads it as an exactly-zero vector, so an absent or
empty question embeds to an exactly-zero input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import FormatError, open_text

PAD_ID = 0
PAD_TOKEN = "<pad>"


@dataclass
class Vocabulary:
    """Item to id in first-occurrence order; numbers words and answers alike."""
    token_to_id: dict = field(default_factory=dict)
    id_to_token: list = field(default_factory=list)

    @classmethod
    def of(cls, items):
        id_to_token = list(dict.fromkeys(items))
        return cls({t: i for i, t in enumerate(id_to_token)}, id_to_token)

    def __len__(self):
        return len(self.id_to_token)

    def id_of(self, token):
        """-1 for an item outside the vocabulary."""
        return self.token_to_id.get(token, -1)


def build_vocab(corpora):
    """The word vocabulary: padding is id 0, then each token of `corpora`
    in first-occurrence order."""
    return Vocabulary.of(chain([PAD_TOKEN], *corpora))


def _oov_row(rng, embed_dim):
    half = 0.5 / embed_dim
    return rng.uniform(-half, half, size=embed_dim)


def load_embeddings(path, vocab, embed_dim, seed=0):
    """The (vocab, embed_dim) table of pretrained vectors for
    in-vocabulary tokens from a text file.

    File lines are `<token> <v1> ... <v_embed_dim>`.  Tokens missing from
    the file get a seeded uniform(-0.5/dim, 0.5/dim) row; the padding row
    stays zero.  A value that is not a finite float raises `FormatError`.
    """
    found = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if token not in vocab.token_to_id:
                continue
            if len(vals) != embed_dim:
                raise FormatError(
                    f"{path}:{lineno}: expected {embed_dim} values, found {len(vals)}")
            try:
                found[token] = np.array(vals, dtype=np.float64)
                if not np.isfinite(found[token]).all():
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: token {token!r}: {exc}") from exc
    return _assemble(vocab, embed_dim, seed, found)


def random_embeddings(vocab, embed_dim, seed=0):
    """A (vocab, embed_dim) table with every non-padding row drawn like an
    OOV row."""
    return _assemble(vocab, embed_dim, seed, {})


def _assemble(vocab, embed_dim, seed, found):
    rng = np.random.default_rng(seed)
    table = np.zeros((len(vocab), embed_dim), dtype=np.float64)
    for idx in range(1, len(vocab)):
        token = vocab.id_to_token[idx]
        if token in found:
            table[idx] = found[token]
        else:
            table[idx] = _oov_row(rng, embed_dim)
    return table


def encode(tokens, vocab, max_len):
    """Ids of `tokens`, truncated or right-padded to exactly `max_len`.

    Unknown tokens map to the padding id.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids = np.zeros(max_len, dtype=np.int64)
    for i, tok in enumerate(tokens[:max_len]):
        ids[i] = vocab.token_to_id.get(tok, PAD_ID)
    return ids
