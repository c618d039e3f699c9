"""Question-type taxonomy and the priority-ordered keyword classifier."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources

from ..errors import ConfigError, FormatError, open_text


class QuestionType(str, Enum):
    OBJECT = "object"
    COLOUR = "colour"
    COUNT = "count"
    POSITION = "position"
    SIZE = "size"

    def __str__(self):
        return self.value


# canonical ordering used for slot layout and serialization
ALL_TYPES = (QuestionType.OBJECT, QuestionType.COLOUR, QuestionType.COUNT,
             QuestionType.POSITION, QuestionType.SIZE)

# native label sets of the two real corpora
COCOQA_TASKS = (QuestionType.OBJECT, QuestionType.COUNT, QuestionType.COLOUR,
                QuestionType.POSITION)
DAQUAR_TASKS = (QuestionType.SIZE, QuestionType.COUNT, QuestionType.POSITION,
                QuestionType.COLOUR)


def parse_qtype(text):
    try:
        return QuestionType(text.strip().lower())
    except ValueError as exc:
        raise FormatError(f"unknown question type {text!r}") from exc


@dataclass(frozen=True)
class KeywordConfig:
    """Ordered (type, keyword phrases) pairs; earlier entries win.

    Each keyword is a tuple of tokens so that multi-word phrases like
    "how many" match consecutive token runs.  Keyword sets must be pairwise
    disjoint.
    """

    entries: tuple

    def __post_init__(self):
        seen = {}
        for qtype, phrases in self.entries:
            for phrase in phrases:
                if phrase in seen and seen[phrase] is not qtype:
                    raise ConfigError(
                        f"keyword {' '.join(phrase)!r} appears under both "
                        f"{seen[phrase]} and {qtype}")
                seen[phrase] = qtype

    def priority(self):
        return tuple(qtype for qtype, _ in self.entries)


def _phrase(text):
    return tuple(text.strip().lower().split())


def classify_question(tokens, cfg):
    """First type in priority order with a keyword occurring in `tokens`.

    Returns None when nothing matches (the question is unclassified, which
    is a valid outcome rather than an error).
    """
    tokens = list(tokens)
    n = len(tokens)
    for qtype, phrases in cfg.entries:
        for phrase in phrases:
            k = len(phrase)
            if k == 1:
                if phrase[0] in tokens:
                    return qtype
            else:
                for i in range(n - k + 1):
                    if tuple(tokens[i:i + k]) == phrase:
                        return qtype
    return None


def label_corpus(raw, cfg):
    """Partition raw questions into classified and rejected, order kept."""
    from .types import LabeledQuestion  # local import to avoid a cycle

    labeled, rejected = [], []
    for q in raw:
        qtype = classify_question(q.tokens, cfg)
        if qtype is None:
            rejected.append(q)
        else:
            labeled.append(LabeledQuestion(image_id=q.image_id, tokens=q.tokens,
                                           answer=q.answer, qtype=qtype))
    return labeled, rejected


def audit_sample(labeled, seed=0, size=200):
    """A reproducible random sample of labeled questions for manual review."""
    import numpy as np

    k = min(size, len(labeled))
    if k == 0:
        return []
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(labeled), size=k, replace=False)
    idx.sort()
    return [labeled[int(i)] for i in idx]


def load_keyword_config(path):
    """Read `<type>: w1, w2, ...` lines; file order is priority order."""
    entries = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise FormatError(f"{path}:{lineno}: expected '<type>: w1, w2, ...'")
            head, tail = line.split(":", 1)
            qtype = parse_qtype(head)
            phrases = tuple(_phrase(w) for w in tail.split(",") if w.strip())
            if not phrases:
                raise FormatError(f"{path}:{lineno}: no keywords for {qtype}")
            entries.append((qtype, phrases))
    if not entries:
        raise FormatError(f"{path}: empty keyword config")
    return KeywordConfig(entries=tuple(entries))


def default_keyword_config():
    """The bundled size, count, position, colour priority list."""
    ref = resources.files("mtvqa").joinpath("data/keywords_daquar.txt")
    with resources.as_file(ref) as path:
        return load_keyword_config(path)
