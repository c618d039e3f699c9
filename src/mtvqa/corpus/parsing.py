"""Readers for the two real question-corpus layouts."""

from __future__ import annotations

import re
import string
from pathlib import Path

from ..errors import FormatError, open_text
from .qtypes import QuestionType
from .types import LabeledQuestion, RawQuestion

_IMAGE_TOKEN = re.compile(r"^image\d+$")
_STRIP = string.punctuation

# type codes used by the four-file corpus layout
COCOQA_TYPE_CODES = {
    "0": QuestionType.OBJECT,
    "1": QuestionType.COUNT,
    "2": QuestionType.COLOUR,
    "3": QuestionType.POSITION,
}


def tokenize(text):
    """Lowercase, split on whitespace, strip terminal punctuation per token."""
    out = []
    for tok in text.lower().split():
        tok = tok.strip(_STRIP)
        if tok:
            out.append(tok)
    return tuple(out)


def parse_daquar(path):
    """Parse alternating question/answer lines.

    The question line carries the image as a token like `image123`.
    Multi-answer lines such as `knife,fork` stay one atomic label.
    """
    path = Path(path)
    numbered = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                numbered.append((lineno, line.strip()))
    if len(numbered) % 2 != 0:
        raise FormatError(
            f"{path}:{numbered[-1][0]}: dangling question line (odd number of non-blank lines)")
    questions = []
    for (q_lineno, q_line), (_, a_line) in zip(numbered[0::2], numbered[1::2]):
        tokens = tokenize(q_line)
        image_tokens = [t for t in tokens if _IMAGE_TOKEN.match(t)]
        if len(image_tokens) != 1:
            raise FormatError(
                f"{path}:{q_lineno}: expected exactly one image token, found {len(image_tokens)}")
        questions.append(RawQuestion(image_id=image_tokens[0], tokens=tokens,
                                     answer=a_line.strip().lower()))
    return questions


def parse_cocoqa(dirpath):
    """Parse the parallel questions/answers/img_ids/types file layout."""
    dirpath = Path(dirpath)
    names = ["questions.txt", "answers.txt", "img_ids.txt", "types.txt"]
    columns = []
    for name in names:
        with open_text(dirpath / name) as fh:
            columns.append(fh.read().splitlines())
    counts = {name: len(col) for name, col in zip(names, columns)}
    if len(set(counts.values())) != 1:
        detail = ", ".join(f"{n}={c}" for n, c in counts.items())
        raise FormatError(f"{dirpath}: parallel files have unequal line counts ({detail})")
    out = []
    for lineno, (q, a, img, code) in enumerate(zip(*columns), start=1):
        code = code.strip()
        if code not in COCOQA_TYPE_CODES:
            raise FormatError(f"{dirpath / 'types.txt'}:{lineno}: unknown type code {code!r}")
        tokens = tokenize(q)
        if not tokens:
            raise FormatError(f"{dirpath / 'questions.txt'}:{lineno}: question has no tokens")
        answer = a.strip().lower()
        if not answer:
            raise FormatError(f"{dirpath / 'answers.txt'}:{lineno}: blank answer")
        out.append(LabeledQuestion(image_id=img.strip(), tokens=tokens, answer=answer,
                                   qtype=COCOQA_TYPE_CODES[code]))
    return out
