"""Line-oriented text formats for the intermediate datasets.

Every file starts with a schema-version header, then one record per line
with tab-separated fields, so each pipeline stage is inspectable and
diffable.
"""

from __future__ import annotations

from ..errors import FormatError, open_text
from .qtypes import parse_qtype
from .types import LabeledQuestion, MultiTaskExample

_LABELED_MAGIC = "mtvqa-labeled v1"
_MULTI_MAGIC = "mtvqa-multitask v1"
_SINGLE_MAGIC = "mtvqa-single v1"


def write_labeled(path, questions):
    _write_records(path, _LABELED_MAGIC, questions)


def read_labeled(path):
    return _read_records(path, _LABELED_MAGIC)


def write_single(path, singles):
    _write_records(path, _SINGLE_MAGIC, singles)


def read_single(path):
    return _read_records(path, _SINGLE_MAGIC)


def _write_records(path, magic, records):
    """One question per line: image id, type, answer, space-joined tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(magic + "\n")
        for r in records:
            fh.write(f"{r.image_id}\t{r.qtype.value}\t{r.answer}\t{' '.join(r.tokens)}\n")


def _read_records(path, magic):
    with open_text(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != magic:
        raise FormatError(f"{path}: missing header {magic!r}")
    out = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 fields, found {len(parts)}")
        image_id, qtype, answer, tokens = parts
        tokens = tuple(tokens.split())
        if not tokens:
            # a written combined file would read an empty question as a padded slot
            raise FormatError(f"{path}:{lineno}: question has no tokens")
        if not answer.strip():  # nor could it read back a blank answer
            raise FormatError(f"{path}:{lineno}: blank answer")
        out.append(LabeledQuestion(image_id=image_id, qtype=parse_qtype(qtype),
                                   tokens=tokens, answer=answer))
    return out


def write_multitask(path, examples, tasks):
    """Per line: image id, then a tokens field and an answer field per task.

    Both fields are empty for a padded slot (question tokens are never
    empty, so emptiness encodes the mask exactly).
    """
    tasks = tuple(tasks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MULTI_MAGIC + " " + ",".join(t.value for t in tasks) + "\n")
        for ex in examples:
            fields = [ex.image_id]
            for t in tasks:
                q = ex.slot(t)
                fields.extend(["", ""] if q is None else [" ".join(q.tokens), q.answer])
            fh.write("\t".join(fields) + "\n")


def read_multitask(path):
    """Returns (examples, tasks); a header that repeats a task raises `FormatError`."""
    with open_text(path) as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith(_MULTI_MAGIC):
        raise FormatError(f"{path}: missing multitask header")
    tasks = tuple(parse_qtype(t) for t in raw[0][len(_MULTI_MAGIC):].strip().split(","))
    repeated = [t for i, t in enumerate(tasks) if t in tasks[:i]]
    if repeated:
        raise FormatError(f"{path}: header repeats question type {repeated[0].value}")
    examples = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + 2 * len(tasks):
            raise FormatError(
                f"{path}:{lineno}: expected {1 + 2 * len(tasks)} fields, found {len(parts)}")
        fields = list(zip(tasks, parts[1::2], parts[2::2]))
        for t, tokens, answer in fields:  # a padded slot has neither field
            if (tokens or answer) and not (tokens.split() and answer.strip()):
                raise FormatError(f"{path}:{lineno}: {t.value} slot needs question tokens "
                                  f"and an answer, or neither")
        slots = tuple(LabeledQuestion(parts[0], tuple(tokens.split()), answer, t)
                      for t, tokens, answer in fields if tokens)
        if not slots:
            raise FormatError(f"{path}:{lineno}: example has no filled slot")
        examples.append(MultiTaskExample(slots))
    return examples, tasks


def write_rejections(path, rejected):
    with open(path, "w", encoding="utf-8") as fh:
        for q in rejected:
            fh.write(f"{q.image_id}\tno keyword matched\t{' '.join(q.tokens)}\n")


def write_audit(path, sample):
    with open(path, "w", encoding="utf-8") as fh:
        for q in sample:
            fh.write(f"{q.qtype.value}\t{q.image_id}\t{q.answer}\t{' '.join(q.tokens)}\n")

