"""Reshaping labeled questions into the combined, single and isolated forms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import ConfigError
from .types import ImageGroup, MultiTaskExample


def group_by_image(questions):
    """One group per distinct image id, sorted by id; question order kept."""
    groups = {}  # image id -> type -> questions
    for q in questions:
        groups.setdefault(q.image_id, {}).setdefault(q.qtype, []).append(q)
    return [ImageGroup(image_id=k, by_type=groups[k]) for k in sorted(groups)]


def reformat_multitask(groups, tasks):
    """Cartesian product of questions over each image's present types.

    Images with questions in fewer than two distinct types contribute
    nothing; types a given image lacks are left as padded slots.  The
    per-image example count is the product of the per-present-type question
    counts.  A task set of fewer than two types, or one that repeats a
    type, raises `ConfigError`.
    """
    tasks = tuple(tasks)
    repeated = [t for i, t in enumerate(tasks) if t in tasks[:i]]
    if repeated:
        raise ConfigError(f"question type {repeated[0].value} is repeated in the task set")
    if len(tasks) < 2:
        raise ConfigError("a multi-task set needs at least two question types")
    examples = []
    for grp in groups:
        present = grp.present_types(tasks)
        if len(present) < 2:
            continue
        for combo in itertools.product(*(grp.by_type[t] for t in present)):
            examples.append(MultiTaskExample(combo))
    return examples


def flatten_single_task(examples):
    """The distinct filled slots, in first-seen order: each one is a
    single-task example."""
    return list(dict.fromkeys(q for ex in examples for q in ex.slots))


def isolate_slots(examples):
    """One copy per filled slot, with every other slot padded."""
    out = []
    for ex in examples:
        for q in ex.slots:
            out.append(MultiTaskExample((q,)))
    return out


@dataclass
class CorpusStats:
    n_examples: int = 0
    n_images: int = 0
    slots_per_type: dict = field(default_factory=dict)
    answer_vocab_size: int = 0

    def lines(self):
        rows = [f"examples: {self.n_examples}",
                f"images: {self.n_images}",
                f"answer vocabulary: {self.answer_vocab_size}"]
        for t, n in self.slots_per_type.items():
            rows.append(f"slots[{t}]: {n}")
        return rows


def corpus_stats(examples):
    images = set()
    answers = set()
    per_type = {}
    for ex in examples:
        images.add(ex.image_id)
        for q in ex.slots:
            per_type[q.qtype] = per_type.get(q.qtype, 0) + 1
            answers.add(q.answer)
    per_type = {t: per_type[t] for t in sorted(per_type, key=lambda q: q.value)}
    return CorpusStats(n_examples=len(examples), n_images=len(images),
                       slots_per_type=per_type, answer_vocab_size=len(answers))
