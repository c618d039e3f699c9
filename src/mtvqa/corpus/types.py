"""Record types for raw, labeled and reformatted questions."""

from __future__ import annotations

from dataclasses import dataclass, field

from .qtypes import QuestionType


@dataclass(frozen=True)
class RawQuestion:
    image_id: str
    tokens: tuple
    answer: str


@dataclass(frozen=True)
class LabeledQuestion:
    image_id: str
    tokens: tuple
    answer: str
    qtype: QuestionType


@dataclass
class ImageGroup:
    """All labeled questions of one image, bucketed by type."""
    image_id: str
    by_type: dict = field(default_factory=dict)

    def present_types(self, tasks):
        return tuple(t for t in tasks if self.by_type.get(t))


@dataclass(frozen=True)
class MultiTaskExample:
    """One image with up to one labeled question per task type.

    `slots` holds the image's LabeledQuestion records in task order, at
    least one and at most one per type; a type without one is a padded
    slot.  The mask is slot presence.
    """
    slots: tuple

    @property
    def image_id(self):
        return self.slots[0].image_id

    def slot(self, qtype):
        for q in self.slots:
            if q.qtype is qtype:
                return q
        return None

    def mask(self, tasks):
        filled = {q.qtype for q in self.slots}
        return tuple(t in filled for t in tasks)
