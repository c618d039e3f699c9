"""Seeded synthetic scenes: a desk-scale stand-in for the real corpora.

Each image is a small scene of objects with a noun, a colour, a grid cell,
a size and a multiplicity.  Questions are templated per type and their
answers are functions of the scene, and the image feature vector is an
indicator encoding of every object attribute (plus optional Gaussian
noise), so with zero noise every question is answerable from the features
alone.  Question types occur with deliberately unequal frequencies,
mirroring the imbalance of real corpora (this is what makes a single
shared answer head suffer from inter-task interference).  Every image
still gets questions in at least two types, so the combined reformatting
drops nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .features import FeatureStore
from .qtypes import ALL_TYPES, QuestionType
from .types import LabeledQuestion

_NOUNS = ("ball", "box", "chair", "table", "lamp", "book", "cup", "plant")
_COLOURS = ("red", "green", "blue", "yellow", "white", "black")
_SIZES = ("small", "large")

# per-image inclusion probability of each question type
_TYPE_WEIGHTS = {
    QuestionType.OBJECT: 0.8,
    QuestionType.COLOUR: 1.0,
    QuestionType.COUNT: 0.55,
    QuestionType.POSITION: 0.4,
    QuestionType.SIZE: 0.25,
}


@dataclass(frozen=True)
class SyntheticSceneConfig:
    num_images: int
    nouns: tuple = _NOUNS
    colours: tuple = _COLOURS
    grid_size: int = 2
    sizes: tuple = _SIZES
    max_count: int = 3
    noise_std: float = 0.0
    seed: int = 0
    max_objects: int = 3  # objects per scene (distinct nouns and colours)

    def validate(self):
        if self.num_images < 1:
            raise ConfigError("num_images must be >= 1")
        if not self.nouns or not self.colours or not self.sizes:
            raise ConfigError("nouns, colours and sizes must be non-empty")
        if self.grid_size < 1 or self.max_count < 1:
            raise ConfigError("grid_size and max_count must be >= 1")
        if self.max_objects < 1:
            raise ConfigError("max_objects must be >= 1")
        if not 0.0 <= self.noise_std < np.inf:  # NaN fails every comparison
            raise ConfigError("noise_std must be finite and >= 0")


def _cell_label(cell, grid):
    return f"r{cell // grid}c{cell % grid}"


def gen_synthetic_corpus(cfg):
    """Generate (labeled questions, feature store), deterministic in the seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_cells = cfg.grid_size * cfg.grid_size
    block = 1 + len(cfg.colours) + n_cells + len(cfg.sizes) + cfg.max_count
    dim = len(cfg.nouns) * block

    # offsets in a noun's block of its indicator, colour, cell, size and count (from 1)
    offsets = (0, 1, 1 + len(cfg.colours), 1 + len(cfg.colours) + n_cells,
               len(cfg.colours) + n_cells + len(cfg.sizes))

    questions = []
    vectors = {}
    max_objects = min(cfg.max_objects, len(cfg.nouns), len(cfg.colours))
    for i in range(cfg.num_images):
        image_id = f"img{i:05d}"
        n_obj = 1 + int(rng.integers(0, max_objects))
        noun_idx = rng.choice(len(cfg.nouns), size=n_obj, replace=False).tolist()
        colour_idx = rng.choice(len(cfg.colours), size=n_obj, replace=False).tolist()
        cells = rng.integers(0, n_cells, size=n_obj).tolist()
        size_idx = rng.integers(0, len(cfg.sizes), size=n_obj).tolist()
        counts = rng.integers(1, cfg.max_count + 1, size=n_obj).tolist()

        vec = np.zeros(dim, dtype=np.float64)
        vec[[k * block + off + v
             for k, *attrs in zip(noun_idx, colour_idx, cells, size_idx, counts)
             for off, v in zip(offsets, (0, *attrs))]] = 1.0
        if cfg.noise_std > 0:
            vec = vec + rng.normal(0.0, cfg.noise_std, size=dim)
        vectors[image_id] = vec

        chosen = [t for t in ALL_TYPES if rng.random() < _TYPE_WEIGHTS[t]]
        if len(chosen) < 2:
            rest = [t for t in ALL_TYPES if t not in chosen]
            wts = np.array([_TYPE_WEIGHTS[t] for t in rest])
            extra = rng.choice(len(rest), size=2 - len(chosen), replace=False,
                               p=wts / wts.sum())
            chosen = sorted(chosen + [rest[j] for j in extra.tolist()],
                            key=ALL_TYPES.index)
        for qtype in chosen:
            n_q = 1 + int(rng.integers(0, min(2, n_obj)))
            for o in rng.permutation(n_obj)[:n_q].tolist():
                noun = cfg.nouns[noun_idx[o]]
                colour = cfg.colours[colour_idx[o]]
                # templates share one surface structure, as natural questions do
                if qtype is QuestionType.OBJECT:
                    tokens = ("what", "thing", "is", "the", colour)
                    answer = noun
                elif qtype is QuestionType.COLOUR:
                    tokens = ("what", "colour", "is", "the", noun)
                    answer = colour
                elif qtype is QuestionType.COUNT:
                    tokens = ("how", "many", "of", "the", noun)
                    answer = str(counts[o])
                elif qtype is QuestionType.POSITION:
                    tokens = ("what", "position", "is", "the", noun)
                    answer = _cell_label(cells[o], cfg.grid_size)
                else:
                    tokens = ("what", "size", "is", "the", noun)
                    answer = cfg.sizes[size_idx[o]]
                questions.append(LabeledQuestion(image_id=image_id, tokens=tokens,
                                                 answer=answer, qtype=qtype))
    return questions, FeatureStore(vectors=vectors, feature_dim=dim)
