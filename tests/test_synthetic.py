import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtvqa.corpus import (
    SyntheticSceneConfig,
    gen_synthetic_corpus,
    group_by_image,
    reformat_multitask,
    ALL_TYPES,
)
from mtvqa.errors import ConfigError

from helpers import synthetic_corpus_reference


def _serialize(questions, features):
    qpart = ";".join(f"{q.image_id}|{q.qtype.value}|{' '.join(q.tokens)}|{q.answer}"
                     for q in questions)
    fpart = ";".join(f"{k}:{v.tobytes().hex()}" for k, v in features.vectors.items())
    return qpart + "#" + fpart


def test_same_config_gives_byte_identical_corpora():
    cfg = SyntheticSceneConfig(num_images=20, noise_std=0.3, seed=5)
    a = _serialize(*gen_synthetic_corpus(cfg))
    b = _serialize(*gen_synthetic_corpus(cfg))
    assert a == b


def test_different_seed_differs():
    a = _serialize(*gen_synthetic_corpus(SyntheticSceneConfig(num_images=10, seed=1)))
    b = _serialize(*gen_synthetic_corpus(SyntheticSceneConfig(num_images=10, seed=2)))
    assert a != b


def test_every_image_has_at_least_two_types():
    questions, features = gen_synthetic_corpus(SyntheticSceneConfig(num_images=100, seed=3))
    by_image = {}
    for q in questions:
        by_image.setdefault(q.image_id, set()).add(q.qtype)
    assert len(by_image) == 100
    assert all(len(types) >= 2 for types in by_image.values())
    # so the combined reformatting drops nothing
    groups = group_by_image(questions)
    examples = reformat_multitask(groups, ALL_TYPES)
    assert {ex.image_id for ex in examples} == set(by_image)


def test_features_are_uniform_and_indicator_without_noise():
    questions, features = gen_synthetic_corpus(SyntheticSceneConfig(num_images=30, seed=4))
    dims = {v.shape for v in features.vectors.values()}
    assert dims == {(features.feature_dim,)}
    for v in features.vectors.values():
        assert set(np.unique(v)).issubset({0.0, 1.0})


def test_noise_perturbs_features():
    noisy = gen_synthetic_corpus(SyntheticSceneConfig(num_images=5, noise_std=0.5, seed=6))[1]
    values = np.concatenate(list(noisy.vectors.values()))
    assert not set(np.unique(values)).issubset({0.0, 1.0})


def test_answers_are_scene_consistent():
    # one question per (image, type, noun) target: repeated questions agree
    questions, _ = gen_synthetic_corpus(SyntheticSceneConfig(num_images=50, seed=7))
    seen = {}
    for q in questions:
        key = (q.image_id, q.qtype, q.tokens)
        assert seen.setdefault(key, q.answer) == q.answer


@pytest.mark.parametrize("kwargs", [
    dict(num_images=0),
    dict(num_images=1, nouns=()),
    dict(num_images=1, colours=()),
    dict(num_images=1, sizes=()),
    dict(num_images=1, noise_std=-0.1),
    dict(num_images=1, noise_std=float("nan")),
    dict(num_images=1, noise_std=float("inf")),
    dict(num_images=1, grid_size=0),
    dict(num_images=1, max_count=0),
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        gen_synthetic_corpus(SyntheticSceneConfig(**kwargs))


def _names(prefix):
    """A short vocabulary of distinct names."""
    return st.lists(st.sampled_from([f"{prefix}{k}" for k in range(5)]), min_size=1,
                    max_size=5, unique=True).map(tuple)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.builds(SyntheticSceneConfig, num_images=st.integers(1, 12),
                 nouns=_names("n"), colours=_names("c"), grid_size=st.integers(1, 3),
                 sizes=_names("s"), max_count=st.integers(1, 4),
                 noise_std=st.sampled_from([0.0, 0.05, 0.4]),
                 seed=st.integers(0, 2 ** 32 - 1), max_objects=st.integers(1, 6)))
def test_corpus_matches_the_per_scene_reference_bit_for_bit(cfg):
    got = _serialize(*gen_synthetic_corpus(cfg))
    assert got == _serialize(*synthetic_corpus_reference(cfg))
