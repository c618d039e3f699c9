import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from mtvqa.corpus import (
    ALL_TYPES,
    FeatureStore,
    LabeledQuestion,
    MultiTaskExample,
    QuestionType,
    flatten_single_task,
    group_by_image,
    isolate_slots,
    reformat_multitask,
)
from mtvqa.corpus import io as cio
from mtvqa.datasets import encode_multitask, encode_single
from mtvqa.errors import ConfigError, FormatError
from mtvqa.harness import synthetic_bundle
from mtvqa.textenc import Vocabulary, build_vocab, encode

from helpers import encode_reference, question_ids_reference

C, N = QuestionType.COLOUR, QuestionType.COUNT
TASKS = (C, N)


@pytest.fixture
def setup():
    qs = [LabeledQuestion("a", ("what", "colour"), "red", C),
          LabeledQuestion("a", ("how", "many"), "2", N),
          LabeledQuestion("b", ("what", "colour", "again"), "blue", C),
          LabeledQuestion("b", ("how", "many", "again"), "3", N)]
    combined = reformat_multitask(group_by_image(qs), TASKS)
    vocab = build_vocab([q.tokens for q in qs])
    avocab = Vocabulary.of(q.answer for q in qs)
    features = FeatureStore(vectors={"a": np.array([1.0, 0.0]),
                                     "b": np.array([0.0, 1.0])}, feature_dim=2)
    return combined, vocab, avocab, features


def test_encode_multitask_layout(setup):
    combined, vocab, avocab, features = setup
    enc = encode_multitask(combined, TASKS, vocab, avocab, 4, features)
    assert enc.ids.shape == (2, 2, 4)
    assert enc.mask.all()
    npt.assert_array_equal(enc.qtypes, [[0, 1], [0, 1]])
    assert enc.targets[0, 0] == avocab.id_of("red")
    npt.assert_array_equal(enc.images[0], [1.0, 0.0])
    assert enc.image_ids == ("a", "b")


def test_encode_multitask_padded_slots(setup):
    combined, vocab, avocab, features = setup
    one_slot = [type(combined[0])((combined[0].slots[0],))]
    enc = encode_multitask(one_slot, TASKS, vocab, avocab, 4, features)
    assert enc.mask[0, 0] and not enc.mask[0, 1]
    assert enc.targets[0, 1] == -1
    assert enc.qtypes[0, 1] == -1
    npt.assert_array_equal(enc.ids[0, 1], np.zeros(4))


def test_each_row_holds_its_own_questions_encoding():
    qs = [LabeledQuestion("a", ("what", "colour", "is", "the", "cup"), "red", C),
          LabeledQuestion("a", ("what", "colour", "is", "the", "mat"), "blue", C),
          LabeledQuestion("a", ("how", "many"), "2", N),
          LabeledQuestion("a", ("how", "many", "zebras"), "4", N),
          LabeledQuestion("b", ("what", "colour", "is", "the", "cup"), "red", C),
          LabeledQuestion("b", ("how", "many", "zebras"), "0", N)]
    vocab = build_vocab([q.tokens for q in qs[:3]])  # "zebras" is unknown
    avocab = Vocabulary.of(q.answer for q in qs)
    features = FeatureStore(vectors={"a": np.zeros(2), "b": np.ones(2)}, feature_dim=2)
    combined = reformat_multitask(group_by_image(qs), TASKS)
    assert len(combined) == 5  # image a repeats each of its questions twice
    max_len = 4  # truncates the five-token questions
    enc = encode_multitask(combined, TASKS, vocab, avocab, max_len, features)
    for i, ex in enumerate(combined):
        for q in ex.slots:
            npt.assert_array_equal(enc.ids[i, TASKS.index(q.qtype)],
                                   encode(q.tokens, vocab, max_len))
    singles = flatten_single_task(combined)
    enc = encode_single(singles, TASKS, vocab, avocab, max_len, features)
    for i, s in enumerate(singles):
        npt.assert_array_equal(enc.ids[i, 0], encode(s.tokens, vocab, max_len))


def test_encode_single_types_vary(setup):
    combined, vocab, avocab, features = setup
    singles = flatten_single_task(combined)
    enc = encode_single(singles, TASKS, vocab, avocab, 4, features)
    assert enc.ids.shape == (4, 1, 4)
    assert enc.mask.all()
    assert sorted(enc.qtypes[:, 0].tolist()) == [0, 0, 1, 1]


def test_unknown_answer_maps_to_minus_one(setup):
    combined, vocab, _, features = setup
    small = Vocabulary.of(["red"])
    enc = encode_multitask(combined, TASKS, vocab, small, 4, features)
    assert enc.targets[0, 0] == 0
    assert enc.targets[0, 1] == -1  # "2" unseen
    assert enc.mask[0, 1]  # still a filled slot, just never predictable


@pytest.mark.parametrize("single", [False, True])
def test_a_question_outside_the_task_set_raises(setup, single):
    combined, vocab, avocab, features = setup
    encoder, examples = ((encode_single, flatten_single_task(combined)) if single
                         else (encode_multitask, combined))
    with pytest.raises(ConfigError, match=r"count is not in the task set \(colour\)"):
        encoder(examples, (C,), vocab, avocab, 4, features)


def test_missing_feature_raises(setup):
    combined, vocab, avocab, _ = setup
    empty = FeatureStore(vectors={}, feature_dim=2)
    with pytest.raises(FormatError, match="missing"):
        encode_multitask(combined, TASKS, vocab, avocab, 4, empty)


@pytest.mark.parametrize("form", ["combined", "isolated"])
def test_qids_number_each_distinct_question_in_first_seen_order(form, tmp_path):
    bundle = synthetic_bundle(10, 6, seed=8)
    examples = bundle.test_combined
    if form == "isolated":
        examples = isolate_slots(examples)
    want = question_ids_reference(examples, bundle.tasks)
    assert want.max() + 1 < int((want >= 0).sum())  # some question fills several slots
    npt.assert_array_equal(bundle.encode_combined(examples).qids, want)
    path = tmp_path / "examples.tsv"
    cio.write_multitask(path, examples, bundle.tasks)
    read_back, _ = cio.read_multitask(path)
    npt.assert_array_equal(bundle.encode_combined(read_back).qids, want)


def test_qids_of_single_questions_are_the_row_numbers():
    bundle = synthetic_bundle(10, 6, seed=8)
    enc = bundle.encode_singles(flatten_single_task(bundle.test_combined))
    npt.assert_array_equal(enc.qids, np.arange(len(enc)).reshape(-1, 1))


def test_images_hold_each_image_once_and_image_rows_rebuild_the_feature_matrix():
    bundle = synthetic_bundle(10, 6, seed=8)
    enc = bundle.encode_combined(bundle.train_combined)
    assert len(enc.images) == len(set(enc.image_ids)) < len(enc)
    assert enc.image_rows.dtype == np.intp
    distinct = list(dict.fromkeys(enc.image_ids))
    assert enc.images.tobytes() == bundle.features.rows(distinct).tobytes()
    assert (enc.images[enc.image_rows].tobytes()
            == bundle.features.rows(list(enc.image_ids)).tobytes())


_WORDS = ("what", "colour", "is", "the", "cup", "mat", "many")
_ANSWERS = ("red", "blue", "2", "3")


@st.composite
def _encoding_case(draw):
    """Examples of repeated question records, with words and answers outside
    the vocabularies, questions longer than `max_len`, maybe one record of
    a type outside the task set, and maybe no examples."""
    tasks = draw(st.permutations(ALL_TYPES))[:draw(st.integers(1, 3))]
    record = st.builds(LabeledQuestion, image_id=st.sampled_from("abc"),
                       tokens=st.lists(st.sampled_from(_WORDS), max_size=7).map(tuple),
                       answer=st.sampled_from(_ANSWERS), qtype=st.sampled_from(tasks))
    pool = draw(st.lists(record, min_size=1, max_size=10))
    picks = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                          max_size=8))
    if picks and draw(st.integers(0, 3)) == 0:  # a stray type
        stray = next(t for t in ALL_TYPES if t not in tasks)
        picks[draw(st.integers(0, len(picks) - 1))].append(
            dataclasses.replace(pool[0], qtype=stray))
    # at most one record per type in an example, as the combined format holds
    examples = [MultiTaskExample(tuple({q.qtype: q for q in p}.values())) for p in picks]
    vocab = build_vocab([draw(st.lists(st.sampled_from(_WORDS), min_size=3, max_size=6,
                                       unique=True))])
    answer_vocab = Vocabulary.of(draw(st.lists(st.sampled_from(_ANSWERS), min_size=1,
                                               max_size=3, unique=True)))
    max_len = draw(st.integers(1, 6))
    return examples, tuple(tasks), vocab, answer_vocab, max_len


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_encoding_case(), st.booleans())
def test_encoding_matches_the_per_slot_reference_bit_for_bit(case, single):
    examples, tasks, vocab, answer_vocab, max_len = case
    rng = np.random.default_rng(0)
    features = FeatureStore({i: rng.normal(size=3) for i in "abc"}, feature_dim=3)
    if single:
        items = [q for ex in examples for q in ex.slots]  # repeats kept
        records, n_heads, encoder = [(q,) for q in items], 1, encode_single
    else:
        items, records, n_heads = examples, [ex.slots for ex in examples], len(tasks)
        encoder = encode_multitask
    try:
        want = encode_reference(items, records, n_heads, tasks, vocab, answer_vocab, max_len,
                                features)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            encoder(items, tasks, vocab, answer_vocab, max_len, features)
        return
    got = encoder(items, tasks, vocab, answer_vocab, max_len, features)
    have = dict(ids=got.ids, targets=got.targets, mask=got.mask, qtypes=got.qtypes,
                qids=got.qids, images=got.images[got.image_rows])
    for name, array in want.items():
        assert (have[name].dtype, have[name].shape) == (array.dtype, array.shape), name
        assert have[name].tobytes() == array.tobytes(), name
    assert got.image_ids == tuple(ex.image_id for ex in items)
