import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtvqa.corpus import (
    ALL_TYPES,
    LabeledQuestion,
    QuestionType,
    corpus_stats,
    flatten_single_task,
    group_by_image,
    isolate_slots,
    reformat_multitask,
)
from mtvqa.errors import ConfigError

C, N, P, S = (QuestionType.COLOUR, QuestionType.COUNT,
              QuestionType.POSITION, QuestionType.SIZE)


def q(img, qtype, text, answer):
    return LabeledQuestion(image_id=img, tokens=tuple(text.split()), answer=answer,
                           qtype=qtype)


def brute_force_expected_count(group, tasks):
    """Independent oracle: count combinations by explicit recursion."""
    pools = [group.by_type[t] for t in tasks if group.by_type.get(t)]
    if len(pools) < 2:
        return 0

    def count(depth):
        if depth == len(pools):
            return 1
        return sum(count(depth + 1) for _ in pools[depth])

    return count(0)


def test_group_by_image_sorted_and_order_preserving():
    qs = [q("b", C, "what colour", "red"), q("a", N, "how many", "2"),
          q("b", C, "what colour two", "blue")]
    groups = group_by_image(qs)
    assert [g.image_id for g in groups] == ["a", "b"]
    assert [x.answer for x in groups[1].by_type[C]] == ["red", "blue"]


def test_group_by_image_keeps_duplicates():
    dup = q("a", C, "what colour", "red")
    groups = group_by_image([dup, dup])
    assert len(groups[0].by_type[C]) == 2


def test_reformat_two_colour_one_count():
    qs = [q("a", C, "colour one", "red"), q("a", C, "colour two", "blue"),
          q("a", N, "how many", "2")]
    examples = reformat_multitask(group_by_image(qs), (C, N, P, S))
    assert len(examples) == 2
    for ex in examples:
        assert ex.mask((C, N, P, S)) == (True, True, False, False)
    assert {ex.slot(C).answer for ex in examples} == {"red", "blue"}
    assert all(ex.slot(N).answer == "2" for ex in examples)


def test_single_type_image_contributes_nothing():
    qs = [q("a", C, "colour one", "red"), q("a", C, "colour two", "blue")]
    assert reformat_multitask(group_by_image(qs), (C, N, P, S)) == []


def test_one_question_in_each_of_four_types():
    qs = [q("a", t, f"question {t.value}", "x") for t in (C, N, P, S)]
    examples = reformat_multitask(group_by_image(qs), (C, N, P, S))
    assert len(examples) == 1
    assert examples[0].mask((C, N, P, S)) == (True, True, True, True)


def test_counts_match_brute_force_oracle():
    rng = np.random.default_rng(13)
    tasks = (C, N, P, S)
    qs = []
    for i in range(30):
        img = f"img{i:03d}"
        for t in tasks:
            for k in range(int(rng.integers(0, 5))):
                qs.append(q(img, t, f"text {t.value} {k}", f"ans{k}"))
    groups = group_by_image(qs)
    examples = reformat_multitask(groups, tasks)
    per_image = {}
    for ex in examples:
        per_image[ex.image_id] = per_image.get(ex.image_id, 0) + 1
    for grp in groups:
        assert per_image.get(grp.image_id, 0) == brute_force_expected_count(grp, tasks)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=8))
def test_examples_per_image_are_the_product_of_its_type_counts(per_image_counts):
    # image i holds counts[j] questions of type j; it yields the product of
    # its nonzero counts when two or more types are present, else nothing
    tasks = (C, N, P, S)
    qs = [q(f"img{i:03d}", t, f"text {t.value} {k}", f"ans{k}")
          for i, counts in enumerate(per_image_counts)
          for t, n in zip(tasks, counts) for k in range(n)]
    examples = reformat_multitask(group_by_image(qs), tasks)
    for i, counts in enumerate(per_image_counts):
        present = [n for n in counts if n]
        want = math.prod(present) if len(present) >= 2 else 0
        assert sum(ex.image_id == f"img{i:03d}" for ex in examples) == want


def test_slot_multiset_equals_qualifying_questions():
    # deduplicated filled slots == the questions of qualifying images
    rng = np.random.default_rng(14)
    tasks = (C, N, P, S)
    qs = []
    for i in range(20):
        img = f"img{i:03d}"
        for t in tasks:
            for k in range(int(rng.integers(0, 3))):
                qs.append(q(img, t, f"text {t.value} {k} {img}", f"ans{k}"))
    groups = group_by_image(qs)
    examples = reformat_multitask(groups, tasks)
    qualifying = {g.image_id for g in groups if len(g.present_types(tasks)) >= 2}
    expected = {(x.image_id, x.qtype, x.tokens, x.answer)
                for x in qs if x.image_id in qualifying}
    seen = {(ex.image_id, x.qtype, x.tokens, x.answer) for ex in examples for x in ex.slots}
    assert seen == expected


def test_every_example_has_at_least_two_slots():
    rng = np.random.default_rng(15)
    qs = []
    for i in range(25):
        img = f"img{i:03d}"
        for t in ALL_TYPES:
            for k in range(int(rng.integers(0, 3))):
                qs.append(q(img, t, f"text {k}", f"a{k}"))
    for ex in reformat_multitask(group_by_image(qs), ALL_TYPES):
        assert len(ex.slots) >= 2
        mask = ex.mask(ALL_TYPES)
        assert sum(mask) == len(ex.slots)


def test_reformat_requires_two_tasks():
    with pytest.raises(ConfigError, match="at least two"):
        reformat_multitask([], (C,))


def test_reformat_rejects_a_repeated_task():
    groups = group_by_image([q("a", C, "what colour", "red"), q("a", N, "how many", "2")])
    with pytest.raises(ConfigError, match="colour is repeated"):
        reformat_multitask(groups, (C, N, C))


def test_flatten_matches_set_union_oracle():
    qs = [q("a", C, "colour one", "red"), q("a", C, "colour two", "blue"),
          q("a", N, "how many", "2")]
    examples = reformat_multitask(group_by_image(qs), (C, N, P, S))
    singles = flatten_single_task(examples)
    assert len(singles) == 3  # count question deduplicated across the two examples
    expected = {(x.image_id, x.qtype, x.tokens, x.answer) for x in qs}
    assert {(s.image_id, s.qtype, s.tokens, s.answer) for s in singles} == expected


def test_flatten_empty_and_single_example():
    assert flatten_single_task([]) == []
    qs = [q("a", C, "c", "red"), q("a", N, "n", "2")]
    examples = reformat_multitask(group_by_image(qs), (C, N))
    assert len(flatten_single_task(examples)) == 2


def test_flatten_excludes_disqualified_images():
    qs = [q("a", C, "c", "red"), q("a", N, "n", "2"), q("b", C, "only colour", "blue")]
    examples = reformat_multitask(group_by_image(qs), (C, N, P, S))
    singles = flatten_single_task(examples)
    assert all(s.image_id == "a" for s in singles)


def test_isolate_slot_counts_and_idempotence():
    rng = np.random.default_rng(16)
    qs = []
    for i in range(15):
        img = f"img{i:03d}"
        for t in ALL_TYPES:
            if rng.integers(0, 2):
                qs.append(q(img, t, f"text {t.value}", "a"))
    examples = reformat_multitask(group_by_image(qs), ALL_TYPES)
    isolated = isolate_slots(examples)
    assert len(isolated) == sum(len(ex.slots) for ex in examples)
    assert all(len(ex.slots) == 1 for ex in isolated)
    again = isolate_slots(isolated)
    assert again == isolated


def test_corpus_stats():
    qs = [q("a", C, "c", "red"), q("a", N, "n", "2"), q("b", C, "c2", "red"),
          q("b", S, "s", "small")]
    examples = reformat_multitask(group_by_image(qs), (C, N, P, S))
    stats = corpus_stats(examples)
    assert stats.n_examples == 2
    assert stats.n_images == 2
    assert stats.slots_per_type[C] == 2
    assert stats.answer_vocab_size == 3  # red, 2, small


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats.n_examples == 0
    assert stats.n_images == 0
    assert stats.slots_per_type == {}
    assert stats.answer_vocab_size == 0
