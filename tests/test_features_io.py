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
    RawQuestion,
    load_features,
    reformat_multitask,
    group_by_image,
    save_features,
)
from mtvqa.corpus import io as cio
from mtvqa.errors import FormatError


def test_feature_text_round_trip(tmp_path):
    store = FeatureStore(vectors={"a": np.array([0.5, -1.25, 3.0]),
                                  "b": np.array([1e-9, 2.0, -0.125])},
                         feature_dim=3)
    path = tmp_path / "f.feat"
    save_features(path, store)
    loaded = load_features(path)
    assert loaded.feature_dim == 3
    assert len(loaded) == 2
    npt.assert_array_equal(loaded.rows(["b", "a"]), store.rows(["b", "a"]))


def test_feature_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    store = FeatureStore(vectors={f"img{i}": rng.normal(size=4) for i in range(5)},
                         feature_dim=4)
    path = tmp_path / "f.npz"
    save_features(path, store, binary=True)
    loaded = load_features(path)
    ids = list(store.vectors)
    npt.assert_array_equal(loaded.rows(ids), np.stack([store.vectors[k] for k in ids]))


def test_feature_two_records(tmp_path):
    path = tmp_path / "f.feat"
    path.write_text("mtvqa-feat v1 4\nimg1 1 2 3 4\nimg2 5 6 7 8\n")
    store = load_features(path)
    assert len(store) == 2 and store.feature_dim == 4


def test_feature_text_repeated_image_names_path_and_line(tmp_path):
    path = tmp_path / "f.feat"
    path.write_text("mtvqa-feat v1 2\nimg1 1 2\nimg2 3 4\nimg1 5 6\n")
    with pytest.raises(FormatError, match=r"f\.feat:4: image 'img1' is listed more than once"):
        load_features(path)


def test_feature_archive_repeated_image_names_it(tmp_path):
    path = tmp_path / "f.npz"
    with open(path, "wb") as fh:
        np.savez(fh, magic=np.array("mtvqa-feat v1"), dim=np.array(2),
                 ids=np.array(["img0", "img1", "img1"]), matrix=np.zeros((3, 2)))
    with pytest.raises(FormatError, match=r"f\.npz: image 'img1' is listed more than once"):
        load_features(path)


def test_feature_dim_mismatch_names_record(tmp_path):
    path = tmp_path / "f.feat"
    path.write_text("mtvqa-feat v1 4\nimg1 1 2 3 4\nimg2 5 6 7 8 9\n")
    with pytest.raises(FormatError, match="img2"):
        load_features(path)


def test_feature_non_numeric_value_names_path_and_line(tmp_path):
    path = tmp_path / "f.feat"
    path.write_text("mtvqa-feat v1 2\nimg0 1 2\nimg1 0.5 abc\n")
    with pytest.raises(FormatError, match=r"f\.feat:3: record 'img1'"):
        load_features(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_feature_text_non_finite_value_names_path_and_line(tmp_path, value):
    path = tmp_path / "f.feat"
    path.write_text(f"mtvqa-feat v1 2\nimg0 1 2\nimg1 0.5 {value}\n")
    with pytest.raises(FormatError, match=r"f\.feat:3: record 'img1': non-finite"):
        load_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_archive_non_finite_value_names_image(tmp_path, value):
    store = FeatureStore(vectors={"img0": np.zeros(2), "img1": np.array([0.5, value])},
                         feature_dim=2)
    path = tmp_path / "f.npz"
    save_features(path, store, binary=True)
    with pytest.raises(FormatError, match=r"f\.npz: image 'img1' has a non-finite value"):
        load_features(path)


@pytest.mark.parametrize("drop", ["magic", "dim", "ids", "matrix"])
def test_feature_archive_missing_member_names_path(tmp_path, drop):
    members = {"magic": np.array("mtvqa-feat v1"), "dim": np.array(2),
               "ids": np.array(["img0"]), "matrix": np.zeros((1, 2))}
    del members[drop]
    path = tmp_path / "f.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    with pytest.raises(FormatError, match=r"f\.npz: malformed feature archive"):
        load_features(path)


def test_feature_empty_file_errors(tmp_path):
    path = tmp_path / "f.feat"
    path.write_text("")
    with pytest.raises(FormatError):
        load_features(path)


def test_feature_require_missing_ids():
    store = FeatureStore(vectors={"a": np.zeros(2)}, feature_dim=2)
    with pytest.raises(FormatError, match="missing"):
        store.rows(["a", "zz"])


def _labeled(img, qtype, text, answer):
    return LabeledQuestion(image_id=img, tokens=tuple(text.split()),
                           answer=answer, qtype=qtype)


def test_labeled_round_trip(tmp_path):
    qs = [_labeled("a", QuestionType.COLOUR, "what colour is it", "red"),
          _labeled("b", QuestionType.COUNT, "how many", "2")]
    path = tmp_path / "labeled.tsv"
    cio.write_labeled(path, qs)
    assert cio.read_labeled(path) == qs


def test_multitask_round_trip_preserves_masks(tmp_path):
    tasks = (QuestionType.COLOUR, QuestionType.COUNT, QuestionType.SIZE)
    qs = [_labeled("a", QuestionType.COLOUR, "what colour", "red"),
          _labeled("a", QuestionType.COUNT, "how many", "2"),
          _labeled("b", QuestionType.COLOUR, "colour", "blue"),
          _labeled("b", QuestionType.SIZE, "size", "small")]
    examples = reformat_multitask(group_by_image(qs), tasks)
    path = tmp_path / "combined.tsv"
    cio.write_multitask(path, examples, tasks)
    loaded, loaded_tasks = cio.read_multitask(path)
    assert loaded_tasks == tasks
    assert loaded == examples


def test_multitask_header_required(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("nope\n")
    with pytest.raises(FormatError, match="header"):
        cio.read_multitask(path)


def test_multitask_header_repeating_a_task_names_it(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("mtvqa-multitask v1 colour,count,colour\nimg1\tred\tx\t\t\t\t\n")
    with pytest.raises(FormatError, match=r"x\.tsv: header repeats question type colour"):
        cio.read_multitask(path)


def test_single_round_trip(tmp_path):
    from mtvqa.corpus import flatten_single_task
    tasks = (QuestionType.COLOUR, QuestionType.COUNT)
    qs = [_labeled("a", QuestionType.COLOUR, "what colour", "red"),
          _labeled("a", QuestionType.COUNT, "how many", "2")]
    singles = flatten_single_task(reformat_multitask(group_by_image(qs), tasks))
    path = tmp_path / "single.tsv"
    cio.write_single(path, singles)
    assert cio.read_single(path) == singles


@pytest.mark.parametrize("magic, read", [("mtvqa-labeled v1", cio.read_labeled),
                                          ("mtvqa-single v1", cio.read_single)])
def test_record_of_no_tokens_names_the_line(tmp_path, magic, read):
    # written to a combined file, an empty question would read back as a padded slot
    path = tmp_path / "records.tsv"
    path.write_text(f"{magic}\na\tcolour\tred\twhat colour\nb\tcolour\tblue\t \n")
    with pytest.raises(FormatError, match=r"records\.tsv:3: question has no tokens"):
        read(path)


@pytest.mark.parametrize("answer", ["", " "], ids=["empty", "one_space"])
@pytest.mark.parametrize("magic, read", [("mtvqa-labeled v1", cio.read_labeled),
                                          ("mtvqa-single v1", cio.read_single)])
def test_record_of_blank_answer_names_the_line(tmp_path, magic, read, answer):
    # written to a combined file, a blank answer could not be read back
    path = tmp_path / "records.tsv"
    path.write_text(f"{magic}\na\tcolour\tred\twhat colour\nb\tcolour\t{answer}\twhat colour\n")
    with pytest.raises(FormatError, match=r"records\.tsv:3: blank answer"):
        read(path)


def test_rejection_log(tmp_path):
    rejected = [RawQuestion(image_id="image3", tokens=("which", "object"), answer="x")]
    path = tmp_path / "rejected.log"
    cio.write_rejections(path, rejected)
    text = path.read_text()
    assert "image3" in text and "no keyword matched" in text


def test_multitask_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("mtvqa-multitask v1 colour,count\nimg1\tonly one field\n")
    with pytest.raises(FormatError, match=":2"):
        cio.read_multitask(path)


def test_multitask_line_without_a_filled_slot_names_the_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("mtvqa-multitask v1 colour,count\nimg1\tred\tx\t\t\nimg2\t\t\t\t\n")
    with pytest.raises(FormatError, match=r"bad\.tsv:3: .*no filled slot"):
        cio.read_multitask(path)


@pytest.mark.parametrize("line", ["img1\t\tred\thow many\t2",
                                  "img1\t  \tred\thow many\t2",
                                  "img1\twhat colour\t\thow many\t2",
                                  "img1\twhat colour\t \thow many\t2"],
                         ids=["tokens_empty", "tokens_spaces_only", "answer_empty",
                              "answer_spaces_only"])
def test_multitask_slot_with_question_or_answer_alone_names_the_line(tmp_path, line):
    # a slot is padded only when both fields are empty; otherwise it needs
    # tokens and an answer
    path = tmp_path / "bad.tsv"
    path.write_text(f"mtvqa-multitask v1 colour,count\n{line}\n")
    with pytest.raises(FormatError, match=r"bad\.tsv:2: colour slot"):
        cio.read_multitask(path)


_WORDS = st.text("abcxyz019-'?", min_size=1, max_size=5)


@st.composite
def _multitask_examples(draw):
    tasks = tuple(draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1, max_size=4,
                                unique=True)))
    examples = []
    for _ in range(draw(st.integers(0, 6))):
        image_id = draw(_WORDS)
        filled = draw(st.lists(st.sampled_from(tasks), min_size=1, unique=True))
        examples.append(MultiTaskExample(tuple(
            LabeledQuestion(image_id, tuple(draw(st.lists(_WORDS, min_size=1, max_size=4))),
                            draw(_WORDS), t)
            for t in tasks if t in filled)))
    return examples, tasks


@settings(max_examples=60, deadline=None)
@given(_multitask_examples())
def test_multitask_write_read_round_trips(tmp_path_factory, case):
    examples, tasks = case
    path = tmp_path_factory.mktemp("rt") / "combined.tsv"
    cio.write_multitask(path, examples, tasks)
    loaded, loaded_tasks = cio.read_multitask(path)
    assert loaded_tasks == tasks
    assert loaded == examples
    assert [ex.image_id for ex in loaded] == [ex.image_id for ex in examples]
