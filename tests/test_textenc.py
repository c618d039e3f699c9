import numpy as np
import numpy.testing as npt
import pytest

from mtvqa.errors import FormatError
from mtvqa.textenc import (
    PAD_ID,
    build_vocab,
    encode,
    load_embeddings,
    random_embeddings,
)


def test_build_vocab_first_occurrence_order():
    vocab = build_vocab([["a", "b", "a"]])
    assert vocab.token_to_id == {"<pad>": 0, "a": 1, "b": 2}


def test_build_vocab_empty():
    vocab = build_vocab([])
    assert len(vocab) == 1
    assert vocab.id_of("anything") == -1
    npt.assert_array_equal(encode(["anything"], vocab, 2), [PAD_ID, PAD_ID])


def test_build_vocab_deterministic():
    corpora = [["x", "y"], ["z", "x"]]
    assert build_vocab(corpora).token_to_id == build_vocab(corpora).token_to_id


def test_encode_pads_and_truncates():
    vocab = build_vocab([["a", "b"]])
    npt.assert_array_equal(encode(["a", "b"], vocab, 4), [1, 2, 0, 0])
    npt.assert_array_equal(encode([], vocab, 4), [0, 0, 0, 0])
    six = ["a", "b", "a", "b", "a", "b"]
    npt.assert_array_equal(encode(six, vocab, 4), [1, 2, 1, 2])


def test_encode_unknown_tokens_map_to_pad():
    vocab = build_vocab([["a"]])
    npt.assert_array_equal(encode(["mystery", "a"], vocab, 3), [0, 1, 0])


def test_decode_recovers_up_to_truncation_and_oov():
    vocab = build_vocab([["a", "b", "c"]])
    tokens = ["a", "c", "b"]
    ids = encode(tokens, vocab, 5)
    assert [vocab.id_to_token[int(i)] for i in ids if i != PAD_ID] == tokens


def test_load_embeddings_copies_file_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 0.25 -1.5 3.0\nzz 1 2 3\n")
    vocab = build_vocab([["a", "b"]])
    table = load_embeddings(path, vocab, 3, seed=0)
    npt.assert_array_equal(table[1], [0.25, -1.5, 3.0])
    # padding row zero, OOV row inside the documented range
    npt.assert_array_equal(table[0], np.zeros(3))
    assert np.all(np.abs(table[2]) <= 0.5 / 3)
    assert np.any(table[2] != 0)


def test_oov_rows_are_seed_deterministic(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 1 1\n")
    vocab = build_vocab([["a", "b", "c"]])
    t1 = load_embeddings(path, vocab, 3, seed=9)
    t2 = load_embeddings(path, vocab, 3, seed=9)
    npt.assert_array_equal(t1, t2)
    t3 = load_embeddings(path, vocab, 3, seed=10)
    assert np.any(t3[2] != t1[2])


def test_dimension_mismatch_reports_line(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 2 3\nb 1 2\n")
    vocab = build_vocab([["a", "b"]])
    with pytest.raises(FormatError, match=":2"):
        load_embeddings(path, vocab, 3)


def test_non_numeric_value_reports_line(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 2\nred 0.5 abc\n")
    vocab = build_vocab([["a", "red"]])
    with pytest.raises(FormatError, match=":2: token 'red'"):
        load_embeddings(path, vocab, 2)


def test_non_finite_value_reports_line(tmp_path):
    path = tmp_path / "vectors.txt"
    vocab = build_vocab([["red", "blue"]])
    path.write_text("red nan 1\nblue 1 inf\n")
    with pytest.raises(FormatError, match=":1: token 'red': non-finite value"):
        load_embeddings(path, vocab, 2)
    path.write_text("red 0.5 1\nblue 1 inf\n")
    with pytest.raises(FormatError, match=":2: token 'blue': non-finite value"):
        load_embeddings(path, vocab, 2)


def test_random_embeddings_pad_zero_and_range():
    vocab = build_vocab([["a", "b"]])
    table = random_embeddings(vocab, 4, seed=2)
    npt.assert_array_equal(table[0], np.zeros(4))
    assert np.all(np.abs(table[1:]) <= 0.5 / 4)


def test_encode_requires_positive_max_len():
    vocab = build_vocab([["a"]])
    with pytest.raises(ValueError):
        encode(["a"], vocab, 0)
