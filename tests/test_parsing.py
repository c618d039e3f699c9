import pytest

from mtvqa.corpus import QuestionType, parse_cocoqa, parse_daquar
from mtvqa.corpus.parsing import tokenize
from mtvqa.errors import FormatError


def test_tokenize_strips_terminal_punctuation():
    assert tokenize("What is on the table?") == ("what", "is", "on", "the", "table")
    assert tokenize("hello , world !") == ("hello", "world")


def test_parse_daquar_pair(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what is on the table in the image1 ?\nknife,fork\n")
    qs = parse_daquar(path)
    assert len(qs) == 1
    assert qs[0].image_id == "image1"
    assert qs[0].tokens == ("what", "is", "on", "the", "table", "in", "the", "image1")
    assert qs[0].answer == "knife,fork"


def test_parse_daquar_empty_file(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("")
    assert parse_daquar(path) == []


def test_parse_daquar_skips_blank_lines(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("\nwhat colour is the chair in the image2 ?\n\nred\n\n")
    qs = parse_daquar(path)
    assert len(qs) == 1
    assert qs[0].image_id == "image2"


def test_parse_daquar_odd_line_count(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what is in the image1 ?\nchair\nwhat is in the image2 ?\n")
    with pytest.raises(FormatError, match=":3"):
        parse_daquar(path)


def test_parse_daquar_missing_image_token(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what is on the table ?\nknife\n")
    with pytest.raises(FormatError, match=":1"):
        parse_daquar(path)


def test_parse_daquar_two_image_tokens(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("compare image1 and image2 ?\nnothing\n")
    with pytest.raises(FormatError, match="exactly one image token"):
        parse_daquar(path)


def _write_cocoqa(dirpath, questions, answers, ids, types):
    (dirpath / "questions.txt").write_text("\n".join(questions) + ("\n" if questions else ""))
    (dirpath / "answers.txt").write_text("\n".join(answers) + ("\n" if answers else ""))
    (dirpath / "img_ids.txt").write_text("\n".join(ids) + ("\n" if ids else ""))
    (dirpath / "types.txt").write_text("\n".join(types) + ("\n" if types else ""))


def test_parse_cocoqa_lines_combine(tmp_path):
    _write_cocoqa(tmp_path, ["what is the color of the bus"], ["red"], ["17"], ["2"])
    qs = parse_cocoqa(tmp_path)
    assert len(qs) == 1
    assert qs[0].image_id == "17"
    assert qs[0].qtype is QuestionType.COLOUR
    assert qs[0].answer == "red"
    assert qs[0].tokens[0] == "what"


def test_parse_cocoqa_type_codes(tmp_path):
    _write_cocoqa(tmp_path,
                  ["q a", "q b", "q c", "q d"], ["a1", "a2", "a3", "a4"],
                  ["1", "2", "3", "4"], ["0", "1", "2", "3"])
    qs = parse_cocoqa(tmp_path)
    assert [q.qtype for q in qs] == [QuestionType.OBJECT, QuestionType.COUNT,
                                     QuestionType.COLOUR, QuestionType.POSITION]


def test_parse_cocoqa_empty_files(tmp_path):
    _write_cocoqa(tmp_path, [], [], [], [])
    assert parse_cocoqa(tmp_path) == []


def test_parse_cocoqa_unequal_counts_names_files(tmp_path):
    _write_cocoqa(tmp_path, ["q one", "q two"], ["a"], ["1"], ["0"])
    with pytest.raises(FormatError, match="questions.txt=2"):
        parse_cocoqa(tmp_path)


def test_parse_cocoqa_question_of_no_tokens_names_the_line(tmp_path):
    # "?" tokenizes to nothing; the question and its answer would vanish later
    _write_cocoqa(tmp_path, ["what colour is it", "?"], ["red", "blue"], ["1", "2"], ["2", "2"])
    with pytest.raises(FormatError, match=r"questions\.txt:2: question has no tokens"):
        parse_cocoqa(tmp_path)


@pytest.mark.parametrize("answer", ["", " "], ids=["empty", "one_space"])
def test_parse_cocoqa_blank_answer_names_the_line(tmp_path, answer):
    _write_cocoqa(tmp_path, ["what colour is it", "what colour is that"], ["red", answer],
                  ["1", "2"], ["2", "2"])
    with pytest.raises(FormatError, match=r"answers\.txt:2: blank answer"):
        parse_cocoqa(tmp_path)


def test_parse_cocoqa_unknown_type_code(tmp_path):
    _write_cocoqa(tmp_path, ["q"], ["a"], ["1"], ["7"])
    with pytest.raises(FormatError, match=":1"):
        parse_cocoqa(tmp_path)
