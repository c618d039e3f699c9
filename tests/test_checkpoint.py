import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mtvqa.autodiff.checkpoint import load_checkpoint, save_checkpoint
from mtvqa.errors import FormatError


@pytest.fixture
def params():
    rng = np.random.default_rng(7)
    return {"layer.W": rng.normal(size=(3, 4)),
            "layer.b": rng.normal(size=4),
            "scalarish": rng.normal(size=(1,))}


def test_binary_round_trip_is_bit_exact(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config={"hidden": 4}, binary=True)
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"hidden": 4}
    assert list(loaded) == list(params)
    for name in params:
        npt.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_text_round_trip_is_exact(tmp_path, params):
    path = tmp_path / "model.txt"
    save_checkpoint(path, params, config={"note": "x"}, binary=False)
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"note": "x"}
    for name in params:
        npt.assert_array_equal(loaded[name], params[name])


def test_text_values_are_written_as_float64_hex_and_read_back_bit_exact(tmp_path):
    vals = np.array([-0.0, 5e-324, 1e16, 0.1, np.nan, np.inf, -np.inf, 1 / 3, -2.5e-300])
    path = tmp_path / "model.txt"
    save_checkpoint(path, {"v": vals.reshape(3, 3)}, binary=False)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mtvqa-ckpt v2 text 1"
    assert lines[2] == "v\t3 3\t" + vals.astype(">f8").tobytes().hex()
    loaded, _ = load_checkpoint(path)
    npt.assert_array_equal(loaded["v"].reshape(-1).view(np.int64), vals.view(np.int64))


def test_v1_text_checkpoint_loads_its_decimal_values_bit_exact(tmp_path):
    vals = np.array([-0.0, 5e-324, 1e16, 0.1, np.nan, np.inf, -np.inf, 1 / 3, -2.5e-300])
    path = tmp_path / "old.txt"
    path.write_text('mtvqa-ckpt v1 text 2\nconfig {"note": "x"}\n'
                    "v\t3 3\t" + " ".join(repr(float(v)) for v in vals) + "\n"
                    "s\t-\t0.5\n", encoding="utf-8")
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"note": "x"} and list(loaded) == ["v", "s"]
    assert loaded["v"].shape == (3, 3) and loaded["s"].shape == ()
    npt.assert_array_equal(loaded["v"].reshape(-1).view(np.int64), vals.view(np.int64))
    assert loaded["s"] == 0.5


def test_text_header_errors(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(FormatError, match="header"):
        load_checkpoint(path)


def test_truncated_text_checkpoint(tmp_path, params):
    path = tmp_path / "model.txt"
    save_checkpoint(path, params, binary=False)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)



# case -> (line, tab-separated field, edit of that field) on the saved text
TEXT_EDITS = {
    "value_short": (2, 2, lambda vals: vals[:-16]),
    "value_not_float": (3, 2, lambda vals: "zz" + vals[2:]),
    "value_odd_hex_length": (2, 2, lambda vals: vals[:-1]),
    "value_not_whole_float64": (2, 2, lambda vals: vals[:-2]),
    "header_unknown_version": (0, 0, lambda line: line.replace(" v2 ", " v3 ")),
    "dims_not_int": (2, 1, lambda dims: "3 four"),
    "dims_negative": (2, 1, lambda dims: "-1 4"),
    "config_not_json": (1, 0, lambda line: "config {not json"),
    "line_after_counted_parameters": (0, 0, lambda line: line.replace(" text 3", " text 2")),
}


@pytest.mark.parametrize("case", sorted(TEXT_EDITS))
def test_malformed_text_checkpoint_raises_format_error(case, tmp_path, params):
    row, field, edit = TEXT_EDITS[case]
    path = tmp_path / "model.txt"
    save_checkpoint(path, params, config={"note": "x"}, binary=False)
    lines = path.read_text().splitlines()
    fields = lines[row].split("\t")
    fields[field] = edit(fields[field])
    lines[row] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("case", ["meta_not_json", "member_missing", "truncated"])
def test_malformed_binary_checkpoint_raises_format_error(case, tmp_path, params):
    path = tmp_path / "model.ckpt"
    if case == "truncated":
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:200])
    else:  # the meta is bad JSON, or it names two arrays and the archive holds one
        meta = json.dumps({"version": 1, "names": ["a", "b"], "config": None})
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array("{not json" if case == "meta_not_json" else meta),
                     arr_0=np.zeros(2))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_checkpoint(path)


# parameter names as models spell them ("conv.shared.w2.W", "head.colour.b")
_NAMES = st.text("abcdefghijklmnopqrstuvwxyzWb0123456789.", min_size=1, max_size=12)
# every float64 bit pattern: -0.0, subnormals, +-inf, and NaNs of either sign with any payload
_NAN_BITS = st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
                      st.integers(0, 1), st.integers(1, 2**52 - 1))
_BITS = st.integers(0, 2**64 - 1) | _NAN_BITS
_ARRAYS = arrays(np.uint64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                 elements=_BITS).map(lambda a: a.view(np.float64))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_NAMES, _ARRAYS), max_size=5, unique_by=lambda t: t[0]), _JSON,
       st.booleans())
def test_round_trip_keeps_names_order_shapes_bits_and_config(tmp_path_factory, named, config,
                                                            binary):
    params = dict(named)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, params, config=config, binary=binary)
    loaded, cfg = load_checkpoint(path)
    assert cfg == config
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes(), name
