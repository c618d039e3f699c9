"""Both `.npz` readers raise `FormatError` naming the file when the zip
structure or a `.npy` member of their archive is damaged."""

import io
import re
import struct
import zipfile

import numpy as np
import pytest

from mtvqa.autodiff.checkpoint import load_checkpoint, save_checkpoint
from mtvqa.corpus import FeatureStore, load_features, save_features
from mtvqa.errors import FormatError


def _write_features(path):
    store = FeatureStore({f"img{i:05d}": np.arange(4.0) + i for i in range(5)}, feature_dim=4)
    save_features(path, store, binary=True)


def _write_checkpoint(path):
    save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(3)}, config={"hidden": 3},
                    binary=True)


READERS = {"features": (_write_features, load_features),
           "checkpoint": (_write_checkpoint, load_checkpoint)}


def _end_record(data):
    """Offset of the end-of-central-directory record."""
    return data.rindex(b"PK\x05\x06")


def _central_directory(data):
    """Offset of the first central-directory header, as the end record gives it."""
    return struct.unpack_from("<I", data, _end_record(data) + 16)[0]


def _local_header(data):
    """Offset of the first member's local header."""
    with zipfile.ZipFile(io.BytesIO(data)) as z:
        return z.infolist()[0].header_offset


def _flip(field, bit):
    """Flip `bit` of the byte at `field(data)`."""
    def mutate(data):
        out = bytearray(data)
        out[field(data)] ^= 1 << bit
        return bytes(out)
    return mutate


def _unclosed_npy_header(data):
    """The archive rewritten, checksums included, with the `.npy` header
    dict of its first member left unclosed."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(out, "w") as dst:
        for k, info in enumerate(src.infolist()):
            member = src.read(info)
            dst.writestr(info, member.replace(b"}", b" ", 1) if k == 0 else member)
    return out.getvalue()


# each raised something other than `FormatError` once: EOFError,
# NotImplementedError, RuntimeError, OSError and tokenize.TokenError
MUTATIONS = {
    # the high byte of the local header's extra-field length (offset 28)
    "local_extra_length": _flip(lambda d: _local_header(d) + 29, 7),
    # the central header's version needed to extract (offset 6) and
    # general-purpose flags (offset 8, bit 0: encrypted)
    "central_version_needed": _flip(lambda d: _central_directory(d) + 6, 6),
    "central_encrypted_flag": _flip(lambda d: _central_directory(d) + 8, 0),
    # the second byte of the end record's central-directory offset (offset 16)
    "end_directory_offset": _flip(lambda d: _end_record(d) + 17, 7),
    "npy_header_unclosed": _unclosed_npy_header,
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("reader", READERS)
def test_damaged_archive_raises_format_error_naming_the_file(tmp_path, reader, mutation):
    write, load = READERS[reader]
    path = tmp_path / "archive.npz"
    write(path)
    load(path)  # the undamaged archive reads
    path.write_bytes(MUTATIONS[mutation](path.read_bytes()))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load(path)
