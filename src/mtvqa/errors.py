"""Exception types shared across the toolkit, and the text and archive
openers every reader uses so that undecodable or damaged files raise one."""

import tokenize
import zipfile
from contextlib import contextmanager

import numpy as np


class MtvqaError(Exception):
    """Base class for all toolkit errors."""


class FormatError(MtvqaError):
    """A file or record does not match its documented format."""


class ConfigError(MtvqaError):
    """An invalid configuration value."""


class ShapeError(MtvqaError):
    """Tensor shapes inconsistent with the operator being applied."""


class TrainingError(MtvqaError):
    """Training aborted (non-finite loss, bad target, ...)."""


@contextmanager
def open_text(path):
    """`path` opened to read as UTF-8 text; bytes read inside the `with`
    block that do not decode raise `FormatError` naming `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def open_archive(path, what):
    """The members of the `.npz` archive at `path`; a file that is not one, or one that
    fails to read inside the `with` block, raises `FormatError` naming `path`."""
    if not zipfile.is_zipfile(path):
        raise FormatError(f"{path}: not a {what} archive")
    try:
        with np.load(path) as z:
            yield z
    # a bad member or `.npy` header, a damaged zip, or a zip feature zipfile lacks
    except (KeyError, ValueError, TypeError, AttributeError, tokenize.TokenError,
            zipfile.BadZipFile, EOFError, OSError, NotImplementedError, RuntimeError) as exc:
        raise FormatError(f"{path}: malformed {what} archive ({exc})") from exc
