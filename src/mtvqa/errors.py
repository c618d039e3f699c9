"""Exception types shared across the toolkit, and the text opener every
reader uses so that undecodable bytes raise one of them."""

from contextlib import contextmanager


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
