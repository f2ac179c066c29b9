"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems exit 2, data
format/integrity problems exit 3, runtime/training failures exit 4.
"""

import json
from contextlib import contextmanager
from typing import Iterator


class StancekitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StancekitError):
    """Invalid or inconsistent experiment configuration."""


class DataFormatError(StancekitError):
    """A data file does not match its expected format."""


class IntegrityError(StancekitError):
    """Cross-file referential integrity is violated (e.g. dangling body id)."""


class SolverBudgetError(StancekitError):
    """An iterative solver used up its iteration budget without converging."""


class TrainingDivergedError(StancekitError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


@contextmanager
def undecodable_as(error: type[StancekitError], path) -> Iterator[None]:
    """Turns a UnicodeDecodeError raised in the block into error, naming the
    file at path: a text input that is not UTF-8 is bad input, not a fault."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text "
                    f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def read_envelope(path, fmt: str) -> dict:
    """The JSON object in the UTF-8 file at path whose "format" is fmt at
    "version" 1; anything else raises DataFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle, undecodable_as(DataFormatError, path):
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not JSON ({exc})") from None
    if not isinstance(data, dict) or data.get("format") != fmt or data.get("version") != 1:
        raise DataFormatError(f"{path}: not a {fmt} file at version 1")
    return data
