"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems exit 2, data
format/integrity problems exit 3, runtime/training failures exit 4. Every
reader of a file parses inside reading(path), which turns bytes that are not
UTF-8, and content the parse refuses, into the error of that file's kind
(DataFormatError, or ConfigError for a config) naming the file.
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
def reading(path, error: type[StancekitError] = DataFormatError) -> Iterator[None]:
    """Parse what is read from the file at path in the block: bytes that are
    not UTF-8, or content its parse refuses (a ValueError, KeyError,
    TypeError or AttributeError, or a spec's ConfigError), raise error naming
    the file. Bad input is not a fault; other StancekitErrors pass unchanged."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text "
                    f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except KeyError as exc:
        raise error(f"{path}: missing {exc}") from None
    except (ValueError, TypeError, AttributeError, ConfigError) as exc:
        raise error(f"{path}: {exc}") from None


def read_envelope(path, fmt: str) -> dict:
    """The JSON object in the UTF-8 file at path whose "format" is fmt at
    "version" 1, an integer; anything else raises DataFormatError naming the file."""
    with open(path, encoding="utf-8") as handle, reading(path):
        data = json.load(handle)
    if not (isinstance(data, dict) and data.get("format") == fmt
            and type(data.get("version")) is int and data["version"] == 1):
        raise DataFormatError(f"{path}: not a {fmt} file at version 1")
    return data
