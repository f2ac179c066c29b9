"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems exit 2, data
format/integrity problems exit 3, runtime/training failures exit 4.
"""


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
