"""Exception taxonomy shared across the package.

ValidationError subclasses signal bad user input (CLI exit code 1);
everything else is a runtime failure (exit code 2).
"""


class MinivlaError(Exception):
    """Base class for all package errors."""


class ValidationError(MinivlaError):
    """Malformed user input: config files, flags, requests."""


class ConfigError(ValidationError):
    """Unknown or ill-typed configuration key."""


class ConfigRangeError(ConfigError):
    """Configuration value outside its legal range."""


class EmptyInstructionError(ValidationError):
    """The instruction text is empty or whitespace-only."""


class DimensionError(MinivlaError):
    """Array extents do not agree for the requested operation."""


class NumericInputError(MinivlaError):
    """Non-finite values where finite numbers are required."""


class ContractError(MinivlaError):
    """An operation precondition was violated."""


class DeterminismError(MinivlaError):
    """Two evaluations that must agree bitwise did not."""


class DegenerateRangeError(MinivlaError):
    """Depth statistics with zero range or non-positive spread."""


class TaskError(MinivlaError):
    """Task descriptor cannot be resolved against the scene."""


class DivergedTrainingError(MinivlaError):
    """Loss or gradients became non-finite during training."""


class CorruptionError(MinivlaError):
    """Checkpoint or dataset file failed an integrity check."""


class CompatibilityError(MinivlaError):
    """Checkpoint manifest does not match the requested model."""
