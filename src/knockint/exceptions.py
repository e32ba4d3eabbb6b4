"""Exception types shared across the package, and the config field check."""


class KnockintError(Exception):
    """Base class for package errors."""


class ConfigurationError(KnockintError, ValueError):
    """Invalid sizes, hyperparameters, or config fields."""


class ContractViolation(KnockintError, ValueError):
    """A caller broke a documented precondition (shapes, symmetry, ...)."""


class TrainingDivergedError(KnockintError, RuntimeError):
    """Non-finite loss encountered during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class DegenerateFeatureError(KnockintError, ValueError):
    """Feature columns with zero variance make covariance estimation ill-posed."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"degenerate (constant) feature columns: {self.columns}")


class GenerationError(KnockintError, RuntimeError):
    """A simulated response evaluated to a non-finite value."""


class ValidationError(KnockintError, ValueError):
    """Malformed external data (CSV ingestion, config files)."""


def check_fields(cfg, rules):
    """Raise a ConfigurationError naming the first ``(field, ok, want)`` rule not ``ok``."""
    for name, ok, want in rules:
        if not ok:
            raise ConfigurationError(f"{name} must be {want}, got {getattr(cfg, name)!r}")
