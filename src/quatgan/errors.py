"""Exception types shared across the package."""


class QuatError(Exception):
    """Base class for all quatgan errors."""


class ShapeMismatchError(QuatError, ValueError):
    """Two operands (or an operand and a config) disagree on shape."""

    def __init__(self, message, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class DomainError(QuatError, ValueError):
    """An input violates a mathematical precondition (too small a batch, a negative weight, ...)."""


class ConfigError(QuatError, ValueError):
    """A model spec or train config violates one of its invariants."""


class CheckpointError(QuatError, ValueError):
    """A checkpoint file failed to parse; ``offset`` is the byte position of the failure."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class NumericError(QuatError, RuntimeError):
    """A numeric failure (NaN/Inf loss) aborted a run; carries the diagnostic dump."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}
