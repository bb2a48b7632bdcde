"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(ValueError):
    """A requested target lies outside the attainable range."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (atom count, matrix size) would be exceeded."""


class InsufficientDataError(RuntimeError):
    """Not enough data in the requested window to produce a fit."""


class InternalError(RuntimeError):
    """An internal consistency check failed."""
