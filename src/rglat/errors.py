"""Shared exception types."""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class IndeterminateFormError(LatticeError):
    """A sum would combine +inf with -inf."""


class AmbientMismatch(LatticeError):
    """Elements from different ambient spaces were mixed in one operation."""


class SizeCapExceeded(LatticeError):
    """Work was requested above a cap constant.

    The caps are ``finite.MAX_ELEMENTS``, ``finite.MAX_CHAINS`` and
    ``regrading.MAX_GRID_LEVELS``.
    """


class PreconditionViolation(LatticeError):
    """An operation was called outside its contract; the message carries witnesses."""


class CutsetError(LatticeError):
    """A cutset description failed validation."""


class InputFormatError(LatticeError):
    """Malformed input file or serialized payload."""
