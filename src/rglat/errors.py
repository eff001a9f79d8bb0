"""Shared exception types."""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class IndeterminateFormError(LatticeError):
    """A sum would combine +inf with -inf."""


class AmbientMismatch(LatticeError):
    """Elements from different ambient spaces were mixed in one operation."""


class SizeCapExceeded(LatticeError):
    """An exhaustive enumeration was requested above the cap constants in ``finite``."""


class PreconditionViolation(LatticeError):
    """An operation was called outside its contract; the message carries witnesses."""


class CutsetError(LatticeError):
    """A cutset description failed validation."""


class InputFormatError(LatticeError):
    """Malformed input file or serialized payload."""
