"""Exception types shared across the package."""


class CheckerboardError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionError(CheckerboardError):
    """Matrix dimensions do not fit the requested operation."""


class SymmetryError(CheckerboardError):
    """An operation requiring a Hermitian matrix received a non-Hermitian one."""


class DegenerateStateError(CheckerboardError):
    """State construction received data that cannot yield a trace-one state."""


class SingularParameterError(CheckerboardError):
    """A derived-parameter formula hit a vanishing denominator.

    The offending denominator is recorded in ``denominator`` using the
    parameter letters, e.g. ``"fs-ip"``.
    """

    def __init__(self, denominator: str):
        super().__init__(f"singular parameters: denominator {denominator} is zero")
        self.denominator = denominator


class ParseError(CheckerboardError):
    """Input document (parameter file, witness file, fraction string) is invalid."""
