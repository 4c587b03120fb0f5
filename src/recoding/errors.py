"""Exception hierarchy shared by all modules.  The command line exits 3 on a
`CapacityError`, 4 on an `AssumptionViolationError` (an `ErgodicityError` is
one) and 2 on any other `RecodingError`; other exceptions propagate."""


class RecodingError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(RecodingError, ValueError):
    """A parameter is outside its documented range."""


class CapacityError(RecodingError):
    """An exact enumeration would exceed the configured table budget."""


class FormatError(RecodingError, ValueError):
    """Malformed input: wrong codeword length, unknown token id, bad file."""


class InjectivityError(FormatError):
    """Two source symbols map to the same codeword."""


class AlphabetError(RecodingError, ValueError):
    """A symbol does not belong to the expected alphabet."""


class DataError(RecodingError, ValueError):
    """Input data is too short or otherwise unusable."""


class AssumptionViolationError(RecodingError):
    """A positivity or ergodicity assumption of a computation does not hold."""


class ErgodicityError(AssumptionViolationError):
    """The context chain of a kernel is reducible or the stationary fixed
    point could not be reached."""


class PositivityError(RecodingError, ValueError):
    """A predictor required to be strictly positive has a zero entry."""
