"""Exception hierarchy shared by all hybridiq modules."""


class HybridError(Exception):
    """Base class for all errors raised by this package."""


def require_integer(value, what: str, error: type[HybridError]) -> int:
    """``value`` if it is a Python int; a float, bool, string or numpy scalar raises ``error``."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r:.40}")
    return value


class NotHermitian(HybridError):
    pass


class NumericalFailure(HybridError):
    pass


class DimensionMismatch(HybridError):
    pass


class NotAState(HybridError):
    pass


class BadRange(HybridError):
    pass


class BadMap(HybridError):
    pass


class BadKernel(HybridError):
    pass


class SpaceMismatch(HybridError):
    pass


class NotPositive(HybridError):
    def __init__(self, cell: int, message: str):
        self.cell = cell
        super().__init__(message)


class NotNormalized(HybridError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"total trace {total!r} is not 1")


class BadEffect(HybridError):
    pass


class BadEvent(HybridError):
    pass


class ZeroMassCell(HybridError):
    pass


class ZeroProbability(HybridError):
    pass


class ShapeMismatch(HybridError):
    pass


class IncompleteChannel(HybridError):
    def __init__(self, cell: int, deviation: float):
        self.cell = cell
        self.deviation = deviation
        super().__init__(
            f"Kraus blocks of source cell {cell} are not complete "
            f"(max deviation {deviation:.3e} from identity)"
        )


class IncompleteKraus(HybridError):
    def __init__(self, deviation: float | None = None, message: str = ""):
        self.deviation = deviation
        super().__init__(message or f"sum L^dag L deviates from identity by {deviation:.3e}")


class NotPSDCoefficients(HybridError):
    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        super().__init__(f"coefficient matrix at cell pair ({m}, {n}) is not PSD")


class BadBasis(HybridError):
    pass


class NotAnEnsemble(HybridError):
    pass


class IncompleteInstrument(HybridError):
    def __init__(self, history: tuple, deviation: float | None = None):
        self.history = history
        self.deviation = deviation
        super().__init__(
            f"no complete instrument for history {history}" if deviation is None
            else f"round {len(history)} instrument at history {history} deviates from "
            f"completeness by {deviation:.3e}"
        )


class RecordSpaceTooLarge(HybridError):
    pass


class UnknownSuite(HybridError):
    pass


class ParseError(HybridError):
    pass


class IoError(HybridError):
    pass
