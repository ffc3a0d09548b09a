"""Exception types raised across the package."""


class ZeroRowError(ValueError):
    """A matrix row has (numerically) zero Euclidean norm and cannot be normalized."""

    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"row {row_index} has zero norm (below 1e-14)")


class DimensionMismatchError(ValueError):
    """Array shapes are inconsistent with the linear system."""


class NonFiniteDataError(ValueError):
    """A matrix or right-hand side entry is NaN or infinite."""


class IndexOutOfRangeError(IndexError):
    """A row index is outside [0, m)."""


class NumericalFailureError(RuntimeError):
    """A numerical procedure could not locate its solution (e.g. the step along a zero row)."""


class InvalidBetaError(ValueError):
    """Subset size is no integer (a bool is none) or lies outside [1, m]."""


class EmptySubsetError(ValueError):
    """A greedy selection was attempted on an empty subset."""


class ZeroResidualError(ValueError):
    """The residual is identically zero, so a residual-based quantity is undefined."""


class InvalidGammaError(ValueError):
    """A residual-ratio value lies outside its valid range [1, beta]."""


class ZeroTruthError(ValueError):
    """The ground-truth vector is zero, so relative error is undefined."""


class ZeroMatrixError(ValueError):
    """The matrix is identically zero."""


class AllZeroError(ValueError):
    """A vector expected to have a nonzero entry is all (numerically) zero."""


class NonFiniteIterateError(RuntimeError):
    """A solver iterate became non-finite (divergence or bad input)."""


class InvalidSparsityError(ValueError):
    """Requested sparsity level is outside [1, n]."""


class ParseError(ValueError):
    """A Matrix Market file is malformed."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class UnsupportedFieldError(ValueError):
    """A Matrix Market field/symmetry variant is not supported."""


class ConfigError(ValueError):
    """An experiment configuration file or override is invalid."""
