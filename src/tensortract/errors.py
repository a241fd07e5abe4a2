"""Exception types shared across the package."""


class TensorTractError(Exception):
    """Base class for all package-specific errors."""


class InvalidIndex(TensorTractError, ValueError):
    """Sequence indices start at 1; zero or negative indices are rejected."""


class SequenceError(TensorTractError, ValueError):
    """Invalid sequence construction: bad parameters or non-monotone data."""


class NonCompact(TensorTractError):
    """A threshold search could not be resolved: the sequence does not decay
    to zero, or the threshold index lies beyond the representable range."""


class BudgetExceeded(TensorTractError):
    """A node or candidate budget was exhausted; any partial result is discarded."""


class BoxTooSmall(TensorTractError):
    """A qualifying tuple touches the enumeration box boundary, so the
    brute-force count could be short."""


class GuardExceeded(TensorTractError, ValueError):
    """The brute-force enumeration guard (box**d limit) was exceeded."""


class DivergentTail(TensorTractError, ArithmeticError):
    """The requested power sum diverges."""


class UnsupportedNotion(TensorTractError, ValueError):
    """Tractability notion outside the supported range."""


class ConfigError(TensorTractError, ValueError):
    """Invalid run configuration."""
