"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A precondition on user-supplied configuration or arguments failed."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or an unsolvable system."""

