"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A precondition on user-supplied configuration or arguments failed;
    `keys` names the (section, key) pairs of the config values it is about."""

    def __init__(self, message: str, keys: tuple = ()):
        super().__init__(message)
        self.keys = keys


class NumericError(ArithmeticError):
    """A computation produced non-finite values or an unsolvable system."""

