"""Desk-scale simulator and verification suite for personalized federated
learning via clustered logit co-distillation on an unlabeled public pool."""

from .errors import ConfigurationError, NumericError

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "NumericError",
    "__version__",
]
