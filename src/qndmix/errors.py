"""Exception hierarchy shared across the package, and the integer-argument
rule that raises from it."""


class QndmixError(Exception):
    """Base class for all package errors."""


class DomainError(QndmixError, ValueError):
    """An argument lies outside its declared domain (e.g. theta not in the box)."""


class ConstructionError(QndmixError, ValueError):
    """An object failed its construction-time validation."""


class InferenceError(QndmixError, RuntimeError):
    """An observation is impossible under the model (zero-probability outcome)."""


class RefusalError(QndmixError, RuntimeError):
    """The experiment refuses a model outside the hypotheses of its theorem."""


class SingularFisherError(RefusalError):
    """A per-component Fisher information matrix is singular; the experiment refuses to run."""


class ConfigError(QndmixError, ValueError):
    """A run configuration is malformed or references unknown entities."""


def _integral(value, name: str, error: type) -> int:
    """value as a Python int when it equals one (100.0 and np.int64(100) are
    100); error naming the value otherwise (2.5, nan, inf, None, "3")."""
    try:
        n = int(value)
        if n == value:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} {value} is not an integer")
