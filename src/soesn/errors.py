"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class DimensionError(InputError):
    """Array shapes do not line up."""


class NumericError(ArithmeticError):
    """A computation failed numerically (non-convergence, non-finite values)."""


class CannotScaleError(NumericError):
    """A matrix cannot be rescaled to a target spectral radius (radius ~ 0)."""


class UndefinedMetricError(InputError):
    """A metric is undefined for the given data (e.g. zero-variance target)."""


class ConfigError(InputError):
    """Invalid or unknown run configuration (CLI / JSON config)."""


def _shown(value) -> str:
    """`value` as an error message shows it: its repr, or, where Python
    refuses to format an int's digits (past 4300 by default), its size."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"
