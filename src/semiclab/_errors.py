"""Error signals and argument checks shared across modules.

Numerical-error signals carry a short kebab-case name (e.g. "empty-shell",
"not-admissible") so the CLI can map them to a dedicated exit code;
everything else raises plain ValueError/TypeError as usual.
"""

import numbers


class NumericalSignal(ValueError):
    """A named numerical-error signal raised by library operations."""

    def __init__(self, signal, message=""):
        self.signal = signal
        text = signal if not message else f"{signal}: {message}"
        super().__init__(text)


def check_integer(name, value):
    """ValueError naming the argument unless value is a Python or numpy int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer: {name}={value!r}")
