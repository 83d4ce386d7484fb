"""Error signals and argument checks shared across modules.

Numerical-error signals carry a short kebab-case name (e.g. "empty-shell",
"not-admissible") so the CLI can map them to a dedicated exit code;
everything else raises plain ValueError/TypeError as usual.

Every count, size and degree argument is checked where it enters by one
`check_integer(name, value, lo)` call: it must be a Python or numpy integer,
not a bool, else ValueError("{name} must be an integer: {name}={value!r}"),
and at least lo, else ValueError("need {name} >= {lo}: {name}={value!r}").
"""

import numbers


class NumericalSignal(ValueError):
    """A named numerical-error signal raised by library operations."""

    def __init__(self, signal, message=""):
        self.signal = signal
        text = signal if not message else f"{signal}: {message}"
        super().__init__(text)


def check_integer(name, value, lo=None):
    """ValueError naming the argument unless it is an integer >= lo, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer: {name}={value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"need {name} >= {lo}: {name}={value!r}")
