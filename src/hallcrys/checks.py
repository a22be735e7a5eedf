"""The one failure type for a checked mathematical identity.

Every cross-check in hallcrys raises :class:`CheckFailed` when its identity
does not hold, so it runs under ``python -O`` too (an ``assert`` would be
stripped there), and the command line reports it as a falsification with
exit code 2.
"""


class CheckFailed(ValueError):
    """A checked identity failed: the computation contradicts what it checks."""


def check(ok, message: str):
    """Raise :class:`CheckFailed` with ``message`` unless ``ok``."""
    if not ok:
        raise CheckFailed(message)
