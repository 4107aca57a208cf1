"""The two error kinds the command line maps to exit codes, the re-raise
into them and the report envelope of a step that may fail.

Standard library only, so `earpipe.cli` can import them without loading
numpy or any processing layer.
"""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 2."""


class DataError(ValueError):
    """Missing or malformed input data; the CLI maps this to exit code 3."""


@contextmanager
def reraise(kind, prefix: str = ""):
    """Raise a ValueError of the block as kind(prefix + its message); a
    ConfigError or DataError passes through unchanged."""
    try:
        yield
    except (ConfigError, DataError):
        raise
    except ValueError as exc:
        raise kind(prefix + str(exc)) from None


def envelope(make, *args, **kwargs) -> dict:
    """A report entry: make's dict with status ok, or status not_computed
    and the reason its ValueError gives."""
    try:
        return {"status": "ok", **make(*args, **kwargs)}
    except ValueError as exc:
        return {"status": "not_computed", "reason": str(exc)}
