"""The two error kinds the command line maps to exit codes.

Standard library only, so `earpipe.cli` can import them without loading
numpy or any processing layer.
"""


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 2."""


class DataError(ValueError):
    """Missing or malformed input data; the CLI maps this to exit code 3."""
