"""The three error kinds shared by all xdwell modules.

Each kind is one exit code of the CLI: ConfigError -> 2,
DataFormatError -> 3, ConvergenceError -> 4.
"""


class XdwellError(Exception):
    pass


class ConfigError(XdwellError):
    """Invalid configuration value or violated type invariant."""


class DataFormatError(XdwellError):
    """Malformed, truncated or mismatched data file, or data too few to
    resolve an estimate."""


class ConvergenceError(XdwellError):
    """A numerical procedure failed to reach its stated tolerance."""
