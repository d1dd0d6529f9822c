"""Exception hierarchy shared by all xdwell modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
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

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class WindowLeakageError(ConvergenceError):
    """Too much pulse energy at the edge of the sampling window."""


class WeakExcitationError(ConvergenceError):
    """Peak excitation probability too large for the weak-drive model."""

    def __init__(self, message, peak):
        super().__init__(message, achieved=peak)
        self.peak = peak


class RankDeficiencyError(ConvergenceError):
    """Fit design matrix is (numerically) rank deficient."""

    def __init__(self, message, condition):
        super().__init__(message, achieved=condition)
        self.condition = condition


class InsufficientBinError(DataFormatError):
    """A click/no-click bin has too few shots to be averaged."""

    def __init__(self, bin_name, count, minimum):
        super().__init__(
            f"bin '{bin_name}' has {count} shots, need at least {minimum}"
        )
        self.bin_name = bin_name
        self.count = count
