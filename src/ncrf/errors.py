"""Exception hierarchy shared by all modules.

Everything raised on purpose derives from NcrfError so the CLI can map
library failures to exit code 1 while genuine usage mistakes surface as
argparse's exit code 2.
"""


class NcrfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NcrfError):
    """Tensor shapes incompatible with the requested operation."""


class ParameterError(NcrfError):
    """An argument value is outside the operation's contract."""


class ConfigurationError(NcrfError):
    """A model/layer configuration is internally inconsistent."""


class AlignmentError(NcrfError):
    """Signal length does not match labels * samples-per-epoch."""


class DataParseError(NcrfError):
    """A data file could not be parsed; message carries file/line context."""


class DegenerateDistributionError(NcrfError):
    """A class count of zero makes the inverse-frequency prior undefined."""


class NumericError(NcrfError):
    """A non-finite value appeared where the contract requires finite math."""


class GuardError(NcrfError):
    """A brute-force oracle was asked for more work than its safety bound."""


class EmptySequenceError(ParameterError):
    """A sequence operation received zero time steps."""


class CheckpointFormatError(NcrfError):
    """Checkpoint bytes violate the documented container format."""
