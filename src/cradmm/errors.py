"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration violated one or more invariants.

    ``violations`` lists every offending field, so callers can report all
    problems at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


class FileFormatError(ValueError):
    """A binary or CSV payload failed to parse; the message names the byte offset.

    The CLI also reports an input file that cannot be read, or a well-formed
    one too large for memory, as one.
    """


class DivergenceError(RuntimeError):
    """An iterative solver produced a non-finite iterate."""
