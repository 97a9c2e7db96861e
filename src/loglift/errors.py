"""Exception types shared across the package."""


class LogliftError(Exception):
    """Base class for all errors raised by this package."""


class LogFormatError(LogliftError):
    """An input file could not be read or parsed: a log (XES or CSV), a
    model (PNML) or a saved LPM ranking (index.tsv)."""


class ConfigError(LogliftError):
    """A parameter, column name or config file entry is invalid."""


class SearchLimitError(LogliftError):
    """A state-space search exceeded its state limit before finishing.

    Deliberately distinct from a negative answer: callers must not
    confuse "could not decide" with "no".
    """


class PatternError(LogliftError):
    """An activity pattern is structurally unusable for abstraction."""


class StageError(LogliftError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
