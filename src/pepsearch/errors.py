"""Exception hierarchy shared across the toolkit.

``DomainError`` marks violated operation preconditions and maps to exit
code 1 in the CLI; ``ConfigError`` marks bad configuration content;
``FormatError`` and its subclasses mark run-file parsing failures and
carry the byte offset where parsing stopped.
"""


class DomainError(ValueError):
    """An operation was called outside its physical or numerical domain."""


class ConfigError(DomainError):
    """Configuration file content is missing, inconsistent, or out of range."""


class CalibrationError(DomainError):
    """Peak search or energy-scale fitting could not be completed."""


class FitError(CalibrationError):
    """A least-squares fit failed to converge or produced a rejected shape."""


class FormatError(ValueError):
    """Base class for run-file format violations.

    ``offset`` is the absolute byte offset at which the problem was
    detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class BadMagicError(FormatError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(FormatError):
    """The header declares a format version this reader does not know."""


class RecordError(FormatError):
    """A format violation located at one record.

    ``record_index`` is the index of that record, or ``None`` when the
    problem lies before the first record.
    """

    def __init__(self, message: str, offset: int | None = None,
                 record_index: int | None = None):
        self.record_index = record_index
        super().__init__(message, offset)


class TruncatedFileError(RecordError):
    """The byte stream ended before the declared content was complete.

    ``record_index`` is the index of the first record that could not be
    read in full, or ``None`` when the header itself was cut short.
    """


class RecordInvariantError(RecordError):
    """A decoded record violates an event-record invariant."""
