"""Exception hierarchy for the column compression toolkit."""

from __future__ import annotations


class ColcodecError(Exception):
    """Base class for all errors raised by this package."""


class EmptyColumnError(ColcodecError):
    """An operation that needs rows was given an empty column."""


class IdOutOfRangeError(ColcodecError):
    """A value ID does not fit the dictionary it is paired with."""


class InvalidBlockSizeError(ColcodecError):
    """Block size must be a power of two >= 2."""


class NotAffineError(ColcodecError):
    """IDs are not strictly sequential with stride +1 or -1."""


class ColumnIndexOutOfRangeError(ColcodecError):
    """Requested CSV column index exceeds the row width."""


class RaggedRowError(ColcodecError):
    """CSV row with a field count different from the first row's."""


class Utf8Error(ColcodecError):
    """Input bytes are not valid UTF-8."""


class CsvParseError(ColcodecError):
    """The CSV parser rejected the input; the message names the line."""


class FormatError(ColcodecError):
    """Malformed column file. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagicError(FormatError):
    """Stream does not start with the column-file magic."""


class UnsupportedVersionError(FormatError):
    """Column-file format version is not supported."""


class TruncatedPayloadError(FormatError):
    """Stream ended before the declared content was complete."""


class InvariantViolationError(FormatError):
    """Structurally readable file whose content breaks a format invariant."""
