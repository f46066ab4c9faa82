"""Exception types shared across the toolkit."""

from __future__ import annotations

from pathlib import Path


class ToolkitError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ToolkitError, ValueError):
    """Malformed input.

    ``position`` is a byte offset within the record for line-delimited
    measurement feeds, and a 1-based line number for traceroute text and
    other multi-line inputs.
    """

    def __init__(self, position: int, reason: str):
        super().__init__(f"parse error at {position}: {reason}")
        self.position = position
        self.reason = reason


def undecodable(path: str | Path) -> ParseError:
    """A :class:`ParseError` at the line of ``path``'s first byte that is not
    UTF-8, naming the file, the byte and its column."""
    with open(path, "rb") as handle:
        # a UTF-8 sequence never holds a newline byte, so lines split cleanly
        for lineno, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    lineno,
                    f"{path}: byte {line[exc.start]:#04x} at column {exc.start + 1} is not UTF-8",
                )
    return ParseError(0, f"{path}: not UTF-8")


class NoDataError(ToolkitError):
    """A measurement sample carried no successful runs."""


class EmptyInputError(ToolkitError):
    """An operation that needs at least one sample received none."""


class InvalidAddressError(ToolkitError, ValueError):
    """Input is not a syntactically valid IPv4 address."""
