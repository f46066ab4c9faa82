"""Exception types shared across the toolkit."""

from __future__ import annotations

import io
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, TextIO


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

    def __reduce__(self):
        # pickled by its arguments, not by its message, so that it crosses
        # from a forked ingest worker with position and reason intact
        return type(self), (self.position, self.reason)


@contextmanager
def open_text(
    path: str | Path, newline: Optional[str] = None, size: Optional[int] = None
) -> Iterator[TextIO]:
    """``path``, or its first ``size`` bytes, opened to read as UTF-8 text,
    skipping a byte-order mark at its start. A byte that is not UTF-8, met as
    the ``with`` block reads, is a :class:`ParseError` at its line naming the
    file, the byte and its column."""
    if size is None:
        handle = open(path, "r", encoding="utf-8-sig", newline=newline)
    else:
        with open(path, "rb") as raw:
            handle = io.TextIOWrapper(io.BytesIO(raw.read(size)), "utf-8-sig", newline=newline)
    with handle:
        try:
            yield handle
        except UnicodeDecodeError:
            # only a failed read goes over the bytes; no UTF-8 sequence holds a b"\n"
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        byte = f"byte {line[exc.start]:#04x} at column {exc.start + 1}"
                        raise ParseError(lineno, f"{path}: {byte} is not UTF-8") from None
            raise  # not a byte of this file


class EmptyInputError(ToolkitError):
    """An operation that needs at least one sample received none."""


class InvalidAddressError(ToolkitError, ValueError):
    """Input is not a syntactically valid IPv4 address."""
