"""The bounded HTTP/1.1 head reader both ends of the serving wire share.

:func:`read_head` reads one start line and its header lines from a
buffered binary stream, then stops; the body is the caller's to read.
It keeps the stdlib's own limits (a line is at most 65,536 bytes, a head
at most 100 header lines) and refuses, with a :class:`WireError`, what a
lenient parser would guess at: a line without a colon, a folded
(continuation) line, a ``Content-Length`` that is not ASCII digits or
that disagrees with a repeat of itself, and any ``Transfer-Encoding``.
"""

from __future__ import annotations

import re

__all__ = ["MAX_HEADERS", "MAX_LINE", "WireError", "read_head"]

#: bytes in one start or header line, its line ending included
MAX_LINE = 65536
#: header lines in one head
MAX_HEADERS = 100

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_FIELD = re.compile(rf"({_TOKEN}):[ \t]*(.*?)[ \t]*")


class WireError(ConnectionError):
    """A message the reader refuses; ``status`` is the 4xx a server
    answers it with before it closes the connection."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _line(rfile, too_long: int) -> str | None:
    """One line without its ending; ``None`` when the stream has ended."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise WireError("line longer than 65536 bytes", too_long)
    if line and not line.endswith(b"\n"):
        raise WireError("connection closed inside the head")
    return line.decode("latin-1").rstrip("\r\n") if line else None


def read_head(rfile) -> tuple[str, dict[str, str], int | None] | None:
    """Read one head from ``rfile`` (a buffered binary stream).

    Returns ``(start_line, headers, content_length)``, or ``None`` when
    the stream ends before its first byte.  Header names are lower-case;
    a repeated header's values are joined with ``", "``, so repeats of an
    identical ``Content-Length`` collapse to one and differing ones are
    refused.  ``content_length`` is ``None`` when the header is absent.
    """
    start = _line(rfile, 414)
    if start is None:
        return None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _line(rfile, 431)
        if line is None:
            raise WireError("connection closed inside the head")
        if not line:
            break
        if line[0] in " \t":
            raise WireError("folded header line")
        field = _FIELD.fullmatch(line)
        if field is None:
            raise WireError(f"malformed header line {line[:64]!r}")
        name, value = field[1].lower(), field[2]
        if name in headers:
            value = f"{headers[name]}, {value}"
        headers[name] = value
    else:
        raise WireError("more than 100 header lines", 431)
    if "transfer-encoding" in headers:
        raise WireError("Transfer-Encoding is not supported")
    length = headers.get("content-length")
    if length is not None:
        values = {v.strip() for v in length.split(",")}
        length = values.pop()
        if values:
            raise WireError("conflicting Content-Length values")
        if not (length.isascii() and length.isdigit()):
            raise WireError(f"bad Content-Length {length[:32]!r}")
        if len(length) > 18:
            raise WireError("Content-Length out of range", 413)
        length = int(length)
    return start, headers, length
