"""The four exception types, and the one reader of source files.

Bad input ends in a ``ComalError``, on which ``comal`` exits 1: a
``ParseError`` (a syntax fault, with its line and column), a
``WellFormednessError`` (input that parses but breaks a rule of the model),
or a plain ``ComalError`` (a command-line fault, such as a protocol name
that no file defines). ``BoundExceeded`` carries the partial graph of a
check that outgrew its state budget; ``comal verify`` exits 3 on it.
Anything else raised is a programming error and ends in a traceback."""

from __future__ import annotations

from pathlib import Path


def read_source(path: Path) -> str:
    """A source file's text; text that is not UTF-8 is a :class:`ParseError` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


class ComalError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ComalError):
    """Syntax fault in a protocol, commitment, or scenario source."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class WellFormednessError(ComalError):
    """Input that parses but breaks a rule: a structural condition, a name or
    reference that resolves to nothing, a reference cycle, conflicting
    definitions, or a scripted move that is not enabled."""


class BoundExceeded(ComalError):
    """Enumeration exceeded the configured bound; carries the partial graph."""

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)
