"""Shared exception types, and the one reader of source files."""

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
    """A declaration violates a structural well-formedness condition."""


class UnresolvedReference(ComalError):
    """A protocol reference names a protocol missing from the registry."""


class CyclicReference(ComalError):
    """Protocol references form a cycle."""


class UnknownCommitmentReference(ComalError):
    """A lifecycle event names a commitment missing from the registry."""


class UnknownBaseEvent(ComalError):
    """An event expression names a message schema missing from the protocol."""


class UnknownMessage(ComalError):
    """No schema with this name exists in the universe of discourse."""


class UnboundName(ComalError):
    """An expression refers to a name the evaluation context cannot resolve."""


class UnknownForwardName(ComalError):
    """A fwd-prefixed schema has no entry in the forwarding registry."""


class NameClash(ComalError):
    """A synthesized parameter collides with an input-protocol parameter."""


class InternalError(ComalError):
    """A reduction or search reached a state that should be unreachable."""


class ScriptedMoveNotEnabled(ComalError):
    """A scripted scenario move is not enabled at its scheduled tick."""

    def __init__(self, message: str, tick: int | None = None, move=None):
        self.tick = tick
        self.move = move
        super().__init__(message)


class BoundExceeded(ComalError):
    """Enumeration exceeded the configured bound; carries the partial graph."""

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)
