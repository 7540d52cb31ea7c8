"""A small tokenizer shared by the protocol and commitment parsers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

# The deepest nesting read from a source: parentheses within one formula,
# nodes along a formula's longest path (``commitments.formula_depth``), and
# protocol references within one another (``protocol.uod``). Every walker of
# these structures recurses a few frames per level: the commitment parser two
# per parenthesis, dataclass equality and ``repr`` three per formula node. At
# this bound the deepest walk, ``repr`` of a 100-term ``and`` chain, takes about
# 306 frames, well below Python's default recursion limit of 1 000. The deepest
# fixture formula, EscrowTransfer's discharge, is 6 levels deep.
MAX_DEPTH = 100

# Multi-character symbols must precede their prefixes.
SYMBOLS = ("->", "{", "}", "[", "]", "(", ")", ",", ":", "+")


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "number" | "symbol" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Token("name", text, line, col))
            col += i - start
            continue
        if ch.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            tokens.append(Token("number", source[start:i], line, col))
            col += i - start
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)
