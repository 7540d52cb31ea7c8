r"""The tokenizer and token cursor shared by the protocol and commitment parsers.

One compiled pattern, ``_TOKEN``, scans each line of a source. Its lexical
rules:

- a name starts with a character for which ``str.isalpha`` is true, or
  ``_``, and continues with ``\w`` (``str.isalnum``, or ``_``);
- a number is a run of Unicode decimal digits (``\d``, ``str.isdecimal``):
  ``٣`` is a digit, ``²`` and ``½`` are not;
- the symbols are ``-> { } [ ] ( ) , : +``;
- whitespace (``str.isspace``) separates tokens. Only ``\n`` ends a line;
  every other character, ``\r`` included, takes one column;
- a ``//`` comment runs to the end of its line and takes no columns, so
  the eof token after a comment that ends the file stands at the comment's
  column.

Any other character is a ``ParseError``, "unexpected character", at its
line and column: a non-ASCII ``\w`` character that may not start a name
(``²``, ``Ⅻ``) is one too.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # "name" | "number" | "symbol" | "eof"
    text: str
    line: int
    column: int


# Leading whitespace, then one of: an ASCII-led name (group 1), a number (2),
# a symbol (3), a name led by a non-ASCII word character (4: ``\w`` less
# ``\d`` also holds digits and numerals such as ``²``, which ``tokenize``
# refuses), a comment, any other character (5), or the end of the line.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_]\w*)|(\d+)|(->|[{}\[\](),:+])|([^\W\d\x00-\x7f]\w*)|//.*|(.)|\Z)")
_KINDS = (None, "name", "number", "symbol", "name")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # half the cost of calling Token
    for line, text in enumerate(source.split("\n"), 1):
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group is None:  # a comment, or whitespace ending the line
                continue
            word = m[group]
            if group == 5 or (group == 4 and not word[0].isalpha()):
                raise ParseError(f"unexpected character {word[0]!r}", line, m.start(group) + 1)
            append(new(Token, (_KINDS[group], word, line, m.start(group) + 1)))
    # Every ``/`` on a line that scanned is in its comment, so the first one starts it.
    comment = text.find("/")
    append(Token("eof", "", line, (len(text) if comment < 0 else comment) + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        if kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.column)
        if kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message, tok.line, tok.column)
