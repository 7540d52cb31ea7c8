"""The compiled scanner against the per-character loop it replaced, kept
here as the reference: the same tokens, or the same error at the same line
and column."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from comal.errors import ParseError
from comal.lexer import Token, TokenStream, tokenize

# Multi-character symbols must precede their prefixes.
SYMBOLS = ("->", "{", "}", "[", "]", "(", ")", ",", ":", "+")


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """One character at a time, with ``str`` predicates for every class."""
    tokens = []
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
            tokens.append(("name", source[start:i], line, col))
            col += i - start
            continue
        if ch.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            tokens.append(("number", source[start:i], line, col))
            col += i - start
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(("symbol", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def outcome(tokenizer, source: str):
    """``source``'s tokens as ``(kind, text, line, column)``, or its error."""
    try:
        return [tuple(tok) for tok in tokenizer(source)]
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# Digits and numerals ``int`` refuses (``²``, ``½``, ``Ⅻ``) or reads (``٣``),
# letters, whitespace that ends no line, comment and symbol fragments.
PIECES = list("aZ_09 \t\n{}[](),:+-/>") + [
    "²", "½", "Ⅻ", "٣", "é", "\x0b", "\r", "\u00a0", "\u2028", "\u0085", "//", "->", "name", "12",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24), st.sampled_from(["", "\n", "// end", " //"]))
def test_scanner_matches_reference(pieces, end):
    """Drawn strings, some ending in a comment with no newline after it."""
    source = "".join(pieces) + end
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_scanner_matches_reference_on_any_text(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def test_fixtures_scan_as_before(fixtures_dir):
    """Every fixture, byte for byte."""
    for path in sorted(fixtures_dir.iterdir()):
        if path.suffix in (".bspl", ".cupid"):
            source = path.read_text(encoding="utf-8")
            assert outcome(tokenize, source) == outcome(reference_tokenize, source), path.name


def test_edge_cases():
    """Characters that ``\\w`` holds but that start no name are errors, and
    the eof token after a final comment stands at the comment's column."""
    assert outcome(tokenize, "ab ²x") == ("1:4: unexpected character '²'", 1, 4)
    assert outcome(tokenize, "Ⅻ") == ("1:1: unexpected character 'Ⅻ'", 1, 1)
    assert outcome(tokenize, "é٣ ٣é") == [("name", "é٣", 1, 1), ("number", "٣", 1, 4), ("name", "é", 1, 5),
                                         ("eof", "", 1, 6)]
    assert outcome(tokenize, "a\n  b // c") == [("name", "a", 1, 1), ("name", "b", 2, 3), ("eof", "", 2, 5)]


def test_stream_stops_at_eof():
    stream = TokenStream("a")
    assert stream.next() == Token("name", "a", 1, 1)
    assert stream.accept("eof") == stream.next() == stream.expect("eof") == Token("eof", "", 1, 2)
    assert stream.at("eof") and stream.peek().kind == "eof"
