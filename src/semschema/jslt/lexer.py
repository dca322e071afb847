"""Tokenizer for the JSON query-and-transformation language."""

from __future__ import annotations

import re
from json.decoder import JSONDecodeError, scanstring
from typing import NamedTuple

from ..errors import JsltCompileError
from ..jsonmodel import finite_float

KEYWORDS = {"let", "def", "if", "else", "for", "and", "or", "true", "false", "null"}

# longest first so == beats =
_PUNCT = ["==", "!=", "<=", ">=", ".", "[", "]", "{", "}", "(", ")", ",", ":", "*", "/", "+", "-", "<", ">", "="]

# hyphens join identifier words (parse-time, is-object); `a-1` stays `a - 1`
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*")
# ASCII digits only, as in JSON; str.isdigit and \d also take "²" and "٣"
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_VAR_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


class Token(NamedTuple):
    kind: str  # punct text, keyword, or one of: string number ident var eof
    text: str
    value: object
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    def col() -> int:
        return pos - line_start + 1

    def fail(message: str):
        raise JsltCompileError(message, line, col())

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        tok_line, tok_col = line, col()
        if ch == '"':
            value, end = _scan_string(source, pos, tok_line, tok_col)
            tokens.append(Token("string", source[pos:end], value, tok_line, tok_col))
            pos = end
            continue
        if "0" <= ch <= "9":
            m = _NUMBER_RE.match(source, pos)
            text = m.group(0)
            try:
                value = int(text) if text.isdigit() else finite_float(text)
            except ValueError as exc:  # beyond a double's range, or more digits than int() takes
                fail(str(exc))
            tokens.append(Token("number", text, value, tok_line, tok_col))
            pos = m.end()
            continue
        if ch == "$":
            m = _VAR_RE.match(source, pos)
            if not m:
                fail("expected a variable name after '$'")
            tokens.append(Token("var", m.group(0), m.group(1), tok_line, tok_col))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            text = m.group(0)
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, text, tok_line, tok_col))
            pos = m.end()
            continue
        for punct in _PUNCT:
            if source.startswith(punct, pos):
                tokens.append(Token(punct, punct, punct, tok_line, tok_col))
                pos += len(punct)
                break
        else:
            fail(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", None, line, col()))
    return tokens


def _scan_string(source: str, pos: int, line: int, col: int) -> tuple[str, int]:
    """The value and end of the JSON string at `pos`, with no raw newline; any error is at `line`:`col`."""
    try:
        value, end = scanstring(source, pos + 1, False)
        message = None
    except JSONDecodeError as exc:
        # a bad escape stops the scan at exc.pos; an unterminated literal (exc.pos is its quote) ran to the end
        value, end = None, exc.pos if exc.pos > pos else len(source)
        message = exc.msg.removesuffix(" at")  # "Unterminated string starting at" reads on into "1:5"
    if source.find("\n", pos, end) >= 0:
        message = "newline inside string literal"
    if message:
        raise JsltCompileError(message, line, col)
    return value, end
