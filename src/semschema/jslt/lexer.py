"""Tokenizer for the JSON query-and-transformation language."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import JsltCompileError

KEYWORDS = {"let", "def", "if", "else", "for", "and", "or", "true", "false", "null"}

# longest first so == beats =
_PUNCT = ["==", "!=", "<=", ">=", ".", "[", "]", "{", "}", "(", ")", ",", ":", "*", "/", "+", "-", "<", ">", "="]

# hyphens join identifier words (parse-time, is-object); `a-1` stays `a - 1`
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


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
            text, value, end_pos, nl = _scan_string(source, pos, line, col())
            tokens.append(Token("string", text, value, tok_line, tok_col))
            pos = end_pos
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(source, pos)
            text = m.group(0)
            value = int(text) if text.isdigit() else float(text)
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


def _scan_string(source: str, pos: int, line: int, col: int) -> tuple[str, str, int, int]:
    start = pos
    pos += 1
    out: list[str] = []
    n = len(source)
    while True:
        if pos >= n:
            raise JsltCompileError("unterminated string literal", line, col)
        ch = source[pos]
        if ch == '"':
            pos += 1
            return source[start:pos], "".join(out), pos, 0
        if ch == "\n":
            raise JsltCompileError("newline inside string literal", line, col)
        if ch == "\\":
            if pos + 1 >= n:
                raise JsltCompileError("unterminated escape", line, col)
            esc = source[pos + 1]
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
                pos += 2
                continue
            if esc == "u":
                hex_digits = source[pos + 2 : pos + 6]
                if len(hex_digits) != 4 or not all(c in "0123456789abcdefABCDEF" for c in hex_digits):
                    raise JsltCompileError("bad \\u escape", line, col)
                out.append(chr(int(hex_digits, 16)))
                pos += 6
                continue
            raise JsltCompileError(f"unknown escape \\{esc}", line, col)
        out.append(ch)
        pos += 1
