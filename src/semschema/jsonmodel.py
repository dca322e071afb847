"""Canonical JSON value model: parsing, serialization, equality, and paths.

Values are plain Python objects (None, bool, int, float, str, list, dict).
Dicts keep insertion order, which the serializer preserves, so files written
by the toolkit mirror the order in which they were authored. JSON has one
number type and Python two, so a number is made canonical where it is made:
`canonical_number` turns a float with an integral value of magnitude at most
2**53 into an int, so `2.0` and `-0.0` parse as `2` and `0`, and `dumps`
writes each number as Python does.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import JsonParseError, SemSchemaError

# A JsonValue is None | bool | int | float | str | list | dict.
JsonValue = Any

_MAX_EXACT_INT = 2**53

# parse_json refuses deeper text (RFC 8259 section 9), so that whatever reads
# a parsed value fits within the interpreter's default recursion limit
MAX_DEPTH = 400
# a string literal (left open, it runs to the end of the text) or a bracket
_NESTING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.DOTALL)


def _reject_constant(name: str):
    raise ValueError(f"JSON does not allow {name}")


def canonical_number(value: int | float) -> int | float:
    """`value` as an int if it is a float with an integral value of magnitude at most 2**53, where ints are exact."""
    if value.__class__ is float and value.is_integer() and -_MAX_EXACT_INT <= value <= _MAX_EXACT_INT:
        return int(value)
    return value


def finite_float(text: str) -> int | float:
    """The canonical number of `float(text)`, refusing a number beyond a double's range as parse_json does."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number out of range: {text}")
    return canonical_number(value)


def _check_depth(text: str) -> None:
    """Raise JSONDecodeError at the first bracket that opens level MAX_DEPTH + 1."""
    depth = 0
    for match in _NESTING.finditer(text):
        char = text[match.start()]
        if char in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                raise json.JSONDecodeError(f"nesting deeper than {MAX_DEPTH} levels", text, match.start())
        elif char != '"':
            depth -= 1


# One decoder and two encoders for the process: json.loads and json.dumps
# would build a new one per call for these settings.  They are stateless
# between calls, so threads can share them.  With no check for cycles, a
# circular value runs out of frames as a too deep one does.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=finite_float)
_COMPACT = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False, check_circular=False)
_INDENTED = json.JSONEncoder(ensure_ascii=False, indent=2, separators=(",", ": "), allow_nan=False,
                             check_circular=False)


def parse_json(text: str) -> JsonValue:
    """Parse JSON text into the value model.

    A repeated object key keeps its first position and its last value.

    Raises:
        JsonParseError: on syntax errors (with line/column), on the
            NaN/Infinity extensions, on numbers beyond a double's
            range, which are rejected, and on nesting deeper than
            MAX_DEPTH levels, reported at the first bracket past it.
    """
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        # a complete value nests at most half its length deep, and no deeper
        # than it has opening brackets
        if len(text) > 2 * MAX_DEPTH and text.count("[") + text.count("{") > MAX_DEPTH:
            _check_depth(text)
        # one C scan for text that is a single value and nothing else;
        # decode gives every other case, whitespace and errors, its usual form
        try:
            value, end = _DECODER.scan_once(text, 0)
        except StopIteration:
            end = -1
        return value if end == len(text) else _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise JsonParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:
        raise JsonParseError(str(exc), 1, 1) from exc


def read_file(path: str | Path, parse: Callable[[str], Any], error: type[Exception], data: bytes | None = None):
    """`parse` of the file's text, UTF-8 with universal newlines; `data` holds its bytes if read already.

    Bytes that are not UTF-8, or a SemSchemaError from `parse`, raise `error("<path>: <reason>")`.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (UnicodeDecodeError, SemSchemaError) as exc:
        raise error(f"{path}: {exc}") from None


_SURROGATE = re.compile("[\ud800-\udfff]")

# a str in, its JSON string literal out: what _COMPACT.encode does with a
# str, without that method's Python frame
encode_string = json.encoder.encode_basestring


def escape_surrogates(text: str) -> str:
    """`text` with each lone surrogate written as its \\uXXXX escape."""
    if text.isascii():
        return text
    return _SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def dumps(value: JsonValue, indent: int | None = None) -> str:
    """Serialize a value on one line, or with any `indent` two spaces a level; numbers print as Python writes them.

    Non-ASCII text is written as is, except a lone surrogate (which no
    UTF-8 output can hold), written as its \\uXXXX escape.

    Raises:
        ValueError: on NaN or infinity, and on nesting deeper than the
            interpreter's recursion limit allows (a circular value too).
    """
    try:
        text = (_COMPACT if indent is None else _INDENTED).encode(value)
    except RecursionError:
        raise ValueError("nesting too deep") from None
    except ValueError as exc:  # the encoders' "Out of range float values...", or an int too long to write
        raise ValueError("cannot serialize NaN or infinity" if "float" in str(exc) else str(exc)) from None
    return escape_surrogates(text)


def json_equal(a: JsonValue, b: JsonValue) -> bool:
    """Structural equality: booleans never equal numbers, 2 == 2.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(v, b[k]) for k, v in a.items())
    if type(a) is not type(b):
        return a is None and b is None
    return a == b


def is_integral(value: JsonValue) -> bool:
    """True for numbers with an integral value (8, 8.0); False otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or value.is_integer()


# ---------------------------------------------------------------------------
# Paths

class JsonPath:
    """A sequence of steps into a value: string keys and integer indexes.

    The empty path addresses the root. Rendered in dotted form with
    bracketed indexes, e.g. `.actor."spt:userId"` or `.items[2].price`;
    the bare root renders as ".".
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[str | int] = ()):
        self.steps: tuple[str | int, ...] = tuple(steps)
        for step in self.steps:
            if not isinstance(step, (str, int)) or isinstance(step, bool):
                raise TypeError(f"path step must be str or int, got {step!r}")

    def is_root(self) -> bool:
        return not self.steps

    def is_prefix_of(self, other: "JsonPath") -> bool:
        return self.steps == other.steps[: len(self.steps)]

    def __iter__(self) -> Iterator[str | int]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, JsonPath) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"JsonPath({list(self.steps)!r})"

    # Unquoted steps are identifier-shaped so a rendered path can be
    # pasted into a transform program; anything else gets quoted.
    _PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

    def render(self) -> str:
        if not self.steps:
            return "."
        out = []
        for step in self.steps:
            if isinstance(step, int):
                out.append(f"[{step}]")
            elif self._PLAIN.match(step):
                out.append("." + step)
            else:
                out.append("." + json.dumps(step, ensure_ascii=False))
        return "".join(out)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "JsonPath":
        """Parse the rendered dotted form back into a path.

        Accepts a leading dot or none; "." and "" both mean the root.
        """
        steps: list[str | int] = []
        i = 0
        n = len(text)
        if i < n and text[i] == ".":
            i += 1
        if i >= n:
            return cls(steps)
        while i < n:
            c = text[i]
            if c == "[":
                j = text.find("]", i)
                if j < 0:
                    raise ValueError(f"unclosed index in path: {text!r}")
                index = text[i + 1 : j]
                # ASCII digits, as render writes them; int() also takes "1_0", " 3", "+3" and "٣"
                digits = index[1:] if index.startswith("-") else index
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(f"bad index in path: {text!r}")
                steps.append(int(index))
                i = j + 1
            elif c == '"':
                value, i = json.decoder.scanstring(text, i + 1)
                steps.append(value)
            else:
                j = i
                while j < n and text[j] not in ".[":
                    j += 1
                if j == i:
                    raise ValueError(f"empty step in path: {text!r}")
                steps.append(text[i:j])
                i = j
            if i < n:
                if text[i] == ".":
                    i += 1
                elif text[i] != "[":
                    raise ValueError(f"expected '.' or '[' in path: {text!r}")
        return cls(steps)


def set_path(value: JsonValue, path: JsonPath, new: JsonValue) -> JsonValue:
    """Return a copy of `value` with `new` at `path`, creating objects as needed.

    Missing intermediate objects are created for key steps; an index step
    into anything but a sufficiently long array is an error.
    """
    if path.is_root():
        return new
    step, rest = path.steps[0], JsonPath(path.steps[1:])
    if isinstance(step, str):
        base = dict(value) if isinstance(value, dict) else {}
        base[step] = set_path(base.get(step), rest, new)
        return base
    if not isinstance(value, list) or not (-len(value) <= step < len(value)):
        raise ValueError(f"cannot set index {step} in {type(value).__name__}")
    out = list(value)
    out[step] = set_path(out[step], rest, new)
    return out


def iter_ndjson(lines: Iterable[str]) -> Iterator[tuple[int, JsonValue | None, JsonParseError | None]]:
    """Yield (line_number, value, error) per non-blank NDJSON line.

    Read a file with errors="surrogateescape": its bytes that are not
    UTF-8 then arrive as lone surrogates, and only their line fails.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            if not stripped.isascii():
                stripped.encode("utf-8")
            yield lineno, parse_json(stripped), None
        except UnicodeEncodeError as exc:
            yield lineno, None, JsonParseError("invalid UTF-8", 1, exc.start + 1)
        except JsonParseError as exc:
            yield lineno, None, exc
