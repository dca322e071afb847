"""Canonical JSON value model: parsing, serialization, equality, and paths.

Values are plain Python objects (None, bool, int, float, str, list, dict).
Dicts keep insertion order, which the serializer preserves, so files written
by the toolkit mirror the order in which they were authored. Numbers are the
one place Python is stricter than JSON: ints carry the "integral" exactness
bit, and floats whose value is integral are normalized to ints when
serialized, so `2.0` prints as `2`.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterable, Iterator

from .errors import JsonParseError

# A JsonValue is None | bool | int | float | str | list | dict.
JsonValue = Any

_MAX_EXACT_INT = 2**53


def _reject_constant(name: str):
    raise ValueError(f"JSON does not allow {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number out of range: {text}")
    return value


def parse_json(text: str) -> JsonValue:
    """Parse JSON text into the value model.

    A repeated object key keeps its first position and its last value.

    Raises:
        JsonParseError: on syntax errors (with line/column), on the
            NaN/Infinity extensions and on numbers beyond a double's
            range, which are rejected.
    """
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise JsonParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:
        raise JsonParseError(str(exc), 1, 1) from exc


def _normalize(value: JsonValue) -> JsonValue:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("cannot serialize NaN or infinity")
        if value.is_integer() and abs(value) <= _MAX_EXACT_INT:
            return int(value)
        return value
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


def dumps(value: JsonValue, indent: int | None = None) -> str:
    """Serialize a value; integral floats print without a decimal point."""
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(_normalize(value), indent=indent, separators=separators, ensure_ascii=False)


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

_ABSENT = object()


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

    def child(self, step: str | int) -> "JsonPath":
        return JsonPath(self.steps + (step,))

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
                steps.append(int(text[i + 1 : j]))
                i = j + 1
            elif c == '"':
                decoder = json.JSONDecoder()
                value, end = decoder.raw_decode(text, i)
                if not isinstance(value, str):
                    raise ValueError(f"bad quoted step in path: {text!r}")
                steps.append(value)
                i = end
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


def get_path(value: JsonValue, path: JsonPath) -> JsonValue:
    """Value at `path`, or None if any step is missing.

    Total: a key step on a non-object or an index step on a non-array
    yields None rather than an error.
    """
    found = get_path_opt(value, path)
    return None if found is _ABSENT else found


def get_path_opt(value: JsonValue, path: JsonPath):
    """Like get_path but distinguishes absence (the _ABSENT sentinel)."""
    current = value
    for step in path:
        if isinstance(step, str):
            if isinstance(current, dict) and step in current:
                current = current[step]
            else:
                return _ABSENT
        else:
            if isinstance(current, list) and -len(current) <= step < len(current):
                current = current[step]
            else:
                return _ABSENT
    return current


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
