"""Built-in function library for the transformation language."""

from __future__ import annotations

import functools
import math
import re as _re
from datetime import datetime, timedelta, timezone

from .. import jsonmodel
from ..errors import JsltRuntimeError, PatternError
from ..pattern import compile_pattern

Json = None | bool | int | float | str | list | dict


def is_truthy(value: Json) -> bool:
    """null, false, "", [] and {} count as false; every other value is true."""
    if value is None or value is False:
        return False
    if isinstance(value, (str, list, dict)) and len(value) == 0:
        return False
    return True


def to_string(value: Json) -> str:
    if isinstance(value, str):
        return value
    return jsonmodel.dumps(value)


# -- parse-time format handling -----------------------------------------

_FIELD_TOKENS = {
    "yyyy": ("year", r"\d{4}"),
    "MM": ("month", r"\d{2}"),
    "dd": ("day", r"\d{2}"),
    "HH": ("hour", r"\d{2}"),
    "mm": ("minute", r"\d{2}"),
    "ss": ("second", r"\d{2}"),
}

_ZONE_RE = r"(?:Z|[+-]\d{2}(?::?\d{2})?)"


class TimeFormat:
    """A compiled date format using yyyy MM dd HH mm ss X tokens.

    Literal text goes in single quotes; '' inside quotes is one quote.
    Fields absent from the format default to 1970-01-01 00:00:00 UTC.
    """

    def __init__(self, source: str):
        fields: list[str] = []
        parts: list[str] = []
        i = 0
        n = len(source)
        while i < n:
            ch = source[i]
            if ch == "'":
                i += 1
                lit = []
                while True:
                    if i >= n:
                        raise ValueError("unterminated quote in time format")
                    if source[i] == "'":
                        if i + 1 < n and source[i + 1] == "'":
                            lit.append("'")
                            i += 2
                            continue
                        i += 1
                        break
                    lit.append(source[i])
                    i += 1
                parts.append(_re.escape("".join(lit) or "'"))
                continue
            if ch.isalpha():
                j = i
                while j < n and source[j] == ch:
                    j += 1
                run = source[i:j]
                if run == "X":
                    fields.append("zone")
                    parts.append(f"({_ZONE_RE})")
                elif run in _FIELD_TOKENS:
                    name, pat = _FIELD_TOKENS[run]
                    fields.append(name)
                    parts.append(f"({pat})")
                else:
                    raise ValueError(f"unsupported time format token {run!r}")
                i = j
                continue
            parts.append(_re.escape(ch))
            i += 1
        if len(set(fields)) != len(fields):
            raise ValueError("time format repeats a field")
        self.source = source
        self.fields = fields
        self.regex = _re.compile("".join(parts))

    def parse(self, text: str) -> float:
        m = self.regex.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} does not match time format {self.source!r}")
        values = dict(zip(self.fields, m.groups()))
        zone = timezone.utc
        raw_zone = values.pop("zone", None)
        if raw_zone is not None and raw_zone != "Z":
            sign = 1 if raw_zone[0] == "+" else -1
            digits = raw_zone[1:].replace(":", "")
            hours, minutes = int(digits[:2]), int(digits[2:] or "0")
            zone = timezone(sign * timedelta(hours=hours, minutes=minutes))
        parts = {name: int(text) for name, text in values.items()}
        dt = datetime(
            parts.get("year", 1970),
            parts.get("month", 1),
            parts.get("day", 1),
            parts.get("hour", 0),
            parts.get("minute", 0),
            parts.get("second", 0),
            tzinfo=zone,
        )
        return dt.timestamp()


@functools.lru_cache(maxsize=512)
def compile_time_format(source: str) -> TimeFormat:
    return TimeFormat(source)


# -- the functions themselves -------------------------------------------


def _require_string(name: str, which: str, value: Json) -> str:
    if not isinstance(value, str):
        raise JsltRuntimeError(f"{name}: {which} must be a string, got {to_string(value)}")
    return value


def fn_round(args):
    (value,) = args
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JsltRuntimeError(f"round: not a number: {to_string(value)}")
    return math.floor(value + 0.5)


def fn_parse_time(args):
    value = args[0]
    fmt_src = args[1]
    if value is None:
        return None
    _require_string("parse-time", "time format", fmt_src)
    try:
        fmt = compile_time_format(fmt_src)
    except ValueError as exc:
        raise JsltRuntimeError(f"parse-time: {exc}") from None
    try:
        if not isinstance(value, str):
            raise ValueError(f"not a string: {to_string(value)}")
        stamp = fmt.parse(value)
    except (ValueError, OverflowError, OSError) as exc:
        if len(args) == 3:
            return args[2]
        raise JsltRuntimeError(f"parse-time: {exc}") from None
    if isinstance(stamp, float) and stamp.is_integer():
        return int(stamp)
    return stamp


def fn_boolean(args):
    return is_truthy(args[0])


def fn_not(args):
    return not is_truthy(args[0])


def fn_test(args):
    value, regexp = args
    if value is None:
        return False
    _require_string("test", "regexp", regexp)
    try:
        pat = compile_pattern(regexp)
    except PatternError as exc:
        raise JsltRuntimeError(f"test: {exc}") from None
    return pat.search(to_string(value))


def fn_string(args):
    return to_string(args[0])


def fn_number(args):
    value = args[0]
    fallback = args[1] if len(args) == 2 else None
    has_fallback = len(args) == 2
    if value is None:
        return None
    if isinstance(value, bool):
        if has_fallback:
            return fallback
        raise JsltRuntimeError("number: cannot convert a boolean")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            if _re.fullmatch(r"-?\d+", value):
                return int(value)
            result = float(value)
            if math.isnan(result) or math.isinf(result):
                raise ValueError(value)
            return result
        except ValueError:
            if has_fallback:
                return fallback
            raise JsltRuntimeError(f"number: cannot parse {value!r}") from None
    if has_fallback:
        return fallback
    raise JsltRuntimeError(f"number: cannot convert {to_string(value)}")


def fn_size(args):
    value = args[0]
    if value is None:
        return None
    if isinstance(value, (str, list, dict)):
        return len(value)
    raise JsltRuntimeError(f"size: no size for {to_string(value)}")


def fn_contains(args):
    element, sequence = args
    if sequence is None:
        return False
    if isinstance(sequence, list):
        return any(jsonmodel.json_equal(element, item) for item in sequence)
    if isinstance(sequence, dict):
        return isinstance(element, str) and element in sequence
    if isinstance(sequence, str):
        return to_string(element) in sequence
    raise JsltRuntimeError(f"contains: cannot search {to_string(sequence)}")


def fn_is_object(args):
    return isinstance(args[0], dict)


def fn_is_array(args):
    return isinstance(args[0], list)


_UUID_RE = _re.compile(r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}")


def fn_uuid_validate(args):
    value = args[0]
    return isinstance(value, str) and _UUID_RE.fullmatch(value) is not None


# name -> (min arity, max arity, implementation)
BUILTINS = {
    "round": (1, 1, fn_round),
    "parse-time": (2, 3, fn_parse_time),
    "boolean": (1, 1, fn_boolean),
    "not": (1, 1, fn_not),
    "test": (2, 2, fn_test),
    "string": (1, 1, fn_string),
    "number": (1, 2, fn_number),
    "size": (1, 1, fn_size),
    "contains": (2, 2, fn_contains),
    "is-object": (1, 1, fn_is_object),
    "is-array": (1, 1, fn_is_array),
    "uuid-validate": (1, 1, fn_uuid_validate),
}
