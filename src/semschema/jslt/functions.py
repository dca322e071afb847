"""Built-in function library for the transformation language."""

from __future__ import annotations

import functools
import math
import operator
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
    try:
        return jsonmodel.dumps(value)
    except ValueError as exc:  # nested too deep, or not finite
        raise JsltRuntimeError(f"cannot stringify: {exc}") from None


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
_DATETIME_FIELDS = ("year", "month", "day", "hour", "minute", "second")
_DATETIME_DEFAULTS = ("1970", "1", "1", "0", "0", "0")  # 1970-01-01 00:00:00


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
        self.regex = _re.compile("".join(parts))
        # parse reads each datetime field from its group, or from the
        # defaults appended after the groups when the format lacks it
        self._fields = operator.itemgetter(
            *(fields.index(name) if name in fields else len(fields) + i for i, name in enumerate(_DATETIME_FIELDS))
        )
        self._zone = fields.index("zone") if "zone" in fields else None

    def parse(self, text: str) -> float:
        m = self.regex.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} does not match time format {self.source!r}")
        groups = m.groups() + _DATETIME_DEFAULTS
        zone = timezone.utc
        raw_zone = None if self._zone is None else groups[self._zone]
        if raw_zone is not None and raw_zone != "Z":
            sign = 1 if raw_zone[0] == "+" else -1
            digits = raw_zone[1:].replace(":", "")
            hours, minutes = int(digits[:2]), int(digits[2:] or "0")
            zone = timezone(sign * timedelta(hours=hours, minutes=minutes))
        year, month, day, hour, minute, second = self._fields(groups)
        dt = datetime(int(year), int(month), int(day), int(hour), int(minute), int(second), tzinfo=zone)
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
    if args[0] is None:
        return None
    fmt_src = _require_string("parse-time", "time format", args[1])
    try:
        fmt = compile_time_format(fmt_src)
    except ValueError as exc:
        raise JsltRuntimeError(f"parse-time: {exc}") from None
    return _parse_time(fmt, args)


def _parse_time(fmt: TimeFormat, args):
    value = args[0]
    if value is None:
        return None
    try:
        if not isinstance(value, str):
            # dumps, not to_string: a value it cannot write also takes the fallback
            raise ValueError(f"not a string: {jsonmodel.dumps(value)}")
        stamp = fmt.parse(value)
    except (ValueError, OverflowError, OSError) as exc:
        if len(args) == 3:
            return args[2]
        raise JsltRuntimeError(f"parse-time: {exc}") from None
    return jsonmodel.canonical_number(stamp)


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


def _test(search, args):
    value = args[0]
    return False if value is None else search(to_string(value))


def fn_string(args):
    return to_string(args[0])


# a JSON number (RFC 8259 section 6) in ASCII digits; the groups are its fraction and exponent
_NUMBER = _re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


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
            match = _NUMBER.fullmatch(value)
            if match is None:
                raise ValueError(value)
            return int(value) if match.lastindex is None else jsonmodel.finite_float(value)
        except ValueError:  # not the grammar, beyond a double's range, or more digits than int() takes
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


# name -> the implementation with its literal second argument bound; each
# raises PatternError or ValueError for a bad pattern or time format
LITERAL_BINDERS = {
    "test": lambda regexp: functools.partial(_test, compile_pattern(regexp).search),
    "parse-time": lambda fmt: functools.partial(_parse_time, compile_time_format(fmt)),
}

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
