"""Closure builders, one per production of the parser.

The parser calls a builder as it reduces each production and passes it
the closures of the production's children; the builder returns a
closure `(context, env) -> value` that evaluates the production.  A
chain of key steps becomes one closure, a literal pattern or time format
is checked and bound into its call once, and a comparison with a literal
null becomes an identity test.  `env` maps variable names to values and
carries the user-function call depth of the running evaluation, so one
program can run in many threads.  `pos` is the (line, column) that a
runtime error of the built closure reports.
"""

from __future__ import annotations

import operator

from .. import jsonmodel
from ..errors import JsltCompileError, JsltRuntimeError, PatternError
from .functions import BUILTINS, LITERAL_BINDERS, is_truthy, to_string

# A user call costs 3 or 4 frames when the call it makes stands in an
# operand, an argument or an array of its body, so a chain this deep runs
# within the default recursion limit and leaves 300 frames to its caller.
MAX_CALL_DEPTH = 150
_DEPTH = "#depth"  # '#' cannot start a variable name

_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _error(pos, message: str) -> JsltRuntimeError:
    return JsltRuntimeError(message, *pos)


def _stringify(pos, value) -> str:
    """to_string, where a value it cannot write is a runtime error at `pos`."""
    try:
        return to_string(value)
    except JsltRuntimeError as exc:
        raise _error(pos, str(exc)) from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_index(pos, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _error(pos, f"index must be a number, got {_stringify(pos, value)}")
    if not jsonmodel.is_integral(value):
        raise _error(pos, f"index must be a whole number, got {_stringify(pos, value)}")
    return int(value)


def _iter_source(pos, value):
    """Loop items of a comprehension source; None means the result is null."""
    if isinstance(value, dict):
        return [{"key": k, "value": v} for k, v in value.items()]
    if value is None or isinstance(value, list):
        return value
    raise _error(pos, f"cannot loop over {_stringify(pos, value)}")


def _absent(context, env):
    """An optional part left out, such as a missing `else` or slice bound."""
    return None


def literal(value):
    return lambda context, env: value


def context():
    return lambda context, env: context


def variable(name):
    return lambda context, env: env[name]


def let(name, value, body):
    return lambda context, env: body(context, {**env, name: value(context, env)})


def conditional(cond, then, orelse):
    orelse = orelse or _absent
    return lambda context, env: then(context, env) if is_truthy(cond(context, env)) else orelse(context, env)


def negate(pos, operand):
    def negate(context, env):
        value = operand(context, env)
        if value is None:
            return None
        if not _is_number(value):
            raise _error(pos, f"cannot negate {_stringify(pos, value)}")
        return -value

    return negate


# -- access, total over any input ------------------------------------

def key_path(keys: tuple, target):
    """One closure for a chain of key steps such as `.a.b."c"`.

    A chain that starts at `.` has no target and reads the context directly.
    """

    def key_path(context, env):
        value = context if target is None else target(context, env)
        for key in keys:
            if not isinstance(value, dict):
                return None
            value = value.get(key)
        return value

    return key_path


def index_access(pos, target, index):
    def index_access(context, env):
        value = target(context, env)
        i = index(context, env)
        if value is None or i is None:
            return None
        if isinstance(value, dict):
            if not isinstance(i, str):
                raise _error(pos, "object index must be a string")
            return value.get(i)
        if isinstance(value, (list, str)):
            i = _as_index(pos, i)
            if i < 0:
                i += len(value)
            return value[i] if 0 <= i < len(value) else None
        raise _error(pos, f"cannot index into {_stringify(pos, value)}")

    return index_access


def slice_access(pos, target, low, high):
    low = low or _absent
    high = high or _absent

    def slice_access(context, env):
        value = target(context, env)
        if value is None:
            return None
        if not isinstance(value, (list, str)):
            raise _error(pos, f"cannot slice {_stringify(pos, value)}")
        start = low(context, env)
        stop = high(context, env)
        start = None if start is None else _as_index(pos, start)
        stop = None if stop is None else _as_index(pos, stop)
        return value[start:stop]

    return slice_access


# -- constructors -----------------------------------------------------

def array_ctor(items: list):
    return lambda context, env: [item(context, env) for item in items]


def object_ctor(pairs: list, excluded: tuple, rest):
    """`pairs` holds (key position, key, value); `rest` is the `*` matcher's value, if any."""

    def object_ctor(context, env):
        result = {}
        claimed = set()
        for key_pos, key_fn, value_fn in pairs:
            key = key_fn(context, env)
            if not isinstance(key, str):
                raise _error(key_pos, f"object key must be a string, got {_stringify(key_pos, key)}")
            claimed.add(key)
            value = value_fn(context, env)
            if value is not None:
                result[key] = value
        if rest is not None and isinstance(context, dict):
            skip = claimed.union(excluded)
            for key, value in context.items():
                if key in skip:
                    continue
                # matched pairs are copied as-is, nulls included
                result[key] = rest(value, env)
        return result

    return object_ctor


def array_comp(pos, source, body, cond):
    def array_comp(context, env):
        items = _iter_source(pos, source(context, env))
        if items is None:
            return None
        return [body(item, env) for item in items if cond is None or is_truthy(cond(item, env))]

    return array_comp


def object_comp(pos, source, key_pos, key_fn, value_fn, cond):
    def object_comp(context, env):
        items = _iter_source(pos, source(context, env))
        if items is None:
            return None
        result = {}
        for item in items:
            if cond is not None and not is_truthy(cond(item, env)):
                continue
            key = key_fn(item, env)
            if not isinstance(key, str):
                raise _error(key_pos, f"object key must be a string, got {_stringify(key_pos, key)}")
            value = value_fn(item, env)
            if value is not None:
                result[key] = value
        return result

    return object_comp


# -- calls ------------------------------------------------------------

def call(pos, name: str, args: list, functions: dict, bodies: dict, literal_arg):
    """A call of a user function (`functions` maps its name to its parameters)
    or of a builtin.

    `bodies` maps user function names to their closures; calls look them up
    at run time, so a call may be built before its function's body and
    recursion works.  `literal_arg` is (value, position) when the second
    argument is a literal string: a literal `test` pattern or `parse-time`
    format is checked here, and a bad one is a compile error.
    """
    params = functions.get(name)
    if params is not None:
        low = high = len(params)
    elif name in BUILTINS:
        low, high, builtin = BUILTINS[name]
    else:
        raise JsltCompileError(f"unknown function {name!r}", *pos)
    if not low <= len(args) <= high:
        want = str(low) if low == high else f"{low} to {high}"
        raise JsltCompileError(f"{name} takes {want} argument(s), got {len(args)}", *pos)

    if params is not None:

        def user_call(context, env):
            values = [arg(context, env) for arg in args]
            depth = env.get(_DEPTH, 0)
            if depth >= MAX_CALL_DEPTH:
                raise _error(pos, f"call depth exceeds {MAX_CALL_DEPTH}")
            local = dict(zip(params, values))
            local[_DEPTH] = depth + 1
            return bodies[name](context, local)

        return user_call

    bind = LITERAL_BINDERS.get(name)
    if bind is not None and literal_arg is not None:
        value, value_pos = literal_arg
        try:
            builtin = bind(value)
        except (PatternError, ValueError) as exc:
            raise JsltCompileError(f"{name}: {exc}", *value_pos) from None

    def builtin_call(context, env):
        values = [arg(context, env) for arg in args]
        try:
            return builtin(values)
        except JsltRuntimeError as exc:
            if exc.line is None:
                raise _error(pos, str(exc)) from None
            raise

    return builtin_call


# -- operators ---------------------------------------------------------

def null_test(op: str, other):
    """`other == null` or `other != null`.

    json_equal(x, None) is exactly `x is None`; the literal side has no effect.
    """
    if op == "==":
        return lambda context, env: other(context, env) is None
    return lambda context, env: other(context, env) is not None


def binary(pos, op: str, left, right):
    if op == "and":
        return lambda context, env: is_truthy(left(context, env)) and is_truthy(right(context, env))
    if op == "or":
        return lambda context, env: is_truthy(left(context, env)) or is_truthy(right(context, env))
    if op == "==":
        return lambda context, env: jsonmodel.json_equal(left(context, env), right(context, env))
    if op == "!=":
        return lambda context, env: not jsonmodel.json_equal(left(context, env), right(context, env))
    if op in _ORDER:
        compare = _ORDER[op]

        def order(context, env):
            a = left(context, env)
            b = right(context, env)
            if not ((_is_number(a) and _is_number(b)) or (isinstance(a, str) and isinstance(b, str))):
                raise _error(pos, f"cannot order {_stringify(pos, a)} and {_stringify(pos, b)}")
            return compare(a, b)

        return order
    if op == "+":

        def plus(context, env):
            a = left(context, env)
            b = right(context, env)
            if a is None or b is None:
                return None
            if isinstance(a, str) or isinstance(b, str):
                return _stringify(pos, a) + _stringify(pos, b)
            if _is_number(a) and _is_number(b):
                return jsonmodel.canonical_number(a + b)
            if isinstance(a, list) and isinstance(b, list):
                return a + b
            if isinstance(a, dict) and isinstance(b, dict):
                # left side wins on shared keys
                return {**b, **a}
            raise _error(pos, f"cannot add {_stringify(pos, a)} and {_stringify(pos, b)}")

        return plus
    apply = _ARITHMETIC[op]

    def arithmetic(context, env):
        a = left(context, env)
        b = right(context, env)
        if a is None or b is None:
            return None
        if not _is_number(a) or not _is_number(b):
            raise _error(pos, f"cannot apply {op!r} to {_stringify(pos, a)} and {_stringify(pos, b)}")
        if op == "/" and b == 0:
            raise _error(pos, "division by zero")
        return jsonmodel.canonical_number(apply(a, b))

    return arithmetic
