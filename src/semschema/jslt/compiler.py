"""One-pass compiler from parsed programs to Python closures.

One walk over the AST checks each node (variable scope, function names
and arity, literal `test()` patterns and `parse-time` formats) and
returns a closure `(context, env) -> value` that evaluates it.  A chain
of key steps becomes one closure, a literal pattern or time format is
checked and bound into its call once, and a comparison with a literal
null becomes an identity test.  `env` maps variable names to values and
carries the user-function call depth of the running evaluation, so one
program can run in many threads.
"""

from __future__ import annotations

import operator

from .. import jsonmodel
from ..errors import JsltCompileError, JsltRuntimeError, PatternError
from . import nodes as N
from .functions import BUILTINS, LITERAL_BINDERS, is_truthy, to_string

MAX_CALL_DEPTH = 500
_DEPTH = "#depth"  # '#' cannot start a variable name

_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"-": operator.sub, "*": operator.mul, "/": operator.truediv}


def compile_program(body: N.Node, functions: dict):
    """Check a parsed program and return its top-level closure."""
    compiler = _Compiler(functions)
    for fn in functions.values():
        # function bodies see only their parameters, not top-level lets
        compiler.bodies[fn.name] = compiler.compile(fn.body, frozenset(fn.params))
    return compiler.compile(body, frozenset())


def _error(node, message: str) -> JsltRuntimeError:
    return JsltRuntimeError(message, *node.pos)


def _stringify(node, value) -> str:
    """to_string, where a value it cannot write is a runtime error at `node`."""
    try:
        return to_string(value)
    except JsltRuntimeError as exc:
        raise _error(node, str(exc)) from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_index(node, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _error(node, f"index must be a number, got {_stringify(node, value)}")
    if not jsonmodel.is_integral(value):
        raise _error(node, f"index must be a whole number, got {_stringify(node, value)}")
    return int(value)


def _iter_source(node, value):
    """Loop items of a comprehension source; None means the result is null."""
    if isinstance(value, dict):
        return [{"key": k, "value": v} for k, v in value.items()]
    if value is None or isinstance(value, list):
        return value
    raise _error(node, f"cannot loop over {_stringify(node, value)}")


def _bind_literal_arg(node: N.Call, builtin):
    """Check a literal regex or time format and bind it into the builtin.

    A bad one is a compile error; without a literal the builtin stays as is.
    """
    bind = LITERAL_BINDERS.get(node.name)
    arg = node.args[1] if len(node.args) > 1 else None
    if bind is None or not isinstance(arg, N.Literal) or not isinstance(arg.value, str):
        return builtin
    try:
        return bind(arg.value)
    except (PatternError, ValueError) as exc:
        raise JsltCompileError(f"{node.name}: {exc}", *arg.pos) from None


def _is_null(node) -> bool:
    return isinstance(node, N.Literal) and node.value is None


class _Compiler:
    def __init__(self, functions: dict):
        self.functions = functions
        # late-bound: calls look bodies up at run time, so recursion works
        self.bodies: dict = {}

    def compile(self, node: N.Node, scope: frozenset):
        # children compile in source order: the first error found is reported
        match node:
            case N.Literal(value=value):
                return lambda context, env: value
            case N.ContextValue():
                return lambda context, env: context
            case N.VarRef(name=name):
                if name not in scope:
                    raise JsltCompileError(f"undefined variable ${name}", *node.pos)
                return lambda context, env: env[name]
            case N.Let(name=name):
                value = self.compile(node.value, scope)
                body = self.compile(node.body, scope | {name})
                return lambda context, env: body(context, {**env, name: value(context, env)})
            case N.Call():
                return self.call(node, scope)
            case N.KeyAccess():
                return self.key_path(node, scope)
            case N.IndexAccess():
                return self.index(node, scope)
            case N.SliceAccess():
                return self.slice(node, scope)
            case N.ArrayCtor():
                items = [self.compile(item, scope) for item in node.items]
                return lambda context, env: [item(context, env) for item in items]
            case N.ObjectCtor():
                return self.object(node, scope)
            case N.ArrayComp():
                return self.array_comp(node, scope)
            case N.ObjectComp():
                return self.object_comp(node, scope)
            case N.If():
                cond = self.compile(node.cond, scope)
                then = self.compile(node.then, scope)
                orelse = self.optional(node.orelse, scope)
                return lambda context, env: (
                    then(context, env) if is_truthy(cond(context, env)) else orelse(context, env)
                )
            case N.UnaryMinus():
                operand = self.compile(node.operand, scope)

                def negate(context, env):
                    value = operand(context, env)
                    if value is None:
                        return None
                    if not _is_number(value):
                        raise _error(node, f"cannot negate {_stringify(node, value)}")
                    return -value

                return negate
            case N.Binary():
                return self.binary(node, scope)
        raise AssertionError(f"unhandled node {type(node).__name__}")

    def optional(self, node, scope):
        """Compile an absent child as a closure returning null."""
        if node is None:
            return lambda context, env: None
        return self.compile(node, scope)

    # -- access, total over any input ------------------------------------

    def key_path(self, node: N.KeyAccess, scope):
        """One closure for a chain of key steps such as `.a.b."c"`."""
        keys = []
        while isinstance(node, N.KeyAccess):
            keys.append(node.key)
            node = node.target
        keys = tuple(reversed(keys))
        # a chain that starts at `.` reads the context directly
        target = None if isinstance(node, N.ContextValue) else self.compile(node, scope)

        def key_path(context, env):
            value = context if target is None else target(context, env)
            for key in keys:
                if not isinstance(value, dict):
                    return None
                value = value.get(key)
            return value

        return key_path

    def index(self, node: N.IndexAccess, scope):
        target = self.compile(node.target, scope)
        index = self.compile(node.index, scope)

        def index_access(context, env):
            value = target(context, env)
            i = index(context, env)
            if value is None or i is None:
                return None
            if isinstance(value, dict):
                if not isinstance(i, str):
                    raise _error(node, "object index must be a string")
                return value.get(i)
            if isinstance(value, (list, str)):
                i = _as_index(node, i)
                if i < 0:
                    i += len(value)
                return value[i] if 0 <= i < len(value) else None
            raise _error(node, f"cannot index into {_stringify(node, value)}")

        return index_access

    def slice(self, node: N.SliceAccess, scope):
        target = self.compile(node.target, scope)
        low = self.optional(node.low, scope)
        high = self.optional(node.high, scope)

        def slice_access(context, env):
            value = target(context, env)
            if value is None:
                return None
            if not isinstance(value, (list, str)):
                raise _error(node, f"cannot slice {_stringify(node, value)}")
            start = low(context, env)
            stop = high(context, env)
            start = None if start is None else _as_index(node, start)
            stop = None if stop is None else _as_index(node, stop)
            return value[start:stop]

        return slice_access

    # -- constructors -----------------------------------------------------

    def object(self, node: N.ObjectCtor, scope):
        pairs = [
            (key_node, self.compile(key_node, scope), self.compile(value_node, scope))
            for key_node, value_node in node.pairs
        ]
        matcher = node.matcher
        rest = None if matcher is None else self.compile(matcher.value, scope)

        def object_ctor(context, env):
            result = {}
            claimed = set()
            for key_node, key_fn, value_fn in pairs:
                key = key_fn(context, env)
                if not isinstance(key, str):
                    raise _error(key_node, f"object key must be a string, got {_stringify(key_node, key)}")
                claimed.add(key)
                value = value_fn(context, env)
                if value is not None:
                    result[key] = value
            if rest is not None and isinstance(context, dict):
                skip = claimed.union(matcher.excluded)
                for key, value in context.items():
                    if key in skip:
                        continue
                    # matched pairs are copied as-is, nulls included
                    result[key] = rest(value, env)
            return result

        return object_ctor

    def array_comp(self, node: N.ArrayComp, scope):
        source = self.compile(node.source, scope)
        body = self.compile(node.body, scope)
        cond = None if node.cond is None else self.compile(node.cond, scope)

        def array_comp(context, env):
            items = _iter_source(node, source(context, env))
            if items is None:
                return None
            return [body(item, env) for item in items if cond is None or is_truthy(cond(item, env))]

        return array_comp

    def object_comp(self, node: N.ObjectComp, scope):
        source = self.compile(node.source, scope)
        key_fn = self.compile(node.key, scope)
        value_fn = self.compile(node.value, scope)
        cond = None if node.cond is None else self.compile(node.cond, scope)

        def object_comp(context, env):
            items = _iter_source(node, source(context, env))
            if items is None:
                return None
            result = {}
            for item in items:
                if cond is not None and not is_truthy(cond(item, env)):
                    continue
                key = key_fn(item, env)
                if not isinstance(key, str):
                    raise _error(node.key, f"object key must be a string, got {_stringify(node.key, key)}")
                value = value_fn(item, env)
                if value is not None:
                    result[key] = value
            return result

        return object_comp

    # -- calls ------------------------------------------------------------

    def call(self, node: N.Call, scope):
        name = node.name
        user = self.functions.get(name)
        if user is not None:
            low = high = len(user.params)
        elif name in BUILTINS:
            low, high, builtin = BUILTINS[name]
        else:
            raise JsltCompileError(f"unknown function {name!r}", *node.pos)
        if not low <= len(node.args) <= high:
            want = str(low) if low == high else f"{low} to {high}"
            raise JsltCompileError(f"{name} takes {want} argument(s), got {len(node.args)}", *node.pos)
        if user is None:
            builtin = _bind_literal_arg(node, builtin)
        args = [self.compile(arg, scope) for arg in node.args]

        if user is not None:
            params = user.params
            bodies = self.bodies

            def user_call(context, env):
                values = [arg(context, env) for arg in args]
                depth = env.get(_DEPTH, 0)
                if depth >= MAX_CALL_DEPTH:
                    raise _error(node, f"call depth exceeds {MAX_CALL_DEPTH}")
                local = dict(zip(params, values))
                local[_DEPTH] = depth + 1
                return bodies[name](context, local)

            return user_call

        def builtin_call(context, env):
            values = [arg(context, env) for arg in args]
            try:
                return builtin(values)
            except JsltRuntimeError as exc:
                if exc.line is None:
                    raise _error(node, str(exc)) from None
                raise

        return builtin_call

    # -- operators ---------------------------------------------------------

    def binary(self, node: N.Binary, scope):
        op = node.op
        left = self.compile(node.left, scope)
        right = self.compile(node.right, scope)
        if op in ("==", "!=") and (_is_null(node.left) or _is_null(node.right)):
            # json_equal(x, None) is exactly `x is None`; the literal side has no effect
            other = right if _is_null(node.left) else left
            if op == "==":
                return lambda context, env: other(context, env) is None
            return lambda context, env: other(context, env) is not None
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
                    raise _error(node, f"cannot order {_stringify(node, a)} and {_stringify(node, b)}")
                return compare(a, b)

            return order
        if op == "+":

            def plus(context, env):
                a = left(context, env)
                b = right(context, env)
                if a is None or b is None:
                    return None
                if isinstance(a, str) or isinstance(b, str):
                    return _stringify(node, a) + _stringify(node, b)
                if _is_number(a) and _is_number(b):
                    return a + b
                if isinstance(a, list) and isinstance(b, list):
                    return a + b
                if isinstance(a, dict) and isinstance(b, dict):
                    # left side wins on shared keys
                    return {**b, **a}
                raise _error(node, f"cannot add {_stringify(node, a)} and {_stringify(node, b)}")

            return plus
        apply = _ARITHMETIC[op]

        def arithmetic(context, env):
            a = left(context, env)
            b = right(context, env)
            if a is None or b is None:
                return None
            if not _is_number(a) or not _is_number(b):
                raise _error(node, f"cannot apply {op!r} to {_stringify(node, a)} and {_stringify(node, b)}")
            if op == "/" and b == 0:
                raise _error(node, "division by zero")
            return apply(a, b)

        return arithmetic
