"""Recursive-descent parser that builds a program's closures as it parses.

Each production is reduced straight to a closure by a builder in
`compiler`; no syntax tree is kept.  What a builder needs beyond its
children's closures, the parser tracks as it goes: the variables in
scope, the user functions, which closures are literals or chains of key
steps, and the position of each closure's node.

A syntax error is raised where it is found.  A semantic error (an
undefined variable, an unknown function, a wrong argument count, a bad
literal pattern or time format) is held until the parse ends, so a
syntax error anywhere is reported first.  Of the held errors, the first
found in a `def` body wins, then the first in the top-level lets and
body, in source order, except that a call's own error replaces any
found in its arguments.
"""

from __future__ import annotations

from ..errors import JsltCompileError
from . import compiler as build
from .lexer import Token, tokenize

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

# Keys after '.' are bare identifiers or quoted strings. Keyword-named
# keys must use the quoted form; a bare keyword key would swallow the
# following comprehension filter or else branch.
_KEYISH = {"ident", "string"}

_CONSTANTS = {"true": True, "false": False, "null": None}

MAX_NESTING = 500


def _def_params(tokens: list[Token]) -> dict[str, tuple]:
    """The parameters of each `def name(params)` header.

    Read from the tokens ahead of the parse, so that a call may come before
    the def it calls.  A header this misreads is a syntax error of the parse.
    """
    functions = {}
    for i, tok in enumerate(tokens):
        if tok.kind == "def" and tokens[i + 1].kind == "ident" and tokens[i + 2].kind == "(":
            params = []
            j = i + 3
            while tokens[j].kind == "ident":
                params.append(tokens[j].text)
                if tokens[j + 1].kind != ",":
                    break
                j += 2
            functions[tokens[i + 1].text] = tuple(params)
    return functions


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0
        self.functions = _def_params(self.tokens)
        self.bodies: dict = {}  # user function name -> closure of its body
        self.scope = frozenset()  # variables visible at this point
        self.error = None  # first held error of the def body or top level being parsed
        self.def_error = None  # first held error of any def body
        self.node_pos: dict = {}  # closure -> its node's (line, column)
        self.literals: dict = {}  # literal closure -> its value
        self.paths: dict = {}  # key path or `.` closure -> (keys, target closure or None for `.`)

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise JsltCompileError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # -- building --------------------------------------------------------

    def node(self, tok: Token, fn):
        """Record `tok` as the position of `fn`'s node."""
        self.node_pos[fn] = (tok.line, tok.col)
        return fn

    def wrap_lets(self, lets: list, body):
        for tok, name, value in reversed(lets):
            body = self.node(tok, build.let(name, value, body))
        return body

    # -- program ---------------------------------------------------------

    def parse_program(self):
        lets = []
        while self.at("def") or self.at("let"):
            if self.at("def"):
                self.parse_def()
            else:
                lets.append(self.parse_let())
        body = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise JsltCompileError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        error = self.error if self.def_error is None else self.def_error
        if error is not None:
            raise error
        return self.wrap_lets(lets, body)

    def parse_def(self) -> None:
        tok = self.expect("def")
        name = self.expect("ident")
        self.expect("(")
        params: list[str] = []
        if not self.at(")"):
            params.append(self.expect("ident").text)
            while self.at(","):
                self.next()
                params.append(self.expect("ident").text)
        self.expect(")")
        if len(set(params)) != len(params):
            raise JsltCompileError(f"duplicate parameter in {name.text!r}", name.line, name.col)
        outer = self.scope, self.error
        # function bodies see only their parameters, not top-level lets
        self.scope, self.error = frozenset(params), None
        body = self.parse_branch()
        if self.def_error is None:
            self.def_error = self.error
        self.scope, self.error = outer
        if name.text in self.bodies:
            raise JsltCompileError(f"function {name.text!r} defined twice", tok.line, tok.col)
        self.bodies[name.text] = body

    def parse_let(self) -> tuple:
        """One binding, in scope from here on; the caller wraps it around its body."""
        tok = self.expect("let")
        name = self.expect("ident").text
        self.expect("=")
        value = self.parse_expr()
        self.scope |= {name}
        return tok, name, value

    def parse_branch(self):
        """An expression optionally preceded by let bindings."""
        scope = self.scope
        lets = []
        while self.at("let"):
            lets.append(self.parse_let())
        body = self.parse_expr()
        self.scope = scope
        return self.wrap_lets(lets, body)

    # -- expressions, by precedence --------------------------------------

    def parse_expr(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise JsltCompileError(f"expression nesting exceeds {MAX_NESTING}", tok.line, tok.col)
        try:
            return self.parse_or()
        finally:
            self.depth -= 1

    def parse_or(self):
        left = self.parse_and()
        while self.at("or"):
            left = self.binary(self.next(), left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_comparison()
        while self.at("and"):
            left = self.binary(self.next(), left, self.parse_comparison())
        return left

    def parse_comparison(self):
        left = self.parse_additive()
        if self.peek().kind in _COMPARISON_OPS:
            left = self.binary(self.next(), left, self.parse_additive())
            again = self.peek()
            if again.kind in _COMPARISON_OPS:
                raise JsltCompileError("comparisons cannot be chained", again.line, again.col)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            left = self.binary(self.next(), left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            left = self.binary(self.next(), left, self.parse_unary())
        return left

    def binary(self, tok: Token, left, right):
        op = tok.kind
        if op in ("==", "!=") and (self.is_null(left) or self.is_null(right)):
            return self.node(tok, build.null_test(op, right if self.is_null(left) else left))
        return self.node(tok, build.binary((tok.line, tok.col), op, left, right))

    def is_null(self, fn) -> bool:
        return fn in self.literals and self.literals[fn] is None

    def parse_unary(self):
        if self.at("-"):
            tok = self.next()
            return self.node(tok, build.negate((tok.line, tok.col), self.parse_unary()))
        return self.parse_postfix()

    def parse_postfix(self):
        fn = self.parse_primary()
        while True:
            if self.at("."):
                dot = self.next()
                fn = self.key_step(dot, fn, self.parse_key())
            elif self.at("["):
                fn = self.parse_bracket(fn)
            else:
                return fn

    def key_step(self, dot: Token, target, key: str):
        """`target.key`: one key path with the steps of `target`'s chain, if it is one."""
        keys, start = self.paths.get(target, ((), target))
        keys += (key,)
        fn = self.node(dot, build.key_path(keys, start))
        self.paths[fn] = keys, start
        return fn

    def parse_key(self) -> str:
        tok = self.peek()
        if tok.kind not in _KEYISH:
            raise JsltCompileError(f"expected a key after '.', found {tok.text!r}", tok.line, tok.col)
        self.next()
        return tok.value if tok.kind == "string" else tok.text

    def parse_bracket(self, target):
        tok = self.expect("[")
        pos = (tok.line, tok.col)
        low = None
        if not self.at(":"):
            low = self.parse_expr()
            if not self.at(":"):
                self.expect("]")
                return self.node(tok, build.index_access(pos, target, low))
        self.next()
        high = None if self.at("]") else self.parse_expr()
        self.expect("]")
        return self.node(tok, build.slice_access(pos, target, low, high))

    def parse_primary(self):
        tok = self.peek()
        kind = tok.kind
        if kind == "number" or kind == "string" or kind in _CONSTANTS:
            self.next()
            value = _CONSTANTS.get(kind, tok.value)
            fn = self.node(tok, build.literal(value))
            self.literals[fn] = value
            return fn
        if kind == ".":
            self.next()
            fn = self.node(tok, build.context())
            self.paths[fn] = (), None
            if self.peek().kind in _KEYISH:
                fn = self.key_step(tok, fn, self.parse_key())
            return fn
        if kind == "var":
            self.next()
            if tok.value not in self.scope and self.error is None:
                self.error = JsltCompileError(f"undefined variable ${tok.value}", tok.line, tok.col)
            return self.node(tok, build.variable(tok.value))
        if kind == "if":
            self.next()
            cond = self.parse_parenthesised()
            then = self.parse_branch()
            orelse = None
            if self.at("else"):
                self.next()
                orelse = self.parse_branch()
            return self.node(tok, build.conditional(cond, then, orelse))
        if kind == "[":
            return self.parse_array()
        if kind == "{":
            return self.parse_object()
        if kind == "(":
            return self.parse_parenthesised()
        if kind == "ident":
            if self.peek(1).kind == "(":
                return self.parse_call()
            raise JsltCompileError(
                f"bare identifier {tok.text!r} (did you mean .{tok.text} or ${tok.text}?)", tok.line, tok.col
            )
        raise JsltCompileError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse_parenthesised(self):
        self.expect("(")
        inner = self.parse_expr()
        self.expect(")")
        return inner

    def parse_call(self):
        name = self.next()
        held = self.error
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        second = args[1] if len(args) > 1 else None
        literal_arg = None
        if isinstance(self.literals.get(second), str):
            literal_arg = self.literals[second], self.node_pos[second]
        pos = (name.line, name.col)
        try:
            fn = build.call(pos, name.text, args, self.functions, self.bodies, literal_arg)
        except JsltCompileError as exc:
            # the call's own error comes before any error in its arguments
            self.error = exc if held is None else held
            fn = build.literal(None)  # a stand-in, never run: the parse ends in the held error
        return self.node(name, fn)

    def parse_array(self):
        tok = self.expect("[")
        if self.at("for"):
            self.next()
            source = self.parse_parenthesised()
            body = self.parse_expr()
            cond = self.parse_comp_cond()
            self.expect("]")
            return self.node(tok, build.array_comp((tok.line, tok.col), source, body, cond))
        items = []
        if not self.at("]"):
            items.append(self.parse_expr())
            while self.at(","):
                self.next()
                items.append(self.parse_expr())
        self.expect("]")
        return self.node(tok, build.array_ctor(items))

    def parse_object(self):
        tok = self.expect("{")
        if self.at("for"):
            self.next()
            source = self.parse_parenthesised()
            key = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            cond = self.parse_comp_cond()
            self.expect("}")
            fn = build.object_comp((tok.line, tok.col), source, self.node_pos[key], key, value, cond)
            return self.node(tok, fn)
        scope = self.scope
        lets = []
        while self.at("let"):
            lets.append(self.parse_let())
            if self.at(","):
                self.next()
        pairs = []
        excluded, rest = (), None
        if not self.at("}"):
            while True:
                if self.at("*"):
                    excluded, rest = self.parse_matcher()
                    if self.at(","):
                        comma = self.peek()
                        raise JsltCompileError("the '*' matcher must be the last entry", comma.line, comma.col)
                    break
                key = self.parse_expr()
                self.expect(":")
                pairs.append((self.node_pos[key], key, self.parse_expr()))
                if self.at(","):
                    self.next()
                else:
                    break
        self.expect("}")
        self.scope = scope
        return self.wrap_lets(lets, self.node(tok, build.object_ctor(pairs, excluded, rest)))

    def parse_matcher(self) -> tuple:
        """`* - excluded, ... : value`, as the excluded keys and the value's closure."""
        self.expect("*")
        excluded: list[str] = []
        if self.at("-"):
            self.next()
            excluded.append(self.parse_key())
            while self.at(","):
                self.next()
                excluded.append(self.parse_key())
        self.expect(":")
        return tuple(excluded), self.parse_expr()

    def parse_comp_cond(self):
        if not self.at("if"):
            return None
        self.next()
        return self.parse_parenthesised()


def parse(source: str):
    """Check a program and return the closure that evaluates it."""
    return Parser(source).parse_program()
