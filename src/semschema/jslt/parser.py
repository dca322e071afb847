"""Recursive-descent parser: tokens to AST, plus the user-function table."""

from __future__ import annotations

from typing import NamedTuple

from ..errors import JsltCompileError
from .lexer import Token, tokenize
from . import nodes as N

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

# tokens usable as a bare object key after a dot (keywords allowed: `.for`)
# Keys after '.' are bare identifiers or quoted strings. Keyword-named
# keys must use the quoted form; a bare keyword key would swallow the
# following comprehension filter or else branch.
_KEYISH = {"ident", "string"}

MAX_NESTING = 500


class UserFunction(NamedTuple):
    name: str
    params: tuple
    body: N.Node
    pos: N.Pos


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

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

    # -- program ---------------------------------------------------------

    def parse_program(self) -> tuple[N.Node, dict[str, UserFunction]]:
        functions: dict[str, UserFunction] = {}
        lets: list[tuple[str, N.Node, N.Pos]] = []
        while self.at("def") or self.at("let"):
            if self.at("def"):
                fn = self.parse_def()
                if fn.name in functions:
                    raise JsltCompileError(f"function {fn.name!r} defined twice", *fn.pos)
                functions[fn.name] = fn
            else:
                lets.append(self.parse_let())
        body = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise JsltCompileError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        for name, value, pos in reversed(lets):
            body = N.Let(pos, name, value, body)
        return body, functions

    def parse_def(self) -> UserFunction:
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
        body = self.parse_branch()
        return UserFunction(name.text, tuple(params), body, (tok.line, tok.col))

    def parse_let(self) -> tuple[str, N.Node, N.Pos]:
        tok = self.expect("let")
        name = self.expect("ident")
        self.expect("=")
        return name.text, self.parse_expr(), (tok.line, tok.col)

    def parse_branch(self) -> N.Node:
        """An expression optionally preceded by let bindings."""
        lets = []
        while self.at("let"):
            lets.append(self.parse_let())
        body = self.parse_expr()
        for name, value, pos in reversed(lets):
            body = N.Let(pos, name, value, body)
        return body

    # -- expressions, by precedence --------------------------------------

    def parse_expr(self) -> N.Node:
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise JsltCompileError(f"expression nesting exceeds {MAX_NESTING}", tok.line, tok.col)
        try:
            return self.parse_or()
        finally:
            self.depth -= 1

    def parse_or(self) -> N.Node:
        left = self.parse_and()
        while self.at("or"):
            tok = self.next()
            left = N.Binary((tok.line, tok.col), "or", left, self.parse_and())
        return left

    def parse_and(self) -> N.Node:
        left = self.parse_comparison()
        while self.at("and"):
            tok = self.next()
            left = N.Binary((tok.line, tok.col), "and", left, self.parse_comparison())
        return left

    def parse_comparison(self) -> N.Node:
        left = self.parse_additive()
        if self.peek().kind in _COMPARISON_OPS:
            tok = self.next()
            left = N.Binary((tok.line, tok.col), tok.kind, left, self.parse_additive())
            again = self.peek()
            if again.kind in _COMPARISON_OPS:
                raise JsltCompileError("comparisons cannot be chained", again.line, again.col)
        return left

    def parse_additive(self) -> N.Node:
        left = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            left = N.Binary((tok.line, tok.col), tok.kind, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> N.Node:
        left = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            left = N.Binary((tok.line, tok.col), tok.kind, left, self.parse_unary())
        return left

    def parse_unary(self) -> N.Node:
        if self.at("-"):
            tok = self.next()
            return N.UnaryMinus((tok.line, tok.col), self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> N.Node:
        node = self.parse_primary()
        while True:
            if self.at("."):
                dot = self.next()
                node = N.KeyAccess((dot.line, dot.col), node, self.parse_key())
            elif self.at("["):
                node = self.parse_bracket(node)
            else:
                return node

    def parse_key(self) -> str:
        tok = self.peek()
        if tok.kind not in _KEYISH:
            raise JsltCompileError(f"expected a key after '.', found {tok.text!r}", tok.line, tok.col)
        self.next()
        return tok.value if tok.kind == "string" else tok.text

    def parse_bracket(self, target: N.Node) -> N.Node:
        tok = self.expect("[")
        pos = (tok.line, tok.col)
        if self.at(":"):
            self.next()
            high = None if self.at("]") else self.parse_expr()
            self.expect("]")
            return N.SliceAccess(pos, target, None, high)
        first = self.parse_expr()
        if self.at(":"):
            self.next()
            high = None if self.at("]") else self.parse_expr()
            self.expect("]")
            return N.SliceAccess(pos, target, first, high)
        self.expect("]")
        return N.IndexAccess(pos, target, first)

    def parse_primary(self) -> N.Node:
        tok = self.peek()
        pos = (tok.line, tok.col)
        kind = tok.kind
        if kind == "number" or kind == "string":
            self.next()
            return N.Literal(pos, tok.value)
        if kind == "true":
            self.next()
            return N.Literal(pos, True)
        if kind == "false":
            self.next()
            return N.Literal(pos, False)
        if kind == "null":
            self.next()
            return N.Literal(pos, None)
        if kind == ".":
            self.next()
            node: N.Node = N.ContextValue(pos)
            if self.peek().kind in _KEYISH:
                node = N.KeyAccess(pos, node, self.parse_key())
            return node
        if kind == "var":
            self.next()
            return N.VarRef(pos, tok.value)
        if kind == "if":
            return self.parse_if()
        if kind == "[":
            return self.parse_array()
        if kind == "{":
            return self.parse_object()
        if kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "ident":
            if self.peek(1).kind == "(":
                return self.parse_call()
            raise JsltCompileError(
                f"bare identifier {tok.text!r} (did you mean .{tok.text} or ${tok.text}?)", tok.line, tok.col
            )
        raise JsltCompileError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse_call(self) -> N.Node:
        name = self.next()
        self.expect("(")
        args: list[N.Node] = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return N.Call((name.line, name.col), name.text, tuple(args))

    def parse_if(self) -> N.Node:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_branch()
        orelse = None
        if self.at("else"):
            self.next()
            orelse = self.parse_branch()
        return N.If((tok.line, tok.col), cond, then, orelse)

    def parse_array(self) -> N.Node:
        tok = self.expect("[")
        pos = (tok.line, tok.col)
        if self.at("for"):
            self.next()
            self.expect("(")
            source = self.parse_expr()
            self.expect(")")
            body = self.parse_expr()
            cond = self.parse_comp_cond()
            self.expect("]")
            return N.ArrayComp(pos, source, body, cond)
        items: list[N.Node] = []
        if not self.at("]"):
            items.append(self.parse_expr())
            while self.at(","):
                self.next()
                items.append(self.parse_expr())
        self.expect("]")
        return N.ArrayCtor(pos, tuple(items))

    def parse_object(self) -> N.Node:
        tok = self.expect("{")
        pos = (tok.line, tok.col)
        if self.at("for"):
            self.next()
            self.expect("(")
            source = self.parse_expr()
            self.expect(")")
            key = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            cond = self.parse_comp_cond()
            self.expect("}")
            return N.ObjectComp(pos, source, key, value, cond)
        lets = []
        while self.at("let"):
            lets.append(self.parse_let())
            if self.at(","):
                self.next()
        pairs: list[tuple[N.Node, N.Node]] = []
        matcher = None
        if not self.at("}"):
            while True:
                if self.at("*"):
                    matcher = self.parse_matcher()
                    if self.at(","):
                        comma = self.peek()
                        raise JsltCompileError("the '*' matcher must be the last entry", comma.line, comma.col)
                    break
                key = self.parse_expr()
                self.expect(":")
                pairs.append((key, self.parse_expr()))
                if self.at(","):
                    self.next()
                else:
                    break
        self.expect("}")
        node: N.Node = N.ObjectCtor(pos, tuple(pairs), matcher)
        for name, value, let_pos in reversed(lets):
            node = N.Let(let_pos, name, value, node)
        return node

    def parse_matcher(self) -> N.Matcher:
        star = self.expect("*")
        excluded: list[str] = []
        if self.at("-"):
            self.next()
            excluded.append(self.parse_key())
            while self.at(","):
                self.next()
                excluded.append(self.parse_key())
        self.expect(":")
        value = self.parse_expr()
        return N.Matcher(tuple(excluded), value, (star.line, star.col))

    def parse_comp_cond(self) -> N.Node | None:
        if not self.at("if"):
            return None
        self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return cond


def parse(source: str) -> tuple[N.Node, dict[str, UserFunction]]:
    return Parser(source).parse_program()
