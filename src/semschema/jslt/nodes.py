"""AST node types produced by the parser and compiled into closures.

Every node is an immutable NamedTuple; `pos` (the first field of each
expression node) is the (line, column) of its first token, used in runtime
diagnostics.  Nodes are told apart by class, never compared with `==`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

Pos = tuple[int, int]
Node = tuple  # any of the node classes below


class Literal(NamedTuple):
    pos: Pos
    value: object  # scalar only; composite literals parse into constructors


class ContextValue(NamedTuple):
    """The current input, written as a leading dot."""

    pos: Pos


class KeyAccess(NamedTuple):
    pos: Pos
    target: Node
    key: str


class IndexAccess(NamedTuple):
    pos: Pos
    target: Node
    index: Node


class SliceAccess(NamedTuple):
    pos: Pos
    target: Node
    low: Optional[Node]
    high: Optional[Node]


class ArrayCtor(NamedTuple):
    pos: Pos
    items: tuple


class Matcher(NamedTuple):
    """Object-template rest matcher: `* - excluded, ... : expr`."""

    excluded: tuple
    value: Node
    pos: Pos


class ObjectCtor(NamedTuple):
    pos: Pos
    pairs: tuple  # of (key_expr, value_expr)
    matcher: Optional[Matcher]


class ArrayComp(NamedTuple):
    pos: Pos
    source: Node
    body: Node
    cond: Optional[Node]


class ObjectComp(NamedTuple):
    pos: Pos
    source: Node
    key: Node
    value: Node
    cond: Optional[Node]


class If(NamedTuple):
    pos: Pos
    cond: Node
    then: Node
    orelse: Optional[Node]


class Let(NamedTuple):
    pos: Pos
    name: str
    value: Node
    body: Node


class VarRef(NamedTuple):
    pos: Pos
    name: str


class Call(NamedTuple):
    pos: Pos
    name: str
    args: tuple


class Binary(NamedTuple):
    pos: Pos
    op: str
    left: Node
    right: Node


class UnaryMinus(NamedTuple):
    pos: Pos
    operand: Node
