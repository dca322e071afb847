"""AST node types produced by the parser and compiled into closures.

Nodes are immutable after compilation; `pos` is the (line, column) of the
first token of the expression, used in runtime diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

Pos = tuple[int, int]


@dataclass(frozen=True)
class Node:
    pos: Pos


@dataclass(frozen=True)
class Literal(Node):
    value: object  # scalar only; composite literals parse into constructors


@dataclass(frozen=True)
class ContextValue(Node):
    """The current input, written as a leading dot."""


@dataclass(frozen=True)
class KeyAccess(Node):
    target: Node
    key: str


@dataclass(frozen=True)
class IndexAccess(Node):
    target: Node
    index: Node


@dataclass(frozen=True)
class SliceAccess(Node):
    target: Node
    low: Optional[Node]
    high: Optional[Node]


@dataclass(frozen=True)
class ArrayCtor(Node):
    items: tuple


@dataclass(frozen=True)
class Matcher:
    """Object-template rest matcher: `* - excluded, ... : expr`."""

    excluded: tuple
    value: Node
    pos: Pos


@dataclass(frozen=True)
class ObjectCtor(Node):
    pairs: tuple  # of (key_expr, value_expr)
    matcher: Optional[Matcher]


@dataclass(frozen=True)
class ArrayComp(Node):
    source: Node
    body: Node
    cond: Optional[Node]


@dataclass(frozen=True)
class ObjectComp(Node):
    source: Node
    key: Node
    value: Node
    cond: Optional[Node]


@dataclass(frozen=True)
class If(Node):
    cond: Node
    then: Node
    orelse: Optional[Node]


@dataclass(frozen=True)
class Let(Node):
    name: str
    value: Node
    body: Node


@dataclass(frozen=True)
class VarRef(Node):
    name: str


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class UnaryMinus(Node):
    operand: Node
