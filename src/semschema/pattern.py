r"""Shared regular-expression dialect for matching and string generation.

One dialect serves three consumers: the jslt `test()` builtin, schema
property patterns in the validator, and random string generation in the
event generator. The dialect is the non-backtracking core: literals,
character classes (with ranges and negation), `.`, anchors at the ends,
`* + ? {m,n}` quantifiers, alternation, and grouping. Back-references,
lookaround, named groups, and inline flags are rejected explicitly.

Matching is delegated to the stdlib `re` engine, which accepts more than
ECMA-262 does (ROADMAP item 3): `^[a-z]+$` matches "abc\n", and `^\d+$`
"٣٣" and `^\w+$` "é", as `$` matches before a final newline and `\d` and
`\w` are Unicode classes on str. Generation runs a tree of closures
built once per pattern from the parsed AST, with ASCII classes, so every
generated string matches. Each class and `.` holds its pool of
characters, and `draw_chars` draws every character, a whole repeated run
in one call, by the rule `Random.choice` uses on CPython 3.10-3.13; repeat
counts and alternation still come from `randint` and `randrange`. So each
string is the one the earlier per-character AST walk drew, for every seed.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from typing import NamedTuple, Union

from .errors import PatternError

_PRINTABLE = "".join(chr(c) for c in range(32, 127))

_CLASS_D = frozenset("0123456789")
_CLASS_W = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_CLASS_S = frozenset(" \t\n\r\f\v")

_ESCAPABLE = set("\\.*+?()[]{}|^$/:-\"' @#,&!=<>~%;_")

# the escapes that stand for a class, in and outside classes; outside, the
# upper-case letter negates the class
_CLASS_ESCAPES = {"d": _CLASS_D, "w": _CLASS_W, "s": _CLASS_S}
_CHAR_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}

# The AST nodes are NamedTuples, cheap to define at import. Dispatch on
# them with isinstance: as tuples, Seq(x) == Alt(x) and Dot() is falsy.


class Lit(NamedTuple):
    char: str


class CharClass(NamedTuple):
    chars: frozenset
    negated: bool = False


class Dot(NamedTuple):
    pass


class Seq(NamedTuple):
    items: tuple


class Alt(NamedTuple):
    branches: tuple


class Repeat(NamedTuple):
    item: "Node"
    min: int
    max: int | None  # None = unbounded


Node = Union[Lit, CharClass, Dot, Seq, Alt, Repeat]


# The parser, re.compile and generation recurse per group level, about 4
# frames a level (246 levels are the most that compile from an empty stack
# at the default recursion limit); at this bound a pattern still fits in a
# schema nested as deep as jsonmodel.MAX_DEPTH allows, and in a JSLT
# program nested as deep as jslt.parser.MAX_NESTING allows.
MAX_GROUP_DEPTH = 64
# an error quotes at most this many characters of the pattern, and its offset
_QUOTED_CHARS = 64


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0  # groups open at the cursor

    def error(self, message: str) -> PatternError:
        quoted = repr(self.src[:_QUOTED_CHARS]) + ("..." if len(self.src) > _QUOTED_CHARS else "")
        return PatternError(f"{message} in pattern {quoted} at offset {self.pos}")

    def peek(self) -> str | None:
        return self.src[self.pos] if self.pos < len(self.src) else None

    def take(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        return ch

    def parse(self) -> Node:
        # the anchors are left to the matcher; generation ignores them
        if self.peek() == "^":
            self.take()
        node = self.alternation()
        if self.peek() == "$":
            self.take()
        if self.pos != len(self.src):
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def alternation(self) -> Node:
        branches = [self.sequence()]
        while self.peek() == "|":
            self.take()
            branches.append(self.sequence())
        if len(branches) == 1:
            return branches[0]
        return Alt(tuple(branches))

    def sequence(self) -> Node:
        items: list[Node] = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            if ch == "$" and self._at_top_level_end():
                break
            items.append(self.quantified())
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))

    def _at_top_level_end(self) -> bool:
        # `$` is only an anchor when it closes the whole pattern
        return self.src[self.pos :] == "$"

    def quantified(self) -> Node:
        atom = self.atom()
        ch = self.peek()
        if ch == "*":
            self.take()
            node = Repeat(atom, 0, None)
        elif ch == "+":
            self.take()
            node = Repeat(atom, 1, None)
        elif ch == "?":
            self.take()
            node = Repeat(atom, 0, 1)
        elif ch == "{":
            node = Repeat(atom, *self.bounds())
        else:
            return atom
        # a lazy suffix describes the same language; accept and ignore
        if self.peek() == "?":
            self.take()
        return node

    def bounds(self) -> tuple[int, int | None]:
        self.take()  # {
        body = ""
        while self.peek() not in (None, "}"):
            body += self.take()
        if self.peek() is None:
            raise self.error("unclosed {")
        self.take()
        if not re.fullmatch(r"\d+(,\d*)?", body):
            raise self.error(f"bad repetition bounds {{{body}}}")
        if "," in body:
            lo, hi = body.split(",", 1)
            low = int(lo)
            high = int(hi) if hi else None
        else:
            low = high = int(body)
        if high is not None and high < low:
            raise self.error(f"repetition bounds out of order {{{body}}}")
        return low, high

    def atom(self) -> Node:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise self.error(f"groups nested deeper than {MAX_GROUP_DEPTH}")
            self.take()
            if self.peek() == "?":
                self.take()
                if self.peek() == ":":
                    self.take()
                else:
                    raise self.error("unsupported construct: lookaround or named group")
            self.depth += 1
            inner = self.alternation()
            self.depth -= 1
            if self.peek() != ")":
                raise self.error("unclosed group")
            self.take()
            return inner
        if ch == "[":
            return self.char_class()
        if ch == ".":
            self.take()
            return Dot()
        if ch == "\\":
            return self.escape()
        if ch == "^":
            raise self.error("'^' is only supported at the start of the pattern")
        if ch == "$":
            raise self.error("'$' is only supported at the end of the pattern")
        if ch in "*+?{":
            raise self.error(f"quantifier {ch!r} with nothing to repeat")
        self.take()
        return Lit(ch)

    def escape(self) -> Node:
        letter = self.src[self.pos + 1 : self.pos + 2]
        if letter in ("D", "W", "S"):
            self.pos += 2
            return CharClass(_CLASS_ESCAPES[letter.lower()], negated=True)
        member = self._escaped("")
        return Lit(member) if isinstance(member, str) else CharClass(member)

    def _escaped(self, where: str) -> str | frozenset:
        """The backslash escape at the cursor: one character, or a class's members.

        `where` ends the texts of the errors that differ inside a class.
        """
        self.take()  # backslash
        ch = self.peek()
        if ch is None:
            raise self.error("dangling backslash" + where)
        self.take()
        if ch in _CLASS_ESCAPES:
            return _CLASS_ESCAPES[ch]
        if ch in _CHAR_ESCAPES:
            return _CHAR_ESCAPES[ch]
        if ch.isdigit():
            raise self.error("unsupported construct: back-reference")
        if ch in _ESCAPABLE:
            return ch
        raise self.error(f"unsupported escape \\{ch}{where}")

    def char_class(self) -> Node:
        self.take()  # [
        negated = False
        if self.peek() == "^":
            negated = True
            self.take()
        chars: set[str] = set()
        first = True
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unclosed character class")
            if ch == "]" and not first:
                self.take()
                break
            first = False
            member = self._class_member()
            if self.peek() == "-" and self.src[self.pos + 1 : self.pos + 2] not in ("]", ""):
                self.take()
                if isinstance(member, frozenset):
                    raise self.error("range endpoint cannot be a class escape")
                end = self._class_member()
                if isinstance(end, frozenset):
                    raise self.error("range endpoint cannot be a class escape")
                if ord(member) > ord(end):
                    raise self.error(f"range {member}-{end} out of order")
                chars.update(chr(c) for c in range(ord(member), ord(end) + 1))
            elif isinstance(member, frozenset):
                chars.update(member)
            else:
                chars.add(member)
        if not chars:
            raise self.error("empty character class")
        return CharClass(frozenset(chars), negated=negated)

    def _class_member(self) -> str | frozenset:
        return self._escaped(" in class") if self.peek() == "\\" else self.take()


def draw_chars(rng: random.Random, pool: str, count: int) -> str:
    """`count` characters of `pool`, each drawn as `rng.choice(pool)` draws it.

    An index is `rng.getrandbits(len(pool).bit_length())`, drawn again
    while it is out of range: the rule by which `Random.choice` picks an
    index on CPython 3.10-3.13. The random module keeps the right to change
    that rule (https://docs.python.org/3/library/random.html#notes-on-reproducibility),
    so it is fixed here, and a whole run costs one call.
    """
    size = len(pool)
    if not size:
        raise IndexError("cannot draw from an empty pool")
    bits = size.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        out.append(pool[index])
    return "".join(out)


def _pool(node: Node) -> str | None:
    """The characters a class or `.` draws from, in draw order; None for other nodes."""
    if isinstance(node, Dot):
        return _PRINTABLE
    if isinstance(node, CharClass):
        if node.negated:
            return "".join(c for c in _PRINTABLE if c not in node.chars)
        return "".join(sorted(node.chars))
    return None


class CompiledPattern:
    """A dialect-checked pattern that can both match and generate."""

    # extra repetitions allowed above `min` for unbounded quantifiers
    UNBOUNDED_EXTRA = 3

    def __init__(self, source: str):
        self.source = source
        root = _Parser(source).parse()
        try:
            self._regex = re.compile(source)
        except (re.error, OverflowError) as exc:  # OverflowError: a repeat count of 2**32 - 1 or more
            raise PatternError(f"pattern rejected by matcher: {exc}") from exc
        self._generate = self._compile(root)

    def search(self, text: str) -> bool:
        """True iff the pattern finds a match anywhere in `text`."""
        return self._regex.search(text) is not None

    def generate(self, rng: random.Random) -> str:
        """A random string in the pattern's language, deterministic per RNG state."""
        return self._generate(rng)

    def _compile(self, node: Node):
        """One closure `rng -> str` per node; each draws what the node's language needs."""
        if isinstance(node, Lit):
            return _constant(node.char)
        pool = _pool(node)
        if pool == "":
            source = self.source

            def empty(rng):
                raise PatternError(f"class excludes every printable character in {source!r}")

            return empty
        if pool:
            return lambda rng: draw_chars(rng, pool, 1)
        if isinstance(node, Seq):
            parts = []
            for literal, items in itertools.groupby(node.items, lambda item: isinstance(item, Lit)):
                if literal:
                    parts.append(_constant("".join(item.char for item in items)))
                else:
                    parts.extend(self._compile(item) for item in items)
            if len(parts) == 1:
                return parts[0]
            return lambda rng: "".join([part(rng) for part in parts])
        if isinstance(node, Alt):
            branches = [self._compile(branch) for branch in node.branches]
            count = len(branches)
            return lambda rng: branches[rng.randrange(count)](rng)
        if isinstance(node, Repeat):
            low = node.min
            high = node.max if node.max is not None else low + self.UNBOUNDED_EXTRA
            pool = _pool(node.item)
            if pool:
                return lambda rng: draw_chars(rng, pool, rng.randint(low, high))
            item = self._compile(node.item)
            return lambda rng: "".join([item(rng) for _ in range(rng.randint(low, high))])
        raise AssertionError(f"unhandled node {node!r}")


def _constant(text: str):
    return lambda rng: text


@functools.lru_cache(maxsize=512)
def compile_pattern(source: str) -> CompiledPattern:
    """Parse and validate `source` against the dialect.

    Compiled patterns are immutable and cached by source text.

    Raises:
        PatternError: for syntax errors and for constructs outside the
            dialect (back-references, lookaround, mid-pattern anchors).
    """
    return CompiledPattern(source)


def generate_from_pattern(source: str, seed: int) -> str:
    """A string matching `source`, a pure function of (source, seed)."""
    return compile_pattern(source).generate(random.Random(seed))
