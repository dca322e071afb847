"""A small JSON transformation language.

Programs are expressions evaluated against an input value, reachable
as `.` inside the program.  Key access is total: looking up a missing
key, or a key on a non-object, gives null rather than an error.

    compile('{"id": .user.id, * - secret : .}')

`compile` checks a program and turns it into Python closures as it
parses, with no syntax tree in between (see `parser` and `compiler`).
The compiled Program is reusable and safe to share across threads.
"""

from __future__ import annotations

from ..errors import JsltRuntimeError
from .parser import parse

__all__ = ["Program", "compile"]


class Program:
    """A compiled, reusable transformation.

    `run(value, env)` is the compiled closure itself, for a caller that
    evaluates in a loop: pass a fresh `{}` as `env`, and read a
    RecursionError as the runtime error that `evaluate` makes of it.
    """

    def __init__(self, source: str, run):
        self.source = source
        self.run = run

    def evaluate(self, value):
        """The program's result for `value`; a runtime failure is a JsltRuntimeError."""
        try:
            return self.run(value, {})
        except RecursionError:  # a value built deeper than the frames left
            raise JsltRuntimeError("nesting too deep") from None


def compile(source: str) -> Program:
    """Parse and check a program, raising JsltCompileError on bad input."""
    return Program(source, parse(source))
