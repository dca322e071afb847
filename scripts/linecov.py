"""The statements of src/semschema that a pytest run never executes, per module.

    python3 scripts/linecov.py [PYTEST_ARGS...]

Runs pytest in this process, by default over `tests` with `-q`, under a
line tracer that `sys.settrace` and `threading.settrace` install and that
records only frames whose code lies under `src/semschema`.  A statement
counts if a bytecode instruction starts on one of its own lines (those not
inside a statement it holds), and it ran if any of those lines ran.  Prints
one line per module that has a statement never run, `<module>: <not run>
of <statements>: <first lines>`, and then the totals, and exits with
pytest's exit code.

Child processes, such as a test that runs the CLI in a fresh interpreter,
are not followed, so code that only they run is listed as not run.  Under
the tracer tier-1 runs about twice as long.  Standard library only.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "semschema")


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement of `path` that holds an instruction: first line -> its own lines that start one."""
    source = path.read_text(encoding="utf-8")
    starts = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = starts.intersection(range(node.lineno, node.end_lineno + 1)).difference(*(
                range(inner.lineno, inner.end_lineno + 1) for inner in _held(node)))
            if own:
                found[node.lineno] = own
    return found


def _held(node: ast.AST):
    """The statements that `node` holds, outermost only."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _held(child)


def ranges(lines: list[int]) -> str:
    """`[1, 2, 3, 7]` as `1-3, 7`."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each file under PACKAGE."""
    seen: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        lines = seen.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    class Retrace:
        """Puts the tracer back as each test starts: CPython drops a trace
        function that raises, as one called at the recursion limit does."""

        def pytest_runtest_setup(self, item):
            sys.settrace(trace)

        pytest_runtest_call = pytest_runtest_setup

    import pytest

    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = run(argv or ["-q", "tests"])
    total = missed = 0
    for path in sorted(Path(PACKAGE).rglob("*.py")):
        wanted = statements(path)
        ran = seen.get(str(path), set())
        left = sorted(first for first, own in wanted.items() if ran.isdisjoint(own))
        total += len(wanted)
        missed += len(left)
        if left:
            print(f"{path.relative_to(SRC)}: {len(left)} of {len(wanted)}: {ranges(left)}")
    print(f"total: {missed} of {total} statements not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
