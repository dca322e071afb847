"""scripts/linecov.py over one small test file, in its own process (the script is run, not installed)."""

import inspect
import re
import subprocess
import sys
from pathlib import Path

from semschema import registry

_ROOT = Path(__file__).resolve().parent.parent


def lines_of(ranges: str) -> set[int]:
    """`1-3, 7` as {1, 2, 3, 7}."""
    found = set()
    for part in ranges.split(", "):
        first, _, last = part.partition("-")
        found.update(range(int(first), int(last or first) + 1))
    return found


def test_lists_the_statements_the_run_missed(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from semschema.registry import title_to_slug\n\n\n"
        "def test_slug():\n"
        "    assert title_to_slug('View Item') == 'View-Item'\n"
    )
    done = subprocess.run([sys.executable, str(_ROOT / "scripts" / "linecov.py"), "-q", "-p", "no:cacheprovider",
                           "test_one.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout
    report = dict(line.split(": ", 1) for line in done.stdout.splitlines() if line.startswith("semschema/"))
    missed = {}
    for module, row in report.items():
        counts, ranges = row.split(": ")
        left, total = map(int, counts.split(" of "))
        assert len(lines_of(ranges)) == left <= total
        missed[module] = lines_of(ranges)
    # the body of the function the test called ran; the body of the one next to it did not
    ran = inspect.getsourcelines(registry.title_to_slug)[1] + 1
    not_ran = inspect.getsourcelines(registry.slug_to_title)[1] + 1
    assert not_ran in missed["semschema/registry.py"] and ran not in missed["semschema/registry.py"]
    # a module the test never imported is listed whole
    left, total = map(int, report["semschema/server.py"].split(": ")[0].split(" of "))
    assert left == total > 100
    left, total = map(int, re.fullmatch(r"total: (\d+) of (\d+) statements not run", done.stdout.splitlines()[-1]).groups())
    assert left == sum(map(len, missed.values())) < total
