"""scripts/cli_spawns.py on one checkout as both sides (the script is run, not installed).

It runs in its own process: a child spawned with vfork counts the resident
size of the process that spawned it, and the test process is far larger than
a short command.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_each_command_runs_on_each_side_over_each_input(tmp_path):
    events = tmp_path / "events.ndjson"
    events.write_text('{"@id": "e1", "schema": "nope"}\n')
    done = subprocess.run([sys.executable, str(_ROOT / "scripts" / "cli_spawns.py"), "--parent", str(_ROOT),
                           "--change", str(_ROOT), "--rounds", "1", "--events", str(events)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert len(report["runs"]) == 2 * 3 * 2  # inputs, commands, sides
    for input_name, codes in (("empty", [0]), ("events", [1])):
        for command in ("validate", "transform", "dqt-run"):
            for side in ("parent", "change"):
                row = report["summary"][input_name][command][side]
                # validate and transform fail the unknown schema; dqt counts it
                assert row["exit_codes"] == ([0] if command == "dqt-run" else codes)
                assert 0 < row["wall_ms"]["median"] < 30_000 and 0 < row["cpu_ms"]["median"] <= 30_000
                # more than a bare interpreter, far less than a leak would need
                assert 5 < row["maxrss_mb"]["median"] < 200
