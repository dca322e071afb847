"""scripts/serve_rss.py on one checkout as both sides (the script is run, not installed).

It runs in its own process: a child spawned with vfork counts the resident
size of the process that spawned it, and the test process is far larger than
a server.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_each_side_starts_answers_health_and_reports_its_peak_rss():
    done = subprocess.run([sys.executable, str(_ROOT / "scripts" / "serve_rss.py"), "--parent", str(_ROOT),
                           "--change", str(_ROOT), "--rounds", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [(run["side"], run["ok"]) for run in report["runs"]] == [("parent", True), ("change", True)]
    for side in ("parent", "change"):
        assert report["summary"][side]["all_ok"]
        # more than a bare interpreter, far less than a leak would need
        assert 5 < report["summary"][side]["maxrss_mb"]["median"] < 200
        assert 0 < report["summary"][side]["start_s"]["median"] < 30
