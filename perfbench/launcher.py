"""Spawns the commands under test from a small process and reports their rusage.

    python3 perfbench/launcher.py    # JSON requests on stdin, one reply per line on stdout

A child's ru_maxrss also counts the resident size of the process image that
its exec replaced, which for a child spawned with vfork is the spawning
process itself.  run.py holds corpora, expected verdicts and responses and
grows past the commands it measures, so it spawns them through this
process, started before any of that is loaded; peak_rss_mb is then the
command's own.

    {"spawn": argv, "out": path, "err": path}  ->  {"pid": n, "started": t}
    {"wait": [pid, ...], "timeout": s}         ->  {"<pid>": {"code": n, "maxrss_kb": n, "ended": t}, ...}

`wait` reaps the listed children in the order they exit, so each gets its
own end time; it kills them all if they outlive the timeout.  Times are
time.perf_counter() values, which on Linux read one clock in every process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    procs: dict[int, subprocess.Popen] = {}
    reaped: dict[int, dict] = {}
    for line in sys.stdin:
        request = json.loads(line)
        if "spawn" in request:
            with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
                started = time.perf_counter()
                proc = subprocess.Popen(request["spawn"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            procs[proc.pid] = proc
            reply = {"pid": proc.pid, "started": started}
        else:
            wanted = request["wait"]
            killer = threading.Timer(request["timeout"], lambda: [procs[p].kill() for p in wanted if p in procs])
            killer.start()
            try:
                while any(p not in reaped for p in wanted):
                    pid, status, usage = os.wait4(-1, 0)
                    ended = time.perf_counter()
                    procs[pid].returncode = code = os.waitstatus_to_exitcode(status)
                    reaped[pid] = {"code": code, "maxrss_kb": usage.ru_maxrss, "ended": ended}
            finally:
                killer.cancel()
            reply = {str(p): reaped.pop(p) for p in wanted}
            for p in wanted:
                del procs[p]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
