"""Peak RSS and start-up of an idle `semschema serve`, for two checkouts in alternating order.

    python3 scripts/serve_rss.py --parent ../parent --change . --rounds 10

Each round starts each checkout's server, from its own `src/`, on its own
copy of the bundled fixture repository, read-only, so no `/reload` runs.
Once the port accepts a connection, one `GET /health` goes out and its
response is read; then the server gets SIGTERM and is reaped with
`os.wait4`, whose `ru_maxrss` is its peak resident size.  The side that
starts first alternates from round to round.  `start_s` runs from the
spawn to the end of the `/health` response.  Prints one JSON object:
every run, and per side the median and range of each figure.

A child spawned with vfork also counts the resident size of the process
that spawned it, so this script imports only what it needs and stays far
smaller than a server.  Standard library only.  The checkouts are run,
never written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURE_REPO = Path("src") / "semschema" / "fixtures" / "repo"
HEALTH = b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def health(port: int, deadline: float) -> bytes:
    """The raw `/health` response, sent once the port accepts a connection."""
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            break
        except ConnectionRefusedError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.002)
    with sock:
        sock.sendall(HEALTH)
        response = b""
        while chunk := sock.recv(65_536):
            response += chunk
    return response


def run_once(checkout: Path, scratch: Path) -> dict:
    repo = scratch / "repo"
    shutil.rmtree(repo, ignore_errors=True)
    shutil.copytree(checkout / FIXTURE_REPO, repo)
    port = free_port()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "semschema.cli", "serve", "--repo", str(repo), "--port", str(port)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        response = health(port, started + 30)
        start_s = time.perf_counter() - started
    finally:
        proc.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"ok": response.startswith(b"HTTP/1.1 200 "), "start_s": round(start_s, 6),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(args.rounds):
            order = [("parent", args.parent.resolve()), ("change", args.change.resolve())]
            if index % 2:
                order.reverse()
            for side, checkout in order:
                runs.append({"round": index, "side": side, **run_once(checkout, Path(scratch))})
    summary = {}
    for side in ("parent", "change"):
        mine = [run for run in runs if run["side"] == side]
        summary[side] = {"all_ok": all(run["ok"] for run in mine)}
        for name in ("maxrss_mb", "start_s"):
            values = [run[name] for run in mine]
            summary[side][name] = {"median": round(statistics.median(values), 6), "min": min(values), "max": max(values)}
    print(json.dumps({"python": sys.version.split()[0], "nproc": os.cpu_count(), "summary": summary, "runs": runs}))
    return 0 if all(run["ok"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
