"""Replay serve-mixed requests through two checkouts' `semschema serve` and report the first difference.

    python3 scripts/serve_replay.py --parent ../parent --change . \
        --requests .bench_cache/corpus/serve-mixed-s1-<digest>/requests.ndjson

Each checkout serves its own copy of the bundled fixture repository (the
one serve-mixed serves) with `--writable`, from its own `src/`.  The
requests go out in file order, one at a time, on one keep-alive
connection per server; each response is read as raw bytes.  Two responses
are the same when their status lines, their header lines other than
`Date` (in order) and their bodies are equal.  Prints one JSON object:
the number of requests and, if any pair differs, the first difference.
Exits 0 when none differs, 1 when one does.

Standard library only.  The checkouts are run, never written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURE_REPO = Path("src") / "semschema" / "fixtures" / "repo"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def encode(request: dict) -> bytes:
    """The request as one HTTP/1.1 message, its body JSON text as the benchmark's client sends it."""
    lines = [f"{request['method']} {request['path']} HTTP/1.1", "Host: 127.0.0.1"]
    body = b""
    if "body" in request:
        body = json.dumps(request["body"]).encode()
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return "".join(f"{line}\r\n" for line in lines + [""]).encode("latin-1") + body


class Connection:
    """One keep-alive connection that reads each response as its status line, header lines and body."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.buffer = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(65_536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def exchange(self, data: bytes) -> tuple[str, list[str], bytes]:
        self.sock.sendall(data)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        end = self.buffer.index(b"\r\n\r\n")
        status, *fields = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        del self.buffer[: end + 4]
        length = next((int(line.partition(":")[2]) for line in fields if line.lower().startswith("content-length:")), 0)
        while len(self.buffer) < length:
            self._fill()
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        return status, [line for line in fields if not line.lower().startswith("date:")], body

    def close(self) -> None:
        self.sock.close()


def replay(checkout: Path, requests: list[dict], scratch: Path) -> list[tuple[str, list[str], bytes]]:
    """The responses of `checkout`'s server to `requests`, on one connection."""
    repo = scratch / "repo"
    shutil.copytree(checkout / FIXTURE_REPO, repo)
    port = free_port()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "semschema.cli", "serve", "--repo", str(repo), "--port", str(port), "--writable"]
    server = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                connection = Connection(port)
                break
            except ConnectionRefusedError:
                if time.monotonic() > deadline or server.poll() is not None:
                    raise SystemExit(f"{checkout}: server did not start") from None
                time.sleep(0.01)
        try:
            return [connection.exchange(encode(request)) for request in requests]
        finally:
            connection.close()
    finally:
        server.terminate()
        server.wait(timeout=15)


def first_difference(requests, parent, change) -> dict | None:
    for index, (request, a, b) in enumerate(zip(requests, parent, change)):
        for part, x, y in (("status line", a[0], b[0]), ("headers", a[1], b[1]), ("body", a[2], b[2])):
            if x != y:
                show = (lambda v: v.decode("utf-8", "replace")) if part == "body" else (lambda v: v)
                return {"index": index, "route": request.get("route"), "path": request["path"], "part": part,
                        "parent": show(x), "change": show(y)}
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--requests", type=Path, required=True, help="a serve-mixed requests.ndjson")
    args = parser.parse_args(argv)
    requests = [json.loads(line) for line in args.requests.read_text(encoding="utf-8").splitlines() if line]
    responses = {}
    for side in ("parent", "change"):
        with tempfile.TemporaryDirectory() as scratch:
            responses[side] = replay(getattr(args, side).resolve(), requests, Path(scratch))
    difference = first_difference(requests, responses["parent"], responses["change"])
    print(json.dumps({"requests": len(requests), "statuses": sorted({r[0] for r in responses["change"]}),
                      "first_difference": difference}))
    return 0 if difference is None else 1


if __name__ == "__main__":
    sys.exit(main())
