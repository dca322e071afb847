"""The serve-mixed client: one process, at most two keep-alive connections.

Phase A is an open loop: request i is due at start + i / rate, whatever
happened before it.  A connection takes the next due request only after
its previous response, so when the server stalls, later requests wait in
the client and their latency, timed from the due time, includes that
wait.  How late a request was sent relative to its due time is the
sender lag.  Phase B is a closed loop: each connection sends its next
request as soon as the previous response is read.

Requests are HTTP/1.1 with keep-alive on both phases; the client never
asks for `Connection: close`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path


class Traffic:
    """Cycles through the prepared requests and checks each response."""

    def __init__(self, requests: list[dict], repo: Path):
        self.requests = requests
        self.repo = repo
        self._files: dict[str, bytes] = {}
        self._bodies = [json.dumps(r["body"]).encode() if "body" in r else None for r in requests]
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int:
        with self._lock:
            i = self._next
            self._next = (i + 1) % len(self.requests)
            return i

    def ok(self, index: int, status: int, payload: bytes) -> bool:
        want = self.requests[index]["expect"]
        if status != want["status"]:
            return False
        route = self.requests[index]["route"]
        if route == "schema":
            if want["file"] not in self._files:
                self._files[want["file"]] = (self.repo / want["file"]).read_bytes()
            return payload == self._files[want["file"]]
        try:
            body = json.loads(payload)
        except ValueError:
            return False
        if route == "validate":
            return body.get("valid") is want["valid"]
        if route == "transform":
            return body.get("schema") == want["schema"]
        if route == "health":
            return body.get("titles") == want["titles"]
        return body.get("reloaded") is True

    def send(self, conn: http.client.HTTPConnection, index: int) -> bool:
        req = self.requests[index]
        body = self._bodies[index]
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(req["method"], req["path"], body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            return False
        return self.ok(index, response.status, payload)


class Results:
    def __init__(self):
        self.lock = threading.Lock()
        self.samples: list[tuple[str, float, float, bool]] = []  # route, latency_s, lag_s, ok

    def add(self, route: str, latency: float, lag: float, ok: bool) -> None:
        with self.lock:
            self.samples.append((route, latency, lag, ok))


def open_loop(traffic: Traffic, port: int, rate: float, seconds: float, connections: int = 2) -> Results:
    results = Results()
    total = max(1, int(rate * seconds))
    counter = iter(range(total))
    counter_lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with counter_lock:
                    i = next(counter, None)
                if i is None:
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                index = traffic.take()
                ok = traffic.send(conn, index)
                results.add(traffic.requests[index]["route"], time.perf_counter() - due, sent - due, ok)
        finally:
            conn.close()

    _run(worker, connections)
    return results


def closed_loop(traffic: Traffic, port: int, seconds: float, connections: int = 2) -> tuple[Results, float]:
    results = Results()
    deadline = time.perf_counter() + seconds

    def worker():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while time.perf_counter() < deadline:
                sent = time.perf_counter()
                index = traffic.take()
                ok = traffic.send(conn, index)
                results.add(traffic.requests[index]["route"], time.perf_counter() - sent, 0.0, ok)
        finally:
            conn.close()

    started = time.perf_counter()
    _run(worker, connections)
    return results, time.perf_counter() - started


def _run(worker, connections: int) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client connection did not finish within 120 s")


def wait_healthy(port: int, timeout: float = 30.0) -> bool:
    """Poll /health on a fresh connection until it answers 200."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return True
        except (OSError, http.client.HTTPException):
            time.sleep(0.005)
        finally:
            conn.close()
    return False
