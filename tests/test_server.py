import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import semschema
from semschema.generator import GenConfig, generate_valid
from semschema.registry import load_repo, make_id, write_version
from semschema.server import MAX_BODY_BYTES, ServerConfig, _Handler, make_server, parse_target
from semschema.validator import ValidationTarget


@pytest.fixture(scope="module")
def server(repo_dir):
    httpd = make_server(ServerConfig(str(repo_dir), port=0))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture()
def writable_server(repo_dir, tmp_path):
    scratch = tmp_path / "repo"
    shutil.copytree(repo_dir, scratch)
    httpd = make_server(ServerConfig(str(scratch), port=0, read_only=False))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, scratch
    httpd.shutdown()
    httpd.server_close()


def request(httpd, method, path, body=None):
    port = httpd.server_address[1]
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def request_json(httpd, method, path, body=None):
    status, payload = request(httpd, method, path, body)
    return status, json.loads(payload)


class TestParseTarget:
    def test_modes(self):
        assert parse_target(None) == ValidationTarget.self_declared()
        assert parse_target("View Item") == ValidationTarget.latest("View Item")
        assert parse_target("View Item@1") == ValidationTarget.explicit("View Item", 1)

    def test_rejects_junk(self):
        for raw in ("", 7, "View Item@x", "View Item@"):
            with pytest.raises(ValueError):
                parse_target(raw)


class TestGet:
    def test_health(self, server):
        status, body = request_json(server, "GET", "/health")
        assert status == 200
        assert body == {"status": "ok", "titles": 14}

    def test_schema_bytes_identical_to_disk(self, server, repo_dir):
        status, payload = request(server, "GET", "/schemas/event/View-Item/1")
        assert status == 200
        assert payload == (repo_dir / "event" / "View-Item" / "1.json").read_bytes()

    def test_latest_alias(self, server, repo_dir):
        status, payload = request(server, "GET", "/schemas/object/Provider/latest")
        assert status == 200
        assert payload == (repo_dir / "object" / "Provider" / "2.json").read_bytes()

    def test_served_document_declares_its_own_url_path(self, server):
        _, payload = request(server, "GET", "/schemas/event/Base-Event/0")
        doc = json.loads(payload)
        assert doc["id"].endswith("/schemas/event/Base-Event/0")

    def test_unknown_paths_404(self, server):
        for path in (
            "/schemas/event/No-Such/0",
            "/schemas/event/View-Item/9",
            "/schemas/widget/View-Item/0",
            "/schemas/object/View-Item/0",  # right title, wrong kind
            "/nope",
        ):
            status, body = request_json(server, "GET", path)
            assert status == 404, path
            assert "error" in body


class TestValidate:
    def test_valid_event(self, server, registry):
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
        status, body = request_json(server, "POST", "/validate", {"event": event})
        assert (status, body) == (200, {"valid": True, "mismatches": []})

    def test_mismatches_reported(self, server, registry):
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
        event["stray"] = 1
        status, body = request_json(server, "POST", "/validate", {"event": event})
        assert status == 200 and body["valid"] is False
        assert body["mismatches"][0]["path"] == ".stray"

    def test_explicit_target(self, server, registry):
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
        status, body = request_json(
            server, "POST", "/validate", {"event": event, "target": "View Item@2"}
        )
        assert status == 200 and body["valid"] is True

    def test_unknown_target_404(self, server):
        status, body = request_json(
            server, "POST", "/validate", {"event": {}, "target": "No Such"}
        )
        assert status == 404

    def test_malformed_body_400(self, server):
        status, _ = request_json(server, "POST", "/validate", {"target": "View Item"})
        assert status == 400
        port = server.server_address[1]
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/validate", data=b"{not json", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400


class TestTransform:
    def test_old_event_comes_back_at_latest(self, server, registry):
        event = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
        status, body = request_json(server, "POST", "/transform", event)
        assert status == 200
        assert body["schema"] == make_id("event", "View Item", 2)
        assert "origin" not in body

    def test_event_already_at_latest_passes_through(self, server, registry):
        event = generate_valid(registry, "Post Item", 2, GenConfig(seed=6))
        status, body = request_json(server, "POST", "/transform", event)
        assert status == 200 and body == event

    def test_missing_declaration_400(self, server):
        status, body = request_json(server, "POST", "/transform", {"x": 1})
        assert status == 400 and "schema" in body["error"]

    def test_unknown_title_404(self, server):
        event = {"schema": make_id("event", "No Such", 0)}
        status, _ = request_json(server, "POST", "/transform", event)
        assert status == 404


class TestReload:
    def test_read_only_409(self, server):
        status, body = request_json(server, "POST", "/reload", {})
        assert status == 409 and "read-only" in body["error"]

    def test_reload_picks_up_new_version(self, writable_server):
        httpd, scratch = writable_server
        status, _ = request_json(httpd, "GET", "/schemas/object/Vehicle/3")
        assert status == 404
        registry = load_repo(scratch)
        body = registry.get("Vehicle", 2).body()
        del body["id"]
        body["properties"]["color"] = {"type": "string"}
        registry.register_version("Vehicle", body)
        write_version(scratch, registry.get("Vehicle", 3))

        # not visible until the snapshot is swapped
        status, _ = request_json(httpd, "GET", "/schemas/object/Vehicle/3")
        assert status == 404
        status, reloaded = request_json(httpd, "POST", "/reload", {})
        assert (status, reloaded["reloaded"]) == (200, True)
        status, payload = request(httpd, "GET", "/schemas/object/Vehicle/3")
        assert status == 200
        assert json.loads(payload)["id"] == make_id("object", "Vehicle", 3)


def exchange(httpd, *requests):
    """Send raw requests in turn on one keep-alive connection.

    Returns the (status, payload) of each response read; stops early
    when the server closes the connection.
    """
    responses = []
    with socket.create_connection(("127.0.0.1", httpd.server_address[1]), timeout=5) as sock:
        reader = sock.makefile("rb")
        for raw in requests:
            try:
                sock.sendall(raw)
                status_line = reader.readline()
            except ConnectionError:
                break
            if not status_line:
                break
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            responses.append((int(status_line.split()[1]), reader.read(length)))
    return responses


HEALTH = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"


def post(path, body=b"", length=None):
    length = len(body) if length is None else length
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n"
    return head.encode() + body


class TestKeepAlive:
    def test_reload_body_is_consumed(self, writable_server):
        httpd, _ = writable_server
        responses = exchange(httpd, post("/reload", b'{"x": 1}'), HEALTH)
        assert [status for status, _ in responses] == [200, 200]
        assert json.loads(responses[1][1])["status"] == "ok"

    def test_read_only_reload_body_is_consumed(self, server):
        responses = exchange(server, post("/reload", b'{"x": 1}'), HEALTH)
        assert [status for status, _ in responses] == [409, 200]

    def test_unknown_post_route_body_is_consumed(self, server):
        responses = exchange(server, post("/nowhere", b"{}"), HEALTH)
        assert [status for status, _ in responses] == [404, 200]

    def test_bodyless_reload_still_succeeds(self, writable_server):
        httpd, _ = writable_server
        bare = b"POST /reload HTTP/1.1\r\nHost: t\r\n\r\n"
        responses = exchange(httpd, bare, HEALTH)
        assert [status for status, _ in responses] == [200, 200]

    def test_oversized_body_closes_the_connection(self, server):
        # the bytes after the headers belong to the refused body, so the
        # server must not read them as the next request
        responses = exchange(server, post("/validate", length=MAX_BODY_BYTES + 1), HEALTH)
        assert len(responses) == 1
        status, payload = responses[0]
        assert status == 400 and json.loads(payload) == {"error": "body too large"}

    def test_stalled_body_times_out(self, server, monkeypatch):
        assert 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(post("/validate", b'{"event"', length=100))
            assert sock.recv(1024) == b""  # closed without a response

    def test_transform_runtime_error_is_400(self, scratch_repo, registry):
        program = scratch_repo / "transforms" / "View-Item" / "0-to-1.jslt"
        program.write_text('{"referrer": number(.origin), * - origin : .}\n')
        httpd = make_server(ServerConfig(str(scratch_repo), port=0))
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            event = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
            event["origin"] = "abc"
            responses = exchange(httpd, post("/transform", json.dumps(event).encode()), HEALTH)
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert [status for status, _ in responses] == [400, 200]
        assert "number" in json.loads(responses[0][1])["error"]

    def test_too_deep_transform_result_is_400(self, server, registry):
        # parses under the 20,000 recursion limit, but its output needs two frames a level
        event = json.dumps(generate_valid(registry, "View Item", 2, GenConfig(seed=6)))
        depth = 15_000
        deep = '{"custom": ' + '{"a": ' * depth + "1" + "}" * depth + ", " + event[1:]
        responses = exchange(server, post("/transform", deep.encode()), HEALTH)
        assert [status for status, _ in responses] == [400, 200]
        assert json.loads(responses[0][1]) == {"error": "nesting too deep"}

    def test_unexpected_error_is_500(self, server, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("semschema.server.validate", broken)
        responses = exchange(server, post("/validate", b'{"event": {}}'), HEALTH)
        assert [status for status, _ in responses] == [500, 200]
        assert "error" in json.loads(responses[0][1])

    def test_unencodable_transform_result_is_400(self, scratch_repo, registry):
        program = scratch_repo / "transforms" / "View-Item" / "1-to-2.jslt"
        program.write_text('{"position": 1e308 * 10, * : .}\n')
        httpd = make_server(ServerConfig(str(scratch_repo), port=0))
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            event = generate_valid(registry, "View Item", 1, GenConfig(seed=6))
            responses = exchange(httpd, post("/transform", json.dumps(event).encode()), HEALTH)
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert [status for status, _ in responses] == [400, 200]


# Serves the repository named by argv[2] and sends the (path, body) pairs
# read from stdin on one keep-alive connection; prints [status, payload] each.
_EXCHANGE_SCRIPT = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from test_server import exchange, post
from semschema.server import ServerConfig, make_server
httpd = make_server(ServerConfig(sys.argv[2], port=0))
threading.Thread(target=httpd.serve_forever, daemon=True).start()
requests = [post(path, body.encode()) for path, body in json.load(sys.stdin)]
print(json.dumps([[status, payload.decode()] for status, payload in exchange(httpd, *requests)]))
"""


class TestDeepBody:
    """A body nested far past the recursion limit fails alone.

    Run in a fresh interpreter, as an uncaught RecursionError there ends
    one process instead of rendering tens of thousands of frames here.
    """

    @pytest.mark.parametrize("route", ["/validate", "/transform"])
    def test_too_deep_body_is_400_and_the_next_request_is_answered(self, repo_dir, registry, route):
        event = json.dumps(generate_valid(registry, "View Item", 0, GenConfig(seed=6)))
        deep = "[" * 50_000 + "]" * 50_000
        if route == "/validate":
            event, deep = '{"event": %s}' % event, '{"event": %s}' % deep
        env = dict(os.environ, PYTHONPATH=str(Path(semschema.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _EXCHANGE_SCRIPT, str(Path(__file__).parent), str(repo_dir)],
            input=json.dumps([[route, event], [route, deep], [route, event]]),
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        before, refused, after = json.loads(done.stdout)
        assert refused[0] == 400 and "nesting too deep" in json.loads(refused[1])["error"]
        assert before[0] == 200 and after == before
