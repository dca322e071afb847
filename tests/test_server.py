import datetime
import email.utils
import http.client
import io
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semschema
from semschema.evolution import TransformSet
from semschema.generator import GenConfig, generate_valid
from semschema.jsonmodel import MAX_DEPTH
from semschema.registry import load_repo, make_id, write_version
from semschema.server import (
    MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES, SchemaServer, ServerConfig, _Handler, _http_date, parse_target,
)
from semschema.validator import ValidationTarget


@pytest.fixture(scope="module")
def server(repo_dir):
    httpd = SchemaServer(ServerConfig(str(repo_dir), port=0))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture()
def writable_server(repo_dir, tmp_path):
    scratch = tmp_path / "repo"
    shutil.copytree(repo_dir, scratch)
    httpd = SchemaServer(ServerConfig(str(scratch), port=0, read_only=False))
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
        files = sorted(repo_dir.glob("*/*/*.json"))
        assert len(files) == 42
        for file in files:
            kind, slug = file.parent.parent.name, file.parent.name
            status, payload = request(server, "GET", f"/schemas/{kind}/{slug}/{file.stem}")
            assert (status, payload) == (200, file.read_bytes()), file

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
        add_vehicle_3(scratch)

        # not visible until the snapshot is swapped
        status, _ = request_json(httpd, "GET", "/schemas/object/Vehicle/3")
        assert status == 404
        status, reloaded = request_json(httpd, "POST", "/reload", {})
        assert (status, reloaded["reloaded"]) == (200, True)
        status, payload = request(httpd, "GET", "/schemas/object/Vehicle/3")
        assert status == 200
        assert json.loads(payload)["id"] == make_id("object", "Vehicle", 3)

    def test_schemas_and_validate_agree_until_reload(self, writable_server):
        httpd, scratch = writable_server
        repo = load_repo(scratch)
        body = repo.get("Vehicle", 2).body()
        del body["id"]
        body["properties"]["color"] = {"type": "string"}
        repo.register_version("Vehicle", body)
        write_version(scratch, repo.get("Vehicle", 3))
        assert request_json(httpd, "POST", "/reload", {})[0] == 200
        view_item, vehicle = "/schemas/event/View-Item/2", "/schemas/object/Vehicle/3"
        served = {path: request(httpd, "GET", path) for path in (view_item, vehicle)}
        event = generate_valid(repo, "View Item", 2, GenConfig(seed=4))
        event["position"] = 3
        checks = [{"event": event, "target": "View Item@2"},
                  {"event": generate_valid(repo, "Vehicle", 3, GenConfig(seed=4)), "target": "Vehicle@3"}]
        valid = (200, {"valid": True, "mismatches": []})
        # edit one file and delete another; until /reload, every route answers from the loaded snapshot
        edited = scratch / "event" / "View-Item" / "2.json"
        shrunk = json.loads(edited.read_text())
        del shrunk["properties"]["position"]
        edited.write_text(json.dumps(shrunk))
        (scratch / "object" / "Vehicle" / "3.json").unlink()
        assert {path: request(httpd, "GET", path) for path in served} == served
        assert "position" in json.loads(served[view_item][1])["properties"]
        assert [request_json(httpd, "POST", "/validate", check) for check in checks] == [valid, valid]
        assert request_json(httpd, "POST", "/reload", {}) == (200, {"reloaded": True, "titles": 14})
        status, payload = request(httpd, "GET", view_item)
        assert status == 200 and json.loads(payload) == shrunk
        # a hand-formatted file is served as write_version writes it
        assert payload == load_repo(scratch).get("View Item", 2).render().encode() != edited.read_bytes()
        status, verdict = request_json(httpd, "POST", "/validate", checks[0])
        assert (status, verdict["valid"], [m["path"] for m in verdict["mismatches"]]) == (200, False, [".position"])
        assert request_json(httpd, "GET", vehicle)[0] == 404
        assert request_json(httpd, "POST", "/validate", checks[1])[0] == 404

    @pytest.mark.parametrize("edit", ["same_size_schema_edit", "removed_transform"])
    def test_changes_are_picked_up(self, writable_server, registry, edit):
        httpd, scratch = writable_server
        before = httpd.transforms
        if edit == "same_size_schema_edit":
            # an in-place edit that keeps the size and modification time
            file = scratch / "event" / "View-Item" / "2.json"
            stat = file.stat()
            text = file.read_text()
            file.write_text(text.replace("looked at", "LOOKED AT"))
            os.utime(file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert file.stat().st_size == stat.st_size
        else:
            (scratch / "transforms" / "View-Item" / "0-to-1.jslt").unlink()
        status, body = request_json(httpd, "POST", "/reload", {})
        if edit == "same_size_schema_edit":
            assert (status, body) == (200, {"reloaded": True, "titles": 14})
            assert httpd.transforms is not before
            assert httpd.transforms.registry.get("View Item", 2).description == "An actor LOOKED AT a classified ad."
        else:
            # the new snapshot is refused as a whole; the old one keeps serving the step
            missing = "'View Item' 0 -> 1 is a breaking step with no registered transform"
            assert (status, body) == (400, {"error": f"reload failed: {missing}"})
            assert httpd.transforms is before
            event = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
            assert request_json(httpd, "POST", "/transform", event)[0] == 200

    def test_bad_file_is_400_and_the_old_snapshot_keeps_serving(self, writable_server, registry):
        httpd, scratch = writable_server
        before = httpd.transforms
        file = scratch / "object" / "Vehicle" / "1.json"
        text = file.read_text()
        file.write_text(text[:-10])
        status, body = request_json(httpd, "POST", "/reload", {})
        assert status == 400 and body["error"].startswith(f"reload failed: {file}")
        assert httpd.transforms is before
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
        assert request_json(httpd, "POST", "/validate", {"event": event}) == (200, {"valid": True, "mismatches": []})
        file.write_text(text)
        assert request_json(httpd, "POST", "/reload", {}) == (200, {"reloaded": True, "titles": 14})
        before = httpd.transforms
        second = scratch / "transforms" / "View-Item" / "00-to-01.jslt"
        second.write_text("{}")
        status, body = request_json(httpd, "POST", "/reload", {})
        assert (status, body) == (400, {"error": f"reload failed: {second}: a second transform for 'View Item' 0 -> 1"})
        assert httpd.transforms is before
        second.unlink()
        releases = scratch / "releases.json"
        for data in (b"\xff", b"["):  # not UTF-8, not JSON
            releases.write_bytes(data)
            status, body = request_json(httpd, "POST", "/reload", {})
            assert status == 400 and body["error"].startswith(f"reload failed: {releases}: ")
            assert httpd.transforms is before

    def test_too_deeply_nested_transform_is_400(self, writable_server):
        httpd, scratch = writable_server
        (scratch / "transforms" / "View-Item" / "0-to-1.jslt").write_text("-" * 19_990 + "1")
        status, body = request_json(httpd, "POST", "/reload", {})
        assert status == 400 and body["error"].endswith("expression nesting exceeds 500 at 1:501")

    def test_overlapping_reloads_leave_the_later_one_serving(self, writable_server, monkeypatch):
        httpd, scratch = writable_server
        loaded, release = threading.Event(), threading.Event()
        load = httpd._load

        def held_first_load(files):
            transforms = load(files)
            if not loaded.is_set():
                loaded.set()
                release.wait(10)
            return transforms

        monkeypatch.setattr(httpd, "_load", held_first_load)
        statuses = []

        def reload():
            statuses.append(request_json(httpd, "POST", "/reload", {})[0])

        # a reload that finds the files unchanged loads nothing; give the first one a change
        edit_description(scratch)
        first = threading.Thread(target=reload)
        first.start()
        assert loaded.wait(10)
        # the first reload has read the repository; now Vehicle 3 appears
        add_vehicle_3(scratch)
        second = threading.Thread(target=reload)
        second.start()
        second.join(timeout=1)  # unordered, the second reload stores its snapshot here
        release.set()
        for thread in (first, second):
            thread.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert statuses == [200, 200]
        assert 3 in httpd.transforms.registry.versions("Vehicle")
        status, _ = request_json(httpd, "POST", "/validate", {"event": {}, "target": "Vehicle@3"})
        assert status == 200

    def test_unchanged_reload_keeps_the_snapshot_and_its_caches(self, writable_server, registry):
        httpd, scratch = writable_server
        before = httpd.transforms
        check = {"event": generate_valid(registry, "View Item", 2, GenConfig(seed=4)), "target": "View Item@2"}
        assert request_json(httpd, "POST", "/validate", check)[0] == 200
        old = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
        assert request_json(httpd, "POST", "/transform", old)[0] == 200
        checker = before.registry._checkers[make_id("event", "View Item", 2)]
        chain = before.compose_chain("View Item", 0)
        # files no loader reads change nothing
        (scratch / ".git").mkdir()
        (scratch / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (scratch / "event" / "View-Item" / "notes.txt").write_text("draft")
        for _ in range(2):
            status, payload = request(httpd, "POST", "/reload", {})
            assert (status, payload) == (200, b'{\n  "reloaded": true,\n  "titles": 14\n}\n')
        assert httpd.transforms is before
        assert before.registry._checkers[make_id("event", "View Item", 2)] is checker
        assert before.compose_chain("View Item", 0) is chain

    def test_removed_repository_is_400_and_the_old_snapshot_keeps_serving(self, writable_server, registry):
        httpd, scratch = writable_server
        before = httpd.transforms
        shutil.rmtree(scratch)
        status, body = request_json(httpd, "POST", "/reload", {})
        assert (status, body) == (400, {"error": f"reload failed: not a directory: {scratch}"})
        assert httpd.transforms is before
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
        assert request_json(httpd, "POST", "/validate", {"event": event}) == (200, {"valid": True, "mismatches": []})

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "reverted"])
    def test_file_written_during_a_load_is_left_to_the_next_reload(self, writable_server, monkeypatch, kept):
        httpd, scratch = writable_server
        load = httpd._load
        added = scratch / "object" / "Vehicle" / "3.json"

        def write_then_load(files):
            # lands after the reload read the bytes, before it builds the snapshot
            if not added.exists():
                add_vehicle_3(scratch)
            return load(files)

        monkeypatch.setattr(httpd, "_load", write_then_load)
        edit_description(scratch)
        assert request_json(httpd, "POST", "/reload", {})[0] == 200
        assert added.exists()
        assert request_json(httpd, "GET", "/schemas/object/Vehicle/3")[0] == 404
        monkeypatch.undo()
        if not kept:
            added.unlink()
        before = httpd.transforms
        assert request_json(httpd, "POST", "/reload", {})[0] == 200
        assert (httpd.transforms is before) is not kept
        assert request_json(httpd, "GET", "/schemas/object/Vehicle/3")[0] == (200 if kept else 404)

    def test_compared_files_are_the_files_the_loaders_open(self, writable_server, monkeypatch):
        httpd, scratch = writable_server
        opened = []
        open_file = Path.open

        def recording_open(path, *args, **kwargs):
            opened.append(path)
            return open_file(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        httpd._load(httpd._files)
        assert opened == []  # the server's loads parse the bytes it compared
        TransformSet.load(load_repo(scratch), scratch / "transforms")
        monkeypatch.undo()
        assert len(opened) == len(set(opened)) == 62
        assert set(opened) == set(httpd._files)
        assert all(httpd._files[path] == path.read_bytes() for path in opened)

    def test_reload_during_requests_serves_the_old_or_the_new_repository(self, writable_server, registry, tmp_path):
        httpd, scratch = writable_server
        event = {**generate_valid(registry, "View Item", 2, GenConfig(seed=4)), "color": "red"}
        check = json.dumps({"event": event, "target": "View Item"}).encode()
        status, old = request_json(httpd, "POST", "/validate", json.loads(check))
        assert status == 200 and old["valid"] is False
        # View Item 3 declares the property the event carries, a non-breaking
        # step that needs no transform; one rename makes it appear
        body = registry.get("View Item", 2).body()
        body["id"] = make_id("event", "View Item", 3)
        body["properties"]["color"] = {"type": "string"}
        staged = tmp_path / "3.json"
        staged.write_text(json.dumps(body))
        renamed, rebuilt = threading.Event(), threading.Event()
        answers = {name: [] for name in ("reload", "validate0", "validate1")}

        def connection(name):
            # each connection goes on until a reload sent after the rename has
            # answered, then sends a few more; a request sent after that answer
            # must see the new repository
            path, payload, more = ("/reload", b"", 5) if name == "reload" else ("/validate", check, 10)
            conn = http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=10)
            try:
                for i in range(2_000):
                    if name == "validate0" and i == 10:
                        os.replace(staged, scratch / "event" / "View-Item" / "3.json")
                        renamed.set()
                    after_rename, after_rebuild = renamed.is_set(), rebuilt.is_set()
                    conn.request("POST", path, body=payload)
                    response = conn.getresponse()
                    answers[name].append((response.status, json.loads(response.read())))
                    if path == "/reload" and after_rename:
                        rebuilt.set()
                    more -= after_rebuild
                    if not more:
                        return
            finally:
                conn.close()

        threads = [threading.Thread(target=connection, args=(name,)) for name in answers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert rebuilt.is_set()
        status, new = request_json(httpd, "POST", "/validate", json.loads(check))
        assert (status, new) == (200, {"valid": True, "mismatches": []})
        for name in ("validate0", "validate1"):
            verdicts = [answer for _, answer in answers[name]]
            # old answers, then new ones: never a mix, and never back; those sent after a rebuild are new
            assert set(map(json.dumps, verdicts)) <= {json.dumps(old), json.dumps(new)}
            assert sorted(verdicts, key=lambda a: a == new) == verdicts and verdicts[-10:] == [new] * 10
        reloads = answers["reload"]
        assert reloads and all(answer == (200, {"reloaded": True, "titles": 14}) for answer in reloads)


def edit_description(repo: Path) -> None:
    file = repo / "event" / "View-Item" / "2.json"
    file.write_text(file.read_text().replace("looked at", "LOOKED AT"))


def add_vehicle_3(repo: Path) -> None:
    registry = load_repo(repo)
    body = registry.get("Vehicle", 2).body()
    del body["id"]
    body["properties"]["color"] = {"type": "string"}
    registry.register_version("Vehicle", body)
    write_version(repo, registry.get("Vehicle", 3))


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

    def test_requests_do_not_wait_for_delayed_acks(self, server, registry):
        # with Nagle's algorithm on, each body, written after its headers, waited
        # about 40 ms for the client's delayed ACK: these 20 requests took over 800 ms
        event = generate_valid(registry, "Post Item", 2, GenConfig(seed=6))
        event["custom"] = {"blob": "x" * 70_000}  # answered with more than the 64 KB loopback MSS
        small = [HEALTH, post("/validate", json.dumps({"event": event}).encode()),
                 b"GET /schemas/event/View-Item/1 HTTP/1.1\r\nHost: t\r\n\r\n"]
        requests = [post("/transform", json.dumps(event).encode())] + small * 6 + [HEALTH]
        started = time.perf_counter()
        responses = exchange(server, *requests)
        elapsed = time.perf_counter() - started
        assert [status for status, _ in responses] == [200] * 20
        assert len(responses[0][1]) > 65_536
        assert elapsed < 0.4

    @pytest.mark.parametrize("path, status", [("/validate", 400), ("/reload", 409), ("/nowhere", 404)])
    def test_non_ascii_digit_length_closes_the_connection(self, server, path, status):
        # "\xb2" is "\u00b2" in ISO-8859-1, a digit to str.isdigit; the body must not be read as a request
        bad = f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: \xb2\r\n\r\n".encode("latin-1")
        responses = exchange(server, bad + b'{"event": {}}', HEALTH)
        assert [s for s, _ in responses] == [status]

    @pytest.mark.parametrize("length", ["1x", "\xb2"])
    def test_malformed_length_is_400_and_closes_the_connection(self, server, length):
        bad = f"POST /validate HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n".encode("latin-1")
        responses = exchange(server, bad + b'{"event": {}}', HEALTH)
        assert [(s, json.loads(p)) for s, p in responses] == [(400, {"error": "bad Content-Length"})]

    def test_a_response_leaves_in_one_write(self, server, registry, monkeypatch):
        # the server's side of each connection sends each response in one sendall
        port, sent = server.server_address[1], []
        sendall = socket.socket.sendall

        def recording_sendall(sock, data, *args):
            if sock.getsockname()[1] == port:
                sent.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        event = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
        requests = [HEALTH, post("/validate", json.dumps({"event": event}).encode()),
                    post("/transform", json.dumps(event).encode()), b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"]
        responses = exchange(server, *requests)
        assert [status for status, _ in responses] == [200, 200, 200, 404]
        assert len(sent) == len(requests)
        assert all(data.startswith(b"HTTP/1.1 ") and data.endswith(payload) for data, (_, payload) in zip(sent, responses))

    def test_the_socket_blocks_with_the_kernel_timeouts(self, server, monkeypatch):
        # a Python-level timeout would poll before each recv and send
        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            sock = handler.connection
            seen.append((sock.gettimeout(), *(struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, option, 16))
                                                for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO)),
                         sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        assert [status for status, _ in exchange(server, HEALTH)] == [200]
        assert _Handler.timeout == 30
        assert seen == [(None, (30, 0), (30, 0), 1)]

    def test_stalled_body_times_out(self, server, monkeypatch):
        assert 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(post("/validate", b'{"event"', length=100))
            assert sock.recv(1024) == b""  # closed without a response

    def test_transform_runtime_error_is_400(self, scratch_repo, registry):
        program = scratch_repo / "transforms" / "View-Item" / "0-to-1.jslt"
        program.write_text('{"referrer": number(.origin), * - origin : .}\n')
        httpd = SchemaServer(ServerConfig(str(scratch_repo), port=0))
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
        # one level past the bound: refused at parse, with the position of its first bracket past it
        event = json.dumps(generate_valid(registry, "View Item", 2, GenConfig(seed=6)))
        deep = '{"custom": ' + '{"a": ' * MAX_DEPTH + "1" + "}" * MAX_DEPTH + ", " + event[1:]
        responses = exchange(server, post("/transform", deep.encode()), HEALTH)
        assert [status for status, _ in responses] == [400, 200]
        column = len('{"custom": ' + '{"a": ' * (MAX_DEPTH - 1)) + 1
        assert json.loads(responses[0][1]) == {
            "error": f"nesting deeper than {MAX_DEPTH} levels (line 1, column {column})"
        }

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
        httpd = SchemaServer(ServerConfig(str(scratch_repo), port=0))
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            event = generate_valid(registry, "View Item", 1, GenConfig(seed=6))
            responses = exchange(httpd, post("/transform", json.dumps(event).encode()), HEALTH)
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert [status for status, _ in responses] == [400, 200]


def head(*fields: str, line: str = "GET /health HTTP/1.1") -> bytes:
    return "".join(f"{text}\r\n" for text in (line, *fields, "")).encode("latin-1")


class TestRequestHead:
    """Hostile request heads: each refused head closes the connection."""

    @pytest.mark.parametrize("count, statuses", [(MAX_HEADERS, [200, 200]), (MAX_HEADERS + 1, [431])])
    def test_header_count_limit(self, server, count, statuses):
        fields = [f"X-Field-{i}: {i}" for i in range(count)]
        assert [s for s, _ in exchange(server, head(*fields), HEALTH)] == statuses

    @pytest.mark.parametrize("size, statuses", [(MAX_LINE_BYTES, [200, 200]), (MAX_LINE_BYTES + 1, [431])])
    def test_header_line_limit(self, server, size, statuses):
        field = "X-Long: " + "a" * (size - len("X-Long: \r\n"))
        assert [s for s, _ in exchange(server, head(field), HEALTH)] == statuses

    @pytest.mark.parametrize("fields", [
        ("Host: t", "X-Folded: a", " b"),  # obs-fold
        ("Host : t",),  # whitespace between the field name and its colon
        ("Host: t", "no colon here"),
        ("Host: t", ": no name"),
    ], ids=["obs-fold", "space-before-colon", "no-colon", "no-name"])
    def test_malformed_field_line_is_400(self, server, fields):
        assert [s for s, _ in exchange(server, head(*fields), HEALTH)] == [400]

    def test_conflicting_content_lengths_are_400(self, server):
        body = b'{"event": {}}'
        fields = ("Host: t", f"Content-Length: {len(body)}", f"content-length: {len(body) + 1}")
        responses = exchange(server, head(*fields, line="POST /validate HTTP/1.1") + body, HEALTH)
        assert [s for s, _ in responses] == [400]

    def test_repeated_equal_content_lengths_are_accepted(self, server):
        body = b'{"event": {}}'
        fields = ("Host: t", f"Content-Length: {len(body)}", f"Content-Length:  {len(body)} ")
        responses = exchange(server, head(*fields, line="POST /validate HTTP/1.1") + body, HEALTH)
        assert [s for s, _ in responses] == [200, 200]

    def test_http_2_is_505(self, server):
        assert [s for s, _ in exchange(server, head("Host: t", line="GET /health HTTP/2.0"))] == [505]

    def test_http_0_9_get_is_answered(self, server, monkeypatch):
        # a simple request is its request line alone; no header block follows
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(b"GET /health\r\n")
            answer = sock.makefile("rb").read()
        assert json.loads(answer) == {"status": "ok", "titles": 14}

    @pytest.mark.parametrize("connection, statuses", [(None, [200]), ("keep-alive", [200, 200])])
    def test_http_1_0_closes_unless_kept_alive(self, server, connection, statuses):
        fields = [] if connection is None else [f"Connection: {connection}"]
        responses = exchange(server, head(*fields, line="GET /health HTTP/1.0"), HEALTH)
        assert [s for s, _ in responses] == statuses

    def test_connection_close_closes(self, server):
        assert [s for s, _ in exchange(server, head("Host: t", "Connection: Close"), HEALTH)] == [200]

    def test_stalled_head_times_out(self, server, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n")
            assert sock.recv(1024) == b""  # closed without a response

    @pytest.mark.parametrize("sent", [b"GET /health HTTP/1.1\r\nHost: t\r\n", post("/validate", b'{"event"', length=100)],
                             ids=["head", "body"])
    def test_a_stall_is_a_timeout_not_an_error(self, server, monkeypatch, sent):
        # the kernel's expired receive timeout reaches handle_one_request as TimeoutError,
        # which closes the connection; nothing reaches the server's handle_error
        logged, errors = [], []
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        monkeypatch.setattr(_Handler, "log_error", lambda handler, format, *args: logged.append(format % args))
        monkeypatch.setattr(server, "handle_error", lambda *args: errors.append(args))
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(sent)
            assert sock.recv(1024) == b""
        assert logged == ["Request timed out: TimeoutError('timed out')"] and errors == []

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        # the client sends its body only once it has read the interim response
        body = b'{"event": {}}'
        fields = ("Host: t", "Expect: 100-continue", f"Content-Length: {len(body)}")
        responses = exchange(server, head(*fields, line="POST /validate HTTP/1.1"), body, HEALTH)
        assert [s for s, _ in responses] == [100, 200, 200]


class _Stdlib(BaseHTTPRequestHandler):
    # the stdlib's own handler, with the server's protocol version and name
    protocol_version = _Handler.protocol_version
    server_version = _Handler.server_version


def parsed(handler_class, raw: bytes) -> dict:
    """What `handler_class.parse_request` makes of `raw`, read as a connection reads it."""
    handler = handler_class.__new__(handler_class)
    handler.server = SimpleNamespace(verbose=False)
    handler.rfile, handler.wfile = io.BytesIO(raw), io.BytesIO()
    handler.raw_requestline = handler.rfile.readline(65537)
    errors = []

    def send_error(status, *args):
        errors.append(status)
        handler.close_connection = True  # as the "Connection: close" of an error response does

    handler.send_error = send_error
    ok = handler.parse_request()
    fields = {name: handler.headers.get(name) for name in ("Content-Length", "Connection", "Expect")} if ok else {}
    return {"ok": ok, "errors": errors, "command": handler.command, "path": getattr(handler, "path", None),
            "version": handler.request_version if ok else None, "close": handler.close_connection,
            "fields": fields, "written": handler.wfile.getvalue()}


_FIELD_VALUES = {
    "Content-Length": st.sampled_from(["0", "12", "007"]),
    "Connection": st.sampled_from(["close", "Close", "keep-alive", "Keep-Alive", "upgrade"]),
    "Expect": st.sampled_from(["100-continue", "100-Continue", "later"]),
    "Host": st.text(alphabet="ab.:1 ", max_size=8),
    "X-Trace": st.text(alphabet="xyz-=; \t", max_size=8),
}


@st.composite
def request_heads(draw) -> tuple[bytes, bytes]:
    """A well-formed head, and the same head with no whitespace after any field value."""
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "PUT"]))
    path = "/" + draw(st.text(alphabet="/ab.?=", max_size=8))
    version = draw(st.sampled_from([None, "HTTP/0.9", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0"]))
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    ows = st.sampled_from(["", " ", "\t", "  "])
    lines = [" ".join(part for part in (method, path, version) if part)]
    trimmed = list(lines)
    for name in draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), max_size=8)):
        spelt = draw(st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]))
        line = f"{spelt}:{draw(ows)}{draw(_FIELD_VALUES[name])}"
        lines.append(line + draw(ows))
        trimmed.append(line.rstrip(" \t"))
    return tuple(newline.join(text + ["", ""]).encode("latin-1") for text in (lines, trimmed))


class TestHeadParserMatchesStdlib:
    """The head parser against the stdlib's own `BaseHTTPRequestHandler.parse_request` as oracle.

    Deliberate differences, each excluded here by name (README, Server):
    the stdlib keeps whitespace after a field value, so it reads the head
    with that whitespace removed; two different Content-Length values are a
    400; a two-word (HTTP/0.9) request line reads no header block; and a
    version error gets a status line, so the request version is compared
    only for a head that is accepted.  Heads stay far below the limits,
    which `TestRequestHead` pins.
    """

    @settings(max_examples=300, deadline=None)
    @given(request_heads())
    def test_same_request(self, heads):
        raw, trimmed = heads
        own, stdlib = parsed(_Handler, raw), parsed(_Stdlib, trimmed)
        request_line, *field_lines = trimmed.decode("latin-1").splitlines()
        lengths = {value.strip() for name, _, value in (line.partition(":") for line in field_lines)
                   if name.lower() == "content-length"}
        if len(lengths) > 1 and stdlib["ok"] and len(request_line.split()) == 3:
            assert own["errors"] == [400]  # conflicting Content-Length
            return
        if len(request_line.split()) == 2:
            # an HTTP/0.9 simple request has no header block, so no field counts
            stdlib.update(fields=own["fields"], close=own["close"])
        assert own == stdlib


def bare(handler_class, verbose: bool):
    """A handler of `handler_class` with a client address and an in-memory `wfile`, and no connection."""
    handler = handler_class.__new__(handler_class)
    handler.server = SimpleNamespace(verbose=verbose)
    handler.client_address = ("127.0.0.1", 50_000)
    handler.wfile = io.BytesIO()
    return handler


class TestStdlibFormats:
    """The request loop's own `Date`, error responses and log lines against the stdlib's.

    The server process loads neither `email.utils` nor `http.server`; the
    tests import both as references.
    """

    @pytest.mark.parametrize("when", [
        (2024, 2, 29, 12, 0, 0),  # a leap day
        (2000, 1, 1, 0, 0, 0),
        (1999, 12, 31, 23, 59, 59),
        (2023, 12, 31, 8, 5, 9),
        (1970, 1, 1, 0, 0, 0),
    ])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.999, 0.9999997])  # the last rounds up to the next second
    def test_date_is_email_utils_formatdate(self, when, fraction):
        timestamp = datetime.datetime(*when, tzinfo=datetime.timezone.utc).timestamp() + fraction
        assert _http_date(timestamp) == email.utils.formatdate(timestamp, usegmt=True)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 253_402_300_799))  # through 31 December 9999
    def test_date_is_email_utils_formatdate_for_any_second(self, timestamp):
        assert _http_date(timestamp) == email.utils.formatdate(timestamp, usegmt=True)

    @pytest.mark.parametrize("requestline", [
        "GET /health HTTP/1.1",
        "GET /a\x1b[31m\x7f\x9f\\b HTTP/1.1",  # C0, DEL, C1 and a backslash
        "GET /\xe9\x00\t HTTP/1.0",
        "",
    ])
    def test_access_and_error_lines_are_the_stdlibs(self, monkeypatch, capsys, requestline):
        local = time.struct_time((2024, 2, 29, 23, 59, 59, 3, 60, 0))
        monkeypatch.setattr(time, "localtime", lambda *args: local)
        written = []
        for handler_class in (_Handler, _Stdlib):
            handler = bare(handler_class, verbose=True)
            handler.requestline = requestline
            handler.log_request(200)
            handler.log_error("code %d, message %s", 400, f"Bad request syntax ({requestline!r})")
            handler.log_error("Request timed out: %r", TimeoutError("timed out"))
            handler.log_error("internal error on %s %s: %r", "POST", requestline, ValueError("\x00"))
            written.append(capsys.readouterr().err)
        assert written[0] == written[1]
        assert written[0].count("\n") == 4 and written[0].startswith("127.0.0.1 - - [29/Feb/2024 23:59:59] ")

    def test_quiet_server_logs_nothing(self, capsys):
        handler = bare(_Handler, verbose=False)
        handler.requestline = "GET /health HTTP/1.1"
        handler.log_request(200)
        handler.log_error("Request timed out: %r", TimeoutError("timed out"))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("code, message", [
        (400, "Bad request syntax ('GET /<a&b> c d')"),
        (414, None),
        (431, "Line too long"),
        (501, "Unsupported method ('PUT')"),
        (505, "Invalid HTTP version (2.0)"),
    ])
    @pytest.mark.parametrize("command, version", [("GET", "HTTP/1.1"), ("HEAD", "HTTP/1.0"), (None, "HTTP/0.9"), ("", "")])
    def test_error_response_is_the_stdlibs(self, monkeypatch, capsys, code, message, command, version):
        monkeypatch.setattr(time, "time", lambda: 951_782_399.5)  # 28 February 2000, 23:59:59.5
        monkeypatch.setattr(time, "localtime", lambda *args: time.struct_time((2000, 2, 29, 0, 59, 59, 1, 60, 0)))
        answers = []
        for handler_class in (_Handler, _Stdlib):
            handler = bare(handler_class, verbose=True)
            handler.requestline, handler.command, handler.request_version = "PUT /x HTTP/1.1", command, version
            handler.close_connection = False
            handler.send_error(code, message)
            answers.append((handler.wfile.getvalue(), handler.close_connection, capsys.readouterr().err))
        assert answers[0] == answers[1]


# Serves the repository named by argv[2] and sends the (path, body) pairs
# read from stdin on one keep-alive connection; prints [status, payload] each.
_EXCHANGE_SCRIPT = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from test_server import exchange, post
from semschema.server import SchemaServer, ServerConfig
httpd = SchemaServer(ServerConfig(sys.argv[2], port=0))
threading.Thread(target=httpd.serve_forever, daemon=True).start()
requests = [post(path, body.encode()) for path, body in json.load(sys.stdin)]
print(json.dumps([[status, payload.decode()] for status, payload in exchange(httpd, *requests)]))
"""


class TestDeepBody:
    """A body nested one level past MAX_DEPTH fails alone; one at the bound gets its answer.

    Run in a fresh interpreter, as a RecursionError that escaped into pytest
    would stall the run instead of failing it.
    """

    @staticmethod
    def fresh_exchange(repo_dir, requests):
        env = dict(os.environ, PYTHONPATH=str(Path(semschema.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _EXCHANGE_SCRIPT, str(Path(__file__).parent), str(repo_dir)],
            input=json.dumps(requests), env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return [(status, json.loads(payload)) for status, payload in json.loads(done.stdout)]

    @pytest.mark.parametrize("route", ["/validate", "/transform"])
    def test_too_deep_body_is_400_and_the_next_request_is_answered(self, repo_dir, registry, route):
        event = json.dumps(generate_valid(registry, "View Item", 0, GenConfig(seed=6)))
        deep, column = "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1), MAX_DEPTH + 1
        if route == "/validate":
            event, deep = '{"event": %s}' % event, '{"event": %s}' % deep[1:-1]
            column = len('{"event": ') + MAX_DEPTH
        before, refused, after = self.fresh_exchange(repo_dir, [[route, event], [route, deep], [route, event]])
        assert refused == (400, {"error": f"nesting deeper than {MAX_DEPTH} levels (line 1, column {column})"})
        assert before[0] == 200 and after == before

    def test_body_at_the_bound_gets_its_result(self, repo_dir, registry):
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=6))
        text = json.dumps(event)
        # the body's object, the event and MAX_DEPTH - 2 arrays
        found = "[" * (MAX_DEPTH - 2) + "]" * (MAX_DEPTH - 2)
        validate_body = '{"event": %s, "extra": %s}}' % (text[:-1], found)
        # the event and MAX_DEPTH - 1 objects under `custom`
        transform_body = '{"custom": ' + '{"a": ' * (MAX_DEPTH - 1) + '"x"' + "}" * (MAX_DEPTH - 1) + ", " + text[1:]
        requests = [["/validate", validate_body], ["/transform", transform_body]]
        validated, transformed = self.fresh_exchange(repo_dir, requests)
        mismatch = {"path": ".extra", "kind": "unknown-property", "expected": "a declared property",
                    "found": found[:117] + "..."}
        assert validated == (200, {"valid": False, "mismatches": [mismatch]})
        assert transformed == (200, json.loads(transform_body))
