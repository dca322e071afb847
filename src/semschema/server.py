"""HTTP schema server.

Serves the schema repository read-only by default:

    GET  /health
    GET  /schemas/<kind>/<slug>/<version>   exact on-disk bytes
    GET  /schemas/<kind>/<slug>/latest
    POST /validate     body {"event": ..., "target": null | "Title" | "Title@N"}
    POST /transform    body is the event; response is the event at the
                       latest version of its declared schema
    POST /reload       re-read the repository (writable mode only, else 409);
                       any body is read and ignored

Handlers work against an immutable registry snapshot; /reload swaps the
snapshot atomically, so concurrent requests see either the old or the
new repository, never a mix.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import jsonmodel
from .errors import JsonParseError, RegistryError, SemSchemaError, UnknownSchemaError
from .evolution import TransformSet
from .registry import KINDS, Registry, load_repo, slug_to_title
from .validator import parse_target, validate

_SCHEMA_PATH_RE = re.compile(r"^/schemas/([a-z]+)/([A-Za-z0-9-]+)/([0-9]+|latest)$")
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    directory: str
    host: str = "127.0.0.1"
    port: int = 8080
    read_only: bool = True


class _Snapshot:
    def __init__(self, registry: Registry, transforms: TransformSet):
        self.registry = registry
        self.transforms = transforms


class SchemaApp:
    """Registry state shared by all request handlers."""

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self.directory = Path(cfg.directory)
        self._lock = threading.Lock()
        self._snapshot = self._load()

    def _load(self) -> _Snapshot:
        registry = load_repo(self.directory)
        transforms = TransformSet.load(registry, self.directory / "transforms")
        return _Snapshot(registry, transforms)

    def reload(self) -> _Snapshot:
        fresh = self._load()
        with self._lock:
            self._snapshot = fresh
        return fresh

    @property
    def snapshot(self) -> _Snapshot:
        with self._lock:
            return self._snapshot


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "semschema"
    # seconds a connection may stay silent, mid-body included, before it is closed
    timeout = 30

    @property
    def app(self) -> SchemaApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------

    def _send(self, status: int, payload: bytes, content_type="application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, value) -> None:
        self._send(status, (jsonmodel.dumps(value, indent=2) + "\n").encode("utf-8"))

    def _fail(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self):
        length = self.headers.get("Content-Length")
        if length is None or not length.isdigit():
            error = "missing Content-Length"
        elif int(length) > MAX_BODY_BYTES:
            error = "body too large"
        else:
            return jsonmodel.parse_json(self.rfile.read(int(length)).decode("utf-8"))
        # a body left unread would be taken for the next request
        self.close_connection = True
        raise ValueError(error)

    def _discard_body(self) -> None:
        """Skip a body the route ignores; no Content-Length means none."""
        length = self.headers.get("Content-Length", "0")
        if length.isdigit() and int(length) <= MAX_BODY_BYTES:
            self.rfile.read(int(length))
        else:
            self.close_connection = True

    # -- routes ----------------------------------------------------------

    def do_GET(self):
        if self.path == "/health":
            snapshot = self.app.snapshot
            self._send_json(200, {"status": "ok", "titles": len(snapshot.registry.titles())})
            return
        match = _SCHEMA_PATH_RE.match(self.path)
        if match is None:
            self._fail(404, f"no such resource: {self.path}")
            return
        kind, slug, version = match.groups()
        self._get_schema(kind, slug, version)

    def _get_schema(self, kind: str, slug: str, version: str) -> None:
        registry = self.app.snapshot.registry
        title = slug_to_title(slug)
        if kind not in KINDS or title not in registry.titles() or registry.kind_of(title) != kind:
            self._fail(404, f"unknown schema {kind}/{slug}")
            return
        number = registry.latest_version(title) if version == "latest" else int(version)
        if number not in registry.versions(title):
            self._fail(404, f"unknown version {number} of {title!r}")
            return
        file = self.app.directory / kind / slug / f"{number}.json"
        try:
            payload = file.read_bytes()
        except OSError:
            self._fail(404, f"schema file missing for {title!r} version {number}")
            return
        self._send(200, payload)

    def do_POST(self):
        if self.path == "/validate":
            self._post_validate()
        elif self.path == "/transform":
            self._post_transform()
        elif self.path == "/reload":
            self._post_reload()
        else:
            self._discard_body()
            self._fail(404, f"no such resource: {self.path}")

    def _post_validate(self) -> None:
        try:
            body = self._read_body()
            if not isinstance(body, dict) or "event" not in body:
                raise ValueError('body must be an object with an "event" field')
            target = parse_target(body.get("target"))
        except (ValueError, JsonParseError) as exc:
            self._fail(400, str(exc))
            return
        registry = self.app.snapshot.registry
        try:
            mismatches = validate(registry, body["event"], target)
        except UnknownSchemaError as exc:
            self._fail(404, str(exc))
            return
        except RegistryError as exc:
            self._fail(400, str(exc))
            return
        result = {"valid": not mismatches, "mismatches": [m.to_json() for m in mismatches]}
        self._send_json(200, result)

    def _post_transform(self) -> None:
        try:
            event = self._read_body()
        except (ValueError, JsonParseError) as exc:
            self._fail(400, str(exc))
            return
        try:
            transformed = self.app.snapshot.transforms.upgrade(event)
        except UnknownSchemaError as exc:
            self._fail(404, str(exc))
            return
        except SemSchemaError as exc:
            self._fail(400, str(exc))
            return
        self._send_json(200, transformed)

    def _post_reload(self) -> None:
        self._discard_body()
        if self.app.cfg.read_only:
            self._fail(409, "server is read-only; restart with --writable to allow /reload")
            return
        try:
            snapshot = self.app.reload()
        except (RegistryError, OSError) as exc:
            self._fail(400, f"reload failed: {exc}")
            return
        self._send_json(200, {"reloaded": True, "titles": len(snapshot.registry.titles())})


def make_server(cfg: ServerConfig, verbose: bool = False) -> ThreadingHTTPServer:
    app = SchemaApp(cfg)
    httpd = ThreadingHTTPServer((cfg.host, cfg.port), _Handler)
    httpd.app = app  # type: ignore[attr-defined]
    httpd.verbose = verbose  # type: ignore[attr-defined]
    return httpd


def serve(cfg: ServerConfig, verbose: bool = True) -> None:
    httpd = make_server(cfg, verbose=verbose)
    host, port = httpd.server_address[:2]
    print(f"serving schemas from {cfg.directory} on http://{host}:{port}")
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
