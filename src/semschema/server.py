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
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import jsonmodel
from .errors import RegistryError, SemSchemaError, UnknownSchemaError
from .evolution import TransformSet
from .registry import KINDS, load_repo, slug_to_title
from .validator import parse_target, validate

_SCHEMA_PATH_RE = re.compile(r"^/schemas/([a-z]+)/([A-Za-z0-9-]+)/([0-9]+|latest)$")
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    directory: str
    host: str = "127.0.0.1"
    port: int = 8080
    read_only: bool = True


class SchemaServer(ThreadingHTTPServer):
    """Serves one repository; `transforms` carries the registry snapshot."""

    def __init__(self, cfg: ServerConfig, verbose: bool = False):
        self.cfg = cfg
        self.directory = Path(cfg.directory)
        self.verbose = verbose
        self.transforms = self._load()
        super().__init__((cfg.host, cfg.port), _Handler)

    def _load(self) -> TransformSet:
        return TransformSet.load(load_repo(self.directory), self.directory / "transforms")

    def reload(self) -> TransformSet:
        # one attribute store is the atomic swap; a handler reads it once per request
        self.transforms = transforms = self._load()
        return transforms


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "semschema"
    # seconds a connection may stay silent, mid-body included, before it is closed
    timeout = 30
    server: SchemaServer

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        if self.server.verbose:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------

    def _send(self, status: int, payload: bytes, content_type="application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond(self, route) -> None:
        """Send what `route()` returns, (status, raw bytes or a JSON value).

        The one map from exceptions to statuses: UnknownSchemaError is a
        404, any other SemSchemaError or ValueError (a response that
        cannot be encoded included) a 400, and anything else a 500, except
        OSError, which propagates so that the stdlib closes the connection.
        """
        try:
            status, value = route()
            payload = value if isinstance(value, bytes) else _encode(value)
        except UnknownSchemaError as exc:
            status, payload = 404, _encode({"error": str(exc)})
        except (SemSchemaError, ValueError) as exc:
            status, payload = 400, _encode({"error": str(exc)})
        except OSError:
            raise
        except Exception as exc:
            self.log_error("internal error on %s %s: %r", self.command, self.path, exc)
            status, payload = 500, _encode({"error": f"internal error: {type(exc).__name__}"})
        self._send(status, payload)

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
        self._respond(self._get)

    def do_POST(self):
        self._respond(self._post)

    def _get(self):
        registry = self.server.transforms.registry
        if self.path == "/health":
            return 200, {"status": "ok", "titles": len(registry.titles())}
        match = _SCHEMA_PATH_RE.match(self.path)
        if match is None:
            return 404, {"error": f"no such resource: {self.path}"}
        return self._get_schema(registry, *match.groups())

    def _get_schema(self, registry, kind: str, slug: str, version: str):
        title = slug_to_title(slug)
        if kind not in KINDS or title not in registry.titles() or registry.kind_of(title) != kind:
            return 404, {"error": f"unknown schema {kind}/{slug}"}
        number = registry.latest_version(title) if version == "latest" else int(version)
        if number not in registry.versions(title):
            return 404, {"error": f"unknown version {number} of {title!r}"}
        try:
            return 200, (self.server.directory / kind / slug / f"{number}.json").read_bytes()
        except OSError:
            return 404, {"error": f"schema file missing for {title!r} version {number}"}

    def _post(self):
        if self.path == "/validate":
            body = self._read_body()
            if not isinstance(body, dict) or "event" not in body:
                raise ValueError('body must be an object with an "event" field')
            target = parse_target(body.get("target"))
            mismatches = validate(self.server.transforms.registry, body["event"], target)
            return 200, {"valid": not mismatches, "mismatches": [m.to_json() for m in mismatches]}
        if self.path == "/transform":
            return 200, self.server.transforms.upgrade(self._read_body())
        self._discard_body()
        if self.path != "/reload":
            return 404, {"error": f"no such resource: {self.path}"}
        if self.server.cfg.read_only:
            return 409, {"error": "server is read-only; restart with --writable to allow /reload"}
        try:
            transforms = self.server.reload()
        except (RegistryError, OSError) as exc:
            return 400, {"error": f"reload failed: {exc}"}
        return 200, {"reloaded": True, "titles": len(transforms.registry.titles())}


def _encode(value) -> bytes:
    return (jsonmodel.dumps(value, indent=2) + "\n").encode("utf-8")


def make_server(cfg: ServerConfig, verbose: bool = False) -> SchemaServer:
    return SchemaServer(cfg, verbose)


def serve(cfg: ServerConfig, verbose: bool = True) -> None:
    httpd = make_server(cfg, verbose=verbose)
    host, port = httpd.server_address[:2]
    print(f"serving schemas from {cfg.directory} on http://{host}:{port}")
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
