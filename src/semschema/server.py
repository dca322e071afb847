"""HTTP schema server.

Serves the schema repository read-only by default:

    GET  /health
    GET  /schemas/<kind>/<slug>/<version>   the loaded version, rendered as
                                            write_version writes it
    GET  /schemas/<kind>/<slug>/latest
    POST /validate     body {"event": ..., "target": null | "Title" | "Title@N"}
    POST /transform    body is the event; response is the event at the
                       latest version of its declared schema
    POST /reload       re-read the repository (writable mode only, else 409);
                       any body is read and ignored

Every route answers from one snapshot, the registry and transforms that
`SchemaServer._load` built; no route reads the repository directory.
/reload reads the files the loaders read (`registry.read_repo`: each
kind's `<slug>/*.json`, `releases.json`, `transforms/<slug>/*.jslt`) and
compares their bytes with those the snapshot was built from.  Unchanged,
it keeps the snapshot and its warm caches; changed, it builds a new
snapshot from the bytes it compared and swaps it in atomically, so
concurrent requests see either the old or the new repository, never a
mix.  Building a snapshot settles every transform chain, so a file that
does not load and a breaking step with no transform are both refused
with 400 `reload failed: ...`, and the old snapshot keeps serving.

The server is a `socketserver.ThreadingTCPServer` with its own request
loop, so the process loads neither `http.server` nor what that imports
(`http.client`, `ssl` and OpenSSL, `email`, `mimetypes`).  `_Handler`
does what `http.server.BaseHTTPRequestHandler` did, with the same bytes
and log lines: it reads the request head in one pass (RFC 9112 sections 3
and 5), answers a too-long request line (414), a method with no route
(501) and a bad head with the stdlib's HTML error page, answers
`Expect: 100-continue`, formats `Date` (RFC 9110 section 5.6.7) itself,
and logs each request in the stdlib's access-log format when verbose.  A
connection's socket stays blocking, with the kernel's receive and send
timeouts, and every response leaves in one `wfile.write`, so a request
that arrives in one segment costs one `recv` and one `send`.
"""

from __future__ import annotations

import io
import re
import socket
import socketserver
import struct
import sys
import threading
import time
from http import HTTPStatus
from pathlib import Path
from typing import NamedTuple

from . import jsonmodel
from .errors import EvolutionError, RegistryError, SemSchemaError, UnknownSchemaError
from .evolution import TransformSet
from .registry import load_repo, read_repo, slug_to_title
from .validator import parse_target, validate

_SCHEMA_PATH_RE = re.compile(r"^/schemas/([a-z]+)/([A-Za-z0-9-]+)/([0-9]+|latest)$")
MAX_BODY_BYTES = 8 * 1024 * 1024
# a longer request line is refused with 414, a longer field line or more
# header fields with 431
MAX_LINE_BYTES = 65_536
MAX_HEADERS = 100
# a field name is an RFC 9110 token; a version is HTTP/<major>.<minor>
_TOKEN_RE = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class ServerConfig(NamedTuple):
    directory: str
    host: str = "127.0.0.1"
    port: int = 8080
    read_only: bool = True


class SchemaServer(socketserver.ThreadingTCPServer):
    """Serves one repository from `transforms`, the snapshot `_load` built from the bytes in `_files`.

    `reload` swaps in a new snapshot when those bytes have changed.  Each
    connection gets a daemon thread.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, cfg: ServerConfig, verbose: bool = False):
        self.cfg = cfg
        self.directory = Path(cfg.directory)
        self.verbose = verbose
        self._reloading = threading.Lock()
        self._files = read_repo(self.directory)
        self.transforms = self._load(self._files)
        super().__init__((cfg.host, cfg.port), _Handler)

    def _load(self, files: dict[Path, bytes]) -> TransformSet:
        return TransformSet.load(load_repo(self.directory, files), self.directory / "transforms", files)

    def reload(self) -> TransformSet:
        # one attribute store is the atomic swap; a handler reads it once per
        # request.  Reloads take turns, so one that starts later stores later.
        # The snapshot is built from the bytes compared, so a file written
        # during the load is a change the next reload finds.
        with self._reloading:
            files = read_repo(self.directory)
            if files != self._files:
                self.transforms = self._load(files)
                self._files = files
            return self.transforms


class Headers(dict):
    """Request header fields by lower-case name; the first of each name is kept."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _SocketIO(io.RawIOBase):
    """A blocking socket as a raw stream: a read is one `recv`, a write one `sendall`.

    The socket's timeouts are the kernel's (SO_RCVTIMEO and SO_SNDTIMEO), so
    no call polls first.  An expired one fails the call with EAGAIN, which
    Python raises as BlockingIOError; it is raised here as the TimeoutError
    on which `handle_one_request` closes the connection without a response.
    """

    def __init__(self, sock: socket.socket):
        self._recv_into, self._sendall = sock.recv_into, sock.sendall

    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        try:
            return self._recv_into(buffer)
        except BlockingIOError:
            raise TimeoutError("timed out") from None

    def write(self, data) -> int:
        try:
            self._sendall(data)
        except BlockingIOError:
            raise TimeoutError("timed out") from None
        return len(data)


class _Handler(socketserver.BaseRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "semschema"
    sys_version = "Python/" + sys.version.split()[0]
    # seconds a connection may stay silent, mid-head or mid-body included,
    # before it is closed
    timeout = 30
    server: SchemaServer
    headers: Headers

    def setup(self) -> None:
        """Read and write the connection through one `_SocketIO`, with the kernel's timeouts.

        A Python-level timeout (`socket.settimeout`) would poll before every
        `recv` and `send`, and each blocking call hands the interpreter lock
        to another connection's thread.  The timeouts are a POSIX `struct
        timeval`, two C longs.  Nagle's algorithm is off: a `100 Continue`
        and its final response leave in two writes, and the last segment of
        a long response must not wait for the client's delayed ACK (RFC 896;
        RFC 1122 section 4.2.3.2).
        """
        self.connection = sock = self.request
        timeval = struct.pack("@ll", *divmod(round(self.timeout * 1_000_000), 1_000_000))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        raw = _SocketIO(sock)
        self.rfile, self.wfile = io.BufferedReader(raw), raw

    def handle(self) -> None:
        """Answer requests until one closes the connection."""
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read one request and answer it with the route `do_<method>`; a timeout closes the connection."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(self.raw_requestline) > MAX_LINE_BYTES:
                self.requestline = self.request_version = self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            route = getattr(self, "do_" + self.command, None)
            if route is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            route()
        except TimeoutError as exc:
            self.log_error("Request timed out: %r", exc)
            self.close_connection = True

    # -- logging: the stdlib's access-log format, on stderr when verbose ------

    def log_request(self, code) -> None:
        self.log_message('"%s" %s -', self.requestline, code)

    def log_error(self, format, *args) -> None:  # noqa: A002 - the stdlib's signature
        self.log_message(format, *args)

    def log_message(self, format, *args) -> None:  # noqa: A002 - the stdlib's signature
        if self.server.verbose:
            message = (format % args).translate(_CONTROL_CHARS)
            sys.stderr.write("%s - - [%s] %s\n" % (self.client_address[0], _log_time(), message))

    # -- request head ----------------------------------------------------

    def parse_request(self) -> bool:
        """Read the request line and header fields; on failure send an error, return False.

        The request line is taken as `BaseHTTPRequestHandler.parse_request`
        takes it, except that an error in its version gets a status line, and
        a two-word (HTTP/0.9) GET is answered without reading a header block.
        """
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self.requestline = requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            self.request_version = version = words[-1]
            match = _VERSION_RE.fullmatch(version)
            if match is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        self.command = command
        # a leading "//" would read as a network path (gh-87389)
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = fields = Headers()
        if len(words) == 2:
            return True
        # each field line is `name ":" OWS value OWS` with a token name, so
        # obs-fold, whitespace before the colon and a line with no colon are
        # refused, as are two different Content-Lengths (RFC 9112 5.1, 5.2, 6.3)
        readline, count = self.rfile.readline, 0
        while (line := readline(MAX_LINE_BYTES + 1)) not in (b"\r\n", b"\n", b""):
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, "Line too long")
                return False
            count += 1
            if count > MAX_HEADERS:
                self.send_error(431, "Too many headers")
                return False
            name, colon, value = line.partition(b":")
            if not colon or _TOKEN_RE.fullmatch(name) is None:
                self.send_error(400, "Bad header line")
                return False
            name = name.decode("ascii").lower()
            value = value.strip(b" \t\r\n").decode("iso-8859-1")
            if fields.setdefault(name, value) != value and name == "content-length":
                self.send_error(400, "Conflicting Content-Length")
                return False
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if fields.get("expect", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, code: int, message: str | None = None) -> None:
        """Answer with the stdlib's HTML error page and close the connection; log the error and the request.

        `message`, the status's phrase by default, stands in the status line
        and, HTML-escaped, in the page.  HTTP/0.9 gets the page alone, and
        HEAD the head alone.
        """
        status = HTTPStatus(code)
        if message is None:
            message = status.phrase
        self.log_error("code %d, message %s", code, message)
        self.log_request(code)
        self.close_connection = True
        body = (_ERROR_PAGE % (code, _escape(message), code, _escape(status.description))).encode("utf-8", "replace")
        head = b""
        if self.request_version != "HTTP/0.9":
            head = (f"{self.protocol_version} {code:d} {message}\r\nServer: {self.server_version} {self.sys_version}"
                    f"\r\nDate: {_http_date(time.time())}\r\nConnection: close\r\n"
                    f"Content-Type: text/html;charset=utf-8\r\nContent-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.wfile.write(head if self.command == "HEAD" else head + body)

    # -- plumbing --------------------------------------------------------

    def _respond(self, route) -> None:
        """Send what `route()` returns, (status, raw bytes or a JSON value).

        The one map from exceptions to statuses: UnknownSchemaError is a
        404, any other SemSchemaError or ValueError (a response that
        cannot be encoded included) a 400, and anything else a 500, except
        OSError, which propagates to `socketserver`, which closes the connection.
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
        # head and body in one write; HTTP/0.9 gets the body alone
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            payload = (_HEADS[status] % (_http_date(time.time()), len(payload))).encode("latin-1") + payload
        self.wfile.write(payload)

    def _read_body(self):
        length = self.headers.get("Content-Length")
        if length is None:
            error = "missing Content-Length"
        # RFC 9110 8.6: 1*DIGIT, ASCII only; "²" is a digit to str.isdigit
        elif not (length.isascii() and length.isdigit()):
            error = "bad Content-Length"
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
        if length.isascii() and length.isdigit() and int(length) <= MAX_BODY_BYTES:
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
        doc = registry.get(slug_to_title(slug), None if version == "latest" else int(version))
        if doc.kind != kind:
            return 404, {"error": f"unknown schema {kind}/{slug}"}
        return 200, doc.render().encode()

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
        except (RegistryError, EvolutionError, OSError) as exc:
            return 400, {"error": f"reload failed: {exc}"}
        return 200, {"reloaded": True, "titles": len(transforms.registry.titles())}


# one response head per status, with the Date value and Content-Length left to fill
_HEADS = {
    status.value: f"{_Handler.protocol_version} {status.value:d} {status.phrase}\r\nServer: {_Handler.server_version} "
    f"{_Handler.sys_version}\r\nDate: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n"
    for status in HTTPStatus
}

_ERROR_PAGE = """\
<!DOCTYPE HTML>
<html lang="en">
    <head>
        <meta charset="utf-8">
        <title>Error response</title>
    </head>
    <body>
        <h1>Error response</h1>
        <p>Error code: %d</p>
        <p>Message: %s.</p>
        <p>Error code explanation: %d - %s.</p>
    </body>
</html>
"""


def _escape(text: str) -> str:
    """`html.escape(text, quote=False)`, without loading `html.entities`."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# a logged C0 or C1 control character is written as \xNN, and a backslash doubled
_CONTROL_CHARS = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_CONTROL_CHARS[ord("\\")] = "\\\\"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (None, "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(timestamp: float) -> str:
    """The IMF-fixdate of `timestamp`, e.g. `Sun, 06 Nov 1994 08:49:37 GMT`.

    The time is rounded to the microsecond before its second is taken, as
    `email.utils.formatdate` rounds it.
    """
    year, month, day, hh, mm, ss, weekday = time.gmtime(round(timestamp, 6))[:7]
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (_DAYS[weekday], day, _MONTHS[month], year, hh, mm, ss)


def _log_time() -> str:
    """The local time as the access log writes it, e.g. `06/Nov/1994 08:49:37`."""
    year, month, day, hh, mm, ss = time.localtime()[:6]
    return "%02d/%3s/%04d %02d:%02d:%02d" % (day, _MONTHS[month], year, hh, mm, ss)


def _encode(value) -> bytes:
    return (jsonmodel.dumps(value, indent=2) + "\n").encode("utf-8")


def serve(cfg: ServerConfig, verbose: bool = True) -> None:
    httpd = SchemaServer(cfg, verbose)
    host, port = httpd.server_address[:2]
    print(f"serving schemas from {cfg.directory} on http://{host}:{port}")
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
