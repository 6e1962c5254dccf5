"""The stdlib HTTP front-end of the query service.

A :class:`ThreadingHTTPServer` wrapping one shared
:class:`~repro.service.api.ServiceCore`.  Endpoints:

``POST /v1/<task>`` (``elect`` | ``index`` | ``advice`` | ``quotient``)
    Body: the canonical graph dict (``{"n": ..., "edges": [...]}``), or
    an envelope carrying it under ``"graph"`` (the ``corpus emit`` line
    shape).  Response: the query payload — fingerprint, cache hit flag,
    the canonical-coordinates record, and the submitted graph's
    ``to_canonical`` relabeling.

``POST /v1/batch``
    Body: ``{"requests": [{"task": ..., "graph": ...}, ...]}``.  Hits
    come from the cache; the deduplicated misses drain through the
    core's compute backend.  Response: ``{"results": [...]}`` in
    request order; a failing task answers the error its single query
    would.

``GET /healthz``
    Liveness: status, uptime, cache tier sizes, and — in sharded mode —
    per-shard health rows (alive flag, respawn count, timestamp and
    cause of the last worker death).

``GET /metrics``
    The hit/miss/error/latency counters of
    :meth:`~repro.service.api.ServiceCore.metrics`, as JSON by default.
    Content negotiation: an ``Accept`` header naming ``text/plain`` or
    ``openmetrics`` (what a Prometheus scraper sends), or the query
    string ``?format=prometheus``, returns the same counters plus the
    :mod:`repro.obs` registry in Prometheus text exposition format
    0.0.4.

Error mapping: malformed requests (bad JSON, bad graph, unknown task or
route) return 400/404; a task failure on a valid graph (e.g. ``elect``
on an infeasible network, or on the one-node graph, whose advice is
undefined) returns 422 with the error class and detail.  An error that
carries an ``http_status`` answers with it, on ``/v1/<task>`` and
``/v1/batch`` alike: a shard worker that died mid-compute, or a closed
shard pool, is a retryable 503 with ``Retry-After: 1`` (the next query
reaches the respawned worker), and a chunked request body is a 411.  The errors
``http.server`` answers itself — an unsupported method (501), a bad
request line (400) or HTTP version (505), a URI over 64 KiB (414), too
many headers (431) — keep their status but carry ``{"error": <reason
phrase>, "detail": <message>}``.  Any other failure of a query or batch
prints its traceback to stderr and returns 500 with ``{"error":
"InternalError", "detail": <exception class>}``.  These two, and any
error that leaves the request body unread, close the connection
(``Connection: close``).  All bodies, including errors, are JSON.

Reply framing: every reply leaves through :meth:`_Handler._send` in one
``wfile.write`` — one ``sendall`` — on a ``TCP_NODELAY`` socket, so no
reply waits on the client's delayed ACK (see DESIGN.md, "Service
architecture").

No third-party dependency: ``http.server`` is in the stdlib.  Request
threads overlap freely on parsing, fingerprinting and cache hits; task
*computations* serialize on the local backend's lock (the view caches
are process-global — see :mod:`repro.service.shard`) unless the core
runs sharded (``ServiceCore(shards=N)`` / ``repro serve --shards N``),
where cold computes fan out across fingerprint-routed worker processes
and only per-shard traffic serializes.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.service.api import ServiceCore, parse_graph_payload

#: Cap request bodies (a million-node graph dict is ~tens of MB; anything
#: beyond this is a client error, not a workload).
MAX_BODY_BYTES = 256 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """The threaded server; carries the shared core for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], core: ServiceCore):
        super().__init__(address, _Handler)
        self.core = core


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # a request line too garbled to name a version is answered with a
    # status line and headers, not as HTTP/0.9 (a bare body)
    default_request_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection (StreamRequestHandler.setup):
    # a reply must not wait for the client's ACK of an earlier one, as
    # the second of two pipelined requests' replies would with Nagle on
    disable_nagle_algorithm = True

    @property
    def core(self) -> ServiceCore:
        return self.server.core  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter; metrics carry the counts."""

    # ------------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Write one reply: status line, headers and body in a single
        ``wfile.write``, which is one ``sendall`` on the unbuffered
        socket writer.  ``end_headers`` would send the header block on
        its own, and the body would then wait for the client's delayed
        ACK (~40 ms) before it could leave."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 503:
            # every 503 is a retryable backend failure
            self.send_header("Retry-After", "1")
        if self.close_connection:
            # announce an error-path close (e.g. an unconsumed body) so
            # keep-alive clients do not try to reuse the connection
            self.send_header("Connection", "close")
        # http.server buffers no status line or headers for an HTTP/0.9
        # request, so the buffer may not exist
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        if head:
            head += b"\r\n"
        if self.command == "HEAD":
            body = b""  # a HEAD reply announces its body but never sends it
        self.wfile.write(head + body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, exc: Exception) -> None:
        self._send_json(
            status, {"error": type(exc).__name__, "detail": str(exc)}
        )

    def _send_internal_error(self, exc: Exception) -> None:
        """A failure no error class anticipated: print the traceback
        the way ``socketserver`` does, then answer a JSON 500 and close
        the connection instead of dropping it unanswered."""
        self.server.handle_error(self.request, self.client_address)
        self.close_connection = True
        self._send_json(
            500, {"error": "InternalError", "detail": type(exc).__name__}
        )

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """JSON in place of the stdlib's HTML page for the errors
        ``http.server`` answers itself: an unsupported method (501), a
        bad request line (400) or HTTP version (505), a URI over 64 KiB
        (414), too many headers (431).  The request was not understood,
        so the connection closes after the reply."""
        phrase, description = self.responses.get(code, ("", ""))
        self.close_connection = True
        self._send_json(
            code, {"error": phrase, "detail": message or description}
        )

    def _read_json_body(self) -> Any:
        encodings = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encodings:
            # without this check a chunked request (no Content-Length)
            # would fall into the empty-body branch below and get a
            # misleading "body must be a JSON document"; name the actual
            # problem, with the 411 status the HTTP spec assigns to it.
            # The chunked body is unread, so the connection must close.
            self.close_connection = True
            exc = ServiceError(
                "chunked transfer encoding is not supported: send the "
                "body with an explicit Content-Length"
            )
            exc.http_status = 411  # Length Required
            raise exc
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True  # undeclared body length: the
            # connection cannot be resynchronized, drop it after the 400
            raise ServiceError(
                "Content-Length header must be an integer"
            ) from None
        if length <= 0 or length > MAX_BODY_BYTES:
            # rejecting without consuming the declared body would leave
            # its bytes in the socket and desynchronize keep-alive; the
            # body is unread (or unbounded), so close after replying
            self.close_connection = True
            if length <= 0:
                raise ServiceError("request body must be a JSON document")
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from None

    def _wants_prometheus(self, path_query: str) -> bool:
        """Content negotiation for ``GET /metrics``: a Prometheus
        scraper's Accept header (``text/plain`` / OpenMetrics), or an
        explicit ``?format=prometheus``, selects the text exposition;
        everything else keeps the JSON body."""
        if "format=prometheus" in path_query:
            return True
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept or "openmetrics" in accept

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            metrics = self.core.metrics()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "uptime_s": metrics["uptime_s"],
                    "tasks": list(self.core.tasks),
                    "cache": metrics["cache"],
                    "shards": self.core.shards,
                    "shards_alive": self.core.backend.alive(),
                    "shard_health": self.core.backend.health(),
                },
            )
        elif path == "/metrics":
            if self._wants_prometheus(query):
                from repro.obs import render_prometheus, take_snapshot

                metrics = self.core.metrics()
                flat = {
                    key: float(value)
                    for key, value in metrics.items()
                    if isinstance(value, (int, float))
                }
                self._send(
                    200,
                    render_prometheus(
                        take_snapshot(), extra_counters=flat
                    ).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_json(200, self.core.metrics())
        else:
            self._send_json(
                404, {"error": "NotFound", "detail": f"no route {self.path}"}
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        try:
            body = self._read_json_body()
        except ServiceError as exc:
            # a body-framing error may carry its own status (411 for
            # chunked encoding); anything else is a plain 400
            self._send_error_json(getattr(exc, "http_status", 400), exc)
            return
        if self.path == "/v1/batch":
            self._handle_batch(body)
            return
        if not self.path.startswith("/v1/"):
            self._send_json(
                404, {"error": "NotFound", "detail": f"no route {self.path}"}
            )
            return
        task = self.path[len("/v1/") :]
        if task not in self.core.tasks:
            self._send_json(
                404,
                {
                    "error": "NotFound",
                    "detail": f"no task route '/v1/{task}'; served tasks: "
                    f"{', '.join(self.core.tasks)}",
                },
            )
            return
        try:
            graph = parse_graph_payload(body)
        except ServiceError as exc:
            self._send_error_json(400, exc)
            return
        try:
            result = self.core.query(task, graph)
        except ReproError as exc:
            # a well-formed request the computation rejects, e.g. elect
            # on an infeasible graph, or a retryable backend failure that
            # carries its own status (503 for a dying shard worker)
            self._send_error_json(getattr(exc, "http_status", 422), exc)
            return
        except Exception as exc:
            self._send_internal_error(exc)
            return
        self._send_json(200, result.payload())

    def _handle_batch(self, body: Any) -> None:
        try:
            if not isinstance(body, dict) or not isinstance(
                body.get("requests"), list
            ):
                raise ServiceError(
                    'batch body must be {"requests": [{"task": ..., '
                    '"graph": ...}, ...]}'
                )
            requests = []
            for i, item in enumerate(body["requests"]):
                if not isinstance(item, dict) or "task" not in item:
                    raise ServiceError(
                        f"batch request [{i}] must be an object with "
                        f"'task' and 'graph'"
                    )
                requests.append(
                    (item["task"], parse_graph_payload(item.get("graph")))
                )
        except ServiceError as exc:
            self._send_error_json(400, exc)
            return
        try:
            results = self.core.batch(requests)
        except ServiceError as exc:
            # an unknown task is a 400; a dying shard worker carries 503
            self._send_error_json(getattr(exc, "http_status", 400), exc)
            return
        except ReproError as exc:
            self._send_error_json(getattr(exc, "http_status", 422), exc)
            return
        except Exception as exc:
            self._send_internal_error(exc)
            return
        self._send_json(200, {"results": [r.payload() for r in results]})


# ----------------------------------------------------------------------
def make_server(
    core: ServiceCore, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (port 0 picks a free one — the tests' path) and return the
    server; the caller drives ``serve_forever``/``shutdown``."""
    return ServiceHTTPServer((host, port), core)


def serve_until_shutdown(
    server: ServiceHTTPServer,
    install_signal_handlers: bool = False,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the accept loop until ``server.shutdown()`` (another thread)
    or, with ``install_signal_handlers``, SIGTERM/SIGINT.  On exit the
    socket is closed and the core's cache closed — the clean shutdown
    that finishes the cache's warehouse run row.

    Signal handlers can only be installed from the main thread; off it
    the flag is ignored (the tests run the CLI loop in a worker thread
    and stop it through ``shutdown()``).  Installed handlers are
    restored on exit — an embedding process (or a test harness) keeps
    its own SIGTERM/SIGINT behavior after the server stops."""
    previous_handlers = None
    if (
        install_signal_handlers
        and threading.current_thread() is threading.main_thread()
    ):
        # shutdown() blocks until the loop exits, so it must not run on
        # the loop's own thread: trampoline through a one-shot thread
        def _stop(signum, frame):  # pragma: no cover - signal path
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous_handlers = (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
        )
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    finally:
        if previous_handlers is not None:
            signal.signal(signal.SIGTERM, previous_handlers[0])
            signal.signal(signal.SIGINT, previous_handlers[1])
        server.server_close()
        server.core.close()
