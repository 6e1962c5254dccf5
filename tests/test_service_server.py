"""The HTTP layer and the CLI client, over a real socket.

A server on an ephemeral port, driven through urllib and through
``repro query`` — the same path CI's service-smoke job exercises."""

import contextlib
import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from http import HTTPStatus

import pytest

from repro.cli import main as cli_main
from repro.errors import InfeasibleGraphError
from repro.graphs import grid_torus, random_tree, relabel_nodes, ring, to_dict
from repro.service import (
    ResultCache,
    ServiceCore,
    make_server,
    serve_until_shutdown,
)
from repro.service.server import _Handler


@contextlib.contextmanager
def serving(core):
    """Serve ``core`` on an ephemeral port; yields the base URL."""
    server = make_server(core)
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_until_shutdown,
        kwargs=dict(server=server, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5)
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(5)


@pytest.fixture()
def service():
    core = ServiceCore()
    with serving(core) as url:
        yield url, core


def post(url, path, payload):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.load(resp)


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as resp:
        return resp.status, json.load(resp)


def post_error(url, path, body: bytes):
    request = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)
    raise AssertionError("expected an HTTP error")


def address(url):
    host, port = url[len("http://") :].split(":")
    return host, int(port)


def connect(url):
    return http.client.HTTPConnection(*address(url), timeout=10)


def raw_exchange(url, request: bytes) -> bytes:
    """Everything the server writes back to raw ``request`` bytes on a
    fresh socket, up to its close of the connection (a connection left
    open fails the read on its timeout)."""
    chunks = []
    with socket.create_connection(address(url), timeout=5) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # a close with request bytes still unread is a reset
    return b"".join(chunks)


def read_reply(stream):
    """``(status, body)`` of the next reply on a buffered socket stream."""
    status = int(stream.readline().split()[1])
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return status, stream.read(length)


class _RecordingWriter:
    """Wraps a handler's ``wfile``; logs the bytes of every write."""

    def __init__(self, inner, writes):
        self._inner, self._writes = inner, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def wire_log(monkeypatch):
    """One entry per accepted connection: the socket's TCP_NODELAY value
    after the handler's setup, and the bytes of each ``wfile.write``."""
    log = []
    setup = _Handler.setup

    def recording_setup(handler):
        setup(handler)
        entry = {
            "nodelay": handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ),
            "writes": [],
        }
        log.append(entry)
        handler.wfile = _RecordingWriter(handler.wfile, entry["writes"])

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    return log


class TestEndpoints:
    def test_query_then_isomorphic_hit(self, service):
        url, _core = service
        g = random_tree(10, seed=2)
        status, first = post(url, "/v1/index", {"graph": to_dict(g)})
        assert status == 200 and first["cached"] is False
        perm = list(reversed(range(g.n)))
        status, second = post(url, "/v1/index", to_dict(relabel_nodes(g, perm)))
        assert status == 200 and second["cached"] is True
        assert second["record"] == first["record"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_healthz_and_metrics(self, service):
        url, _core = service
        status, health = get(url, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert "elect" in health["tasks"]
        post(url, "/v1/quotient", to_dict(grid_torus(3, 3)))
        status, metrics = get(url, "/metrics")
        assert status == 200
        assert metrics["misses"] == 1 and metrics["tasks"]["quotient"]

    def test_batch_roundtrip(self, service):
        url, _core = service
        g = random_tree(9, seed=4)
        body = {
            "requests": [
                {"task": "index", "graph": to_dict(g)},
                {"task": "index", "graph": to_dict(g)},
                {"task": "quotient", "graph": to_dict(ring(6))},
            ]
        }
        status, payload = post(url, "/v1/batch", body)
        assert status == 200 and len(payload["results"]) == 3
        assert payload["results"][0]["record"] == payload["results"][1]["record"]

    def test_concurrent_batches_agree(self, service):
        url, _core = service
        g = random_tree(11, seed=6)
        body = {"requests": [{"task": "index", "graph": to_dict(g)}] * 2}
        results = [None] * 4

        def one(i):
            results[i] = post(url, "/v1/batch", body)[1]

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert all(r is not None for r in results)
        records = {
            json.dumps(r["results"][0]["record"], sort_keys=True)
            for r in results
        }
        assert len(records) == 1

    def test_error_mapping(self, service):
        url, _core = service
        # bad JSON -> 400
        code, body = post_error(url, "/v1/index", b"{not json")
        assert code == 400 and body["error"] == "ServiceError"
        # bad graph -> 400
        code, body = post_error(url, "/v1/index", json.dumps({"edges": 1}).encode())
        assert code == 400
        # unknown task route -> 404
        code, body = post_error(
            url, "/v1/messages", json.dumps(to_dict(ring(5))).encode()
        )
        assert code == 404 and "served tasks" in body["detail"]
        # unknown route -> 404 (GET and POST)
        code, _ = post_error(url, "/nope", json.dumps({}).encode())
        assert code == 404
        try:
            get(url, "/nope")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        # infeasible elect -> 422, counted as an error
        code, body = post_error(
            url, "/v1/elect", json.dumps(to_dict(ring(6))).encode()
        )
        assert code == 422 and body["error"] == "InfeasibleGraphError"
        # malformed batch envelopes -> 400
        code, _ = post_error(url, "/v1/batch", json.dumps({"requests": 3}).encode())
        assert code == 400
        code, _ = post_error(url, "/v1/batch", json.dumps({"requests": [5]}).encode())
        assert code == 400
        # batch with a failing task -> 422
        code, body = post_error(
            url,
            "/v1/batch",
            json.dumps(
                {"requests": [{"task": "elect", "graph": to_dict(ring(6))}]}
            ).encode(),
        )
        assert code == 422
        # empty body -> 400
        code, _ = post_error(url, "/v1/index", b"")
        assert code == 400
        _status, metrics = get(url, "/metrics")
        assert metrics["errors"] == 2

    def test_non_numeric_content_length_gets_a_400(self, service):
        """A garbage Content-Length must produce a JSON 400, not a dead
        connection (regression: uncaught ValueError in the handler)."""
        import http.client

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.load(resp)["error"] == "ServiceError"
        finally:
            conn.close()

    def test_chunked_request_gets_a_411_naming_the_problem(self, service):
        """A chunked request has no Content-Length; it used to fall into
        the empty-body branch and get the misleading "body must be a
        JSON document".  It must get a 411 that names the actual problem
        (regression)."""
        import http.client

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"2\r\n{}\r\n0\r\n\r\n")
            resp = conn.getresponse()
            assert resp.status == 411
            body = json.load(resp)
            assert body["error"] == "ServiceError"
            assert "chunked" in body["detail"]
            assert "Content-Length" in body["detail"]
            assert resp.will_close  # the chunked body was never consumed
        finally:
            conn.close()

    def test_oversized_body_rejection_closes_the_connection(self, service):
        """Rejecting a body without consuming it must not leave its bytes
        to desynchronize a keep-alive connection (regression)."""
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "exceeds" in json.load(resp)["detail"]
            assert resp.will_close  # server closed: nothing left to parse
        finally:
            conn.close()


class TestReplyFraming:
    """Each reply is one write on a TCP_NODELAY socket.  Headers and body
    in two sends with Nagle on made the body wait for the client's
    delayed ACK, ~40 ms per reply (regression)."""

    def test_every_reply_leaves_in_one_write(self, service, wire_log):
        url, _core = service
        tree = to_dict(random_tree(9, seed=4))
        batch = {"requests": [{"task": "index", "graph": tree}] * 2}
        exchanges = [
            ("POST", "/v1/index", json.dumps(tree), {}, 200),
            ("POST", "/v1/index", "{not json", {}, 400),
            ("GET", "/nope", None, {}, 404),
            ("POST", "/v1/elect", json.dumps(to_dict(ring(6))), {}, 422),
            ("POST", "/v1/batch", json.dumps(batch), {}, 200),
            ("GET", "/healthz", None, {}, 200),
            ("GET", "/metrics", None, {}, 200),
            ("GET", "/metrics", None, {"Accept": "text/plain"}, 200),
            ("PUT", "/v1/index", None, {}, 501),  # through send_error
        ]
        for method, path, body, headers, status in exchanges:
            conn = connect(url)
            try:
                conn.request(method, path, body, headers)
                resp = conn.getresponse()
                reply_body = resp.read()
            finally:
                conn.close()
            assert resp.status == status, (method, path)
            writes = wire_log[-1]["writes"]
            assert [len(w) for w in writes] == [len(writes[0])], (
                method,
                path,
                [len(w) for w in writes],
            )
            assert writes[0].startswith(b"HTTP/1.1 %d " % status)
            assert writes[0].endswith(b"\r\n\r\n" + reply_body)
        assert len(wire_log) == len(exchanges)

    def test_accepted_socket_has_tcp_nodelay(self, service, wire_log):
        url, _core = service
        status, _health = get(url, "/healthz")
        assert status == 200
        assert [bool(entry["nodelay"]) for entry in wire_log] == [True]

    @pytest.mark.skipif(
        not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux-only"
    )
    def test_warm_reply_does_not_wait_for_a_delayed_ack(self, service):
        """The client acknowledges late, as the kernel does on a busy
        keep-alive connection; a warm hit must not wait for that ACK."""
        url, _core = service
        body = json.dumps(to_dict(random_tree(12, seed=3)))
        conn = connect(url)
        conn.connect()
        # the client's own request (headers, then body) must not sit
        # behind Nagle either
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        round_trips = []
        try:
            for i in range(6):  # one cold compute, then five warm hits
                started = time.perf_counter()
                conn.request(
                    "POST", "/v1/elect", body, {"Content-Type": "application/json"}
                )
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
                resp = conn.getresponse()
                payload = json.load(resp)
                round_trips.append(time.perf_counter() - started)
                assert resp.status == 200 and payload["cached"] is (i > 0)
        finally:
            conn.close()
        # ~44 ms with the header block sent ahead of the body; ~1 ms now
        assert statistics.median(round_trips[1:]) < 0.020, round_trips

    @pytest.mark.skipif(
        not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux-only"
    )
    def test_pipelined_replies_do_not_wait_for_a_delayed_ack(self, service):
        """One write per reply is not enough on its own: with Nagle on,
        the reply to the second of two pipelined requests waits for the
        client's ACK of the first reply (~44 ms).  TCP_NODELAY sends it
        at once."""
        url, core = service
        g = random_tree(12, seed=3)
        core.query("elect", g)  # warm
        body = json.dumps(to_dict(g)).encode()
        request = b"POST /v1/elect HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
            len(body),
            body,
        )
        pair_times = []
        with socket.create_connection(address(url), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as replies:
                for _ in range(5):
                    started = time.perf_counter()
                    sock.sendall(request + request)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
                    for _reply in range(2):
                        status, reply_body = read_reply(replies)
                        assert status == 200 and json.loads(reply_body)["cached"]
                    pair_times.append(time.perf_counter() - started)
        assert statistics.median(pair_times) < 0.020, pair_times

    def test_reply_headers_and_body_bytes_are_unchanged(self, service):
        """One write changes the framing on the wire, not the reply: the
        same header names in the same order, and the same body bytes."""
        url, _core = service
        g = random_tree(10, seed=2)
        reference = ServiceCore()
        try:
            expected = json.dumps(
                reference.query("index", g).payload(),
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        finally:
            reference.close()
        names = ["Server", "Date", "Content-Type", "Content-Length"]
        conn = connect(url)
        try:
            conn.request("POST", "/v1/index", json.dumps(to_dict(g)))
            resp = conn.getresponse()
            body = resp.read()
            assert (resp.version, resp.status, resp.reason) == (11, 200, "OK")
            assert [name for name, _ in resp.getheaders()] == names
            assert resp.getheader("Server").startswith("repro-service/1 Python/")
            assert resp.getheader("Content-Type") == "application/json"
            assert resp.getheader("Content-Length") == str(len(body))
            assert body == expected
            conn.request("GET", "/nope")  # same keep-alive connection
            resp = conn.getresponse()
            body = resp.read()
            assert (resp.status, resp.reason) == (404, "Not Found")
            assert [name for name, _ in resp.getheaders()] == names
            assert body == b'{"detail":"no route /nope","error":"NotFound"}'
        finally:
            conn.close()

    def test_prometheus_reply_announces_a_close(self, service):
        """The text reply goes through the same path as the JSON ones, so
        it too says ``Connection: close`` when the connection closes."""
        url, _core = service
        conn = connect(url)
        try:
            conn.request(
                "GET", "/metrics?format=prometheus", headers={"Connection": "close"}
            )
            resp = conn.getresponse()
            assert resp.status == 200 and resp.read()
            assert resp.getheader("Content-Type").startswith("text/plain")
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()


#: Requests ``http.server`` rejects before any handler method runs.
STDLIB_ERROR_PROBES = [
    pytest.param(
        b"PUT /v1/index HTTP/1.1\r\nHost: x\r\n\r\n",
        501,
        "Unsupported method",
        id="unsupported-method",
    ),
    pytest.param(
        b"GET /v1 index HTTP/1.1\r\n\r\n", 400, "Bad request syntax",
        id="bad-request-line",
    ),
    pytest.param(
        b"GET / HTTP/2.0\r\n\r\n", 505, "Invalid HTTP version",
        id="bad-http-version",
    ),
    pytest.param(
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        414,
        "URI is too long",
        id="uri-over-64KiB",
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
        431,
        "Too many headers",
        id="too-many-headers",
    ),
    # a one-word line parses as HTTP/0.9, which gets no status line
    pytest.param(
        b"GARBAGE\r\n\r\n", 400, "Bad request syntax", id="garbage-line"
    ),
]


class TestEdgeErrors:
    """Hostile or unexpected input at the HTTP edge gets a JSON reply
    and a closed connection, never an HTML page or a dropped socket."""

    @pytest.mark.parametrize("request_bytes,code,detail", STDLIB_ERROR_PROBES)
    def test_stdlib_errors_answer_in_json(
        self, service, request_bytes, code, detail
    ):
        url, _core = service
        reply = raw_exchange(url, request_bytes)  # returns once closed
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        phrase = HTTPStatus(code).phrase
        assert status_line == f"HTTP/1.1 {code} {phrase}"
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        payload = json.loads(body)
        assert payload["error"] == phrase
        assert detail in payload["detail"]

    def test_head_gets_headers_and_no_body(self, service):
        url, _core = service
        reply = raw_exchange(url, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"\r\nContent-Type: application/json\r\n" in head
        assert b"\r\nConnection: close" in head
        assert body == b""

    def test_unexpected_failure_is_a_json_500(self, service, monkeypatch, capsys):
        url, core = service

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(core, "query", broken)
        monkeypatch.setattr(core, "batch", broken)
        graph = to_dict(ring(5))
        for path, body in (
            ("/v1/index", graph),
            ("/v1/batch", {"requests": [{"task": "index", "graph": graph}]}),
        ):
            conn = connect(url)
            try:
                conn.request("POST", path, json.dumps(body))
                resp = conn.getresponse()
                assert resp.status == 500
                assert json.load(resp) == {
                    "error": "InternalError",
                    "detail": "RuntimeError",
                }
                assert resp.will_close
            finally:
                conn.close()
        # the traceback is on stderr, and the next connection is served
        assert "RuntimeError: injected" in capsys.readouterr().err
        monkeypatch.undo()
        status, payload = post(url, "/v1/index", graph)
        assert status == 200 and payload["cached"] is False

    def test_malformed_edge_fields_are_a_json_400(self, service):
        """A null edge field used to raise a TypeError under the parse,
        and the client saw the connection drop with no reply; a float or
        string field was truncated, and the client got a 200 about a
        different graph."""
        url, _core = service
        triangle = [[0, 0, 1, 0], [1, 1, 2, 0], [2, 1, 0, 1]]
        for graph in (
            {"n": 2, "edges": [[None, 0, 1, 0]]},
            {"n": 3, "edges": [[0.9, 0, 1.7, "0"], [1, 1, 2, 0], [2, 1, 0, 1]]},
            {"n": True, "edges": []},
            {"n": 3.0, "edges": triangle},
            {"n": "3", "edges": triangle},
        ):
            for path, body in (
                ("/v1/index", graph),
                ("/v1/batch", {"requests": [{"task": "index", "graph": graph}]}),
            ):
                code, payload = post_error(url, path, json.dumps(body).encode())
                assert code == 400, (graph, path)
                assert payload["error"] == "ServiceError"
                assert "invalid graph payload" in payload["detail"]

    @pytest.mark.parametrize("shards", [0, 1])
    def test_one_node_graph_is_a_422(self, shards):
        """phi = 0 has no advice: elect and advice must answer 422, not
        drop the connection (in process) or wrap an IndexError (sharded)."""
        one_node = json.dumps({"n": 1, "edges": []}).encode()
        with serving(ServiceCore(shards=shards)) as url:
            for task in ("elect", "advice"):
                code, body = post_error(url, f"/v1/{task}", one_node)
                assert code == 422
                assert body["error"] == "AdviceError"
                assert "phi = 0" in body["detail"]


class TestSignalHandlers:
    def test_serve_until_shutdown_restores_previous_handlers(self):
        """Embedding the server must not permanently hijack SIGTERM and
        SIGINT: whatever handlers were installed before the accept loop
        must be back after it exits (regression: the handlers leaked)."""
        import signal

        def custom_handler(signum, frame):  # pragma: no cover - never fired
            pass

        previous_term = signal.signal(signal.SIGTERM, custom_handler)
        previous_int = signal.signal(signal.SIGINT, custom_handler)
        try:
            server = make_server(ServiceCore())
            stopper = threading.Timer(0.3, server.shutdown)
            stopper.start()
            # main thread, so the handlers really are installed
            serve_until_shutdown(server, install_signal_handlers=True)
            stopper.join(5)
            assert signal.getsignal(signal.SIGTERM) is custom_handler
            assert signal.getsignal(signal.SIGINT) is custom_handler
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)

    def test_no_handlers_touched_off_main_thread(self):
        """The worker-thread path (the tests' own fixture) must leave
        the process signal table alone entirely."""
        import signal

        before = (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
        )
        server = make_server(ServiceCore())
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_until_shutdown,
            kwargs=dict(
                server=server, install_signal_handlers=True, ready=ready
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        server.shutdown()
        thread.join(5)
        assert (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
        ) == before


class TestShardedServer:
    def test_sharded_server_answers_and_reports_health(self):
        """End to end over a socket with shards=2: answers byte-identical
        to a single-process server, /healthz reports live shards."""
        cores = [ServiceCore(shards=2), ServiceCore()]
        servers = [make_server(core) for core in cores]
        threads = []
        try:
            for server in servers:
                ready = threading.Event()
                thread = threading.Thread(
                    target=serve_until_shutdown,
                    kwargs=dict(server=server, ready=ready),
                    daemon=True,
                )
                thread.start()
                assert ready.wait(5)
                threads.append(thread)
            urls = [
                f"http://127.0.0.1:{server.server_address[1]}"
                for server in servers
            ]
            g = random_tree(11, seed=13)
            payloads = [
                post(url, "/v1/elect", to_dict(g))[1] for url in urls
            ]
            assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
                payloads[1], sort_keys=True
            )
            _status, health = get(urls[0], "/healthz")
            assert health["shards"] == 2
            assert health["shards_alive"] == [True, True]
            _status, single_health = get(urls[1], "/healthz")
            assert single_health["shards"] == 0
            assert single_health["shards_alive"] == []
            # a 422 maps identically through a shard worker
            code, body = post_error(
                urls[0], "/v1/elect", json.dumps(to_dict(ring(6))).encode()
            )
            assert code == 422 and body["error"] == "InfeasibleGraphError"
        finally:
            for server in servers:
                server.shutdown()
            for thread in threads:
                thread.join(5)

    def test_dying_worker_answers_503_on_query_and_batch(self):
        """A shard worker that dies mid-compute is one retryable failure,
        so ``/v1/<task>`` and ``/v1/batch`` answer it alike: a JSON 503
        with ``Retry-After``.  The respawned worker answers the next
        query."""
        from repro.graphs.canonical import graph_fingerprint

        g = random_tree(12, seed=3)
        graph = to_dict(g)
        core = ServiceCore(ResultCache(capacity=0), shards=1)

        def kill_worker():
            shard = core.backend.shard_of(graph_fingerprint(g))
            victim, _conn = core.backend._workers[shard]
            victim.terminate()
            victim.join(5)
            assert not victim.is_alive()

        def post_raw(url, path, payload):
            request = urllib.request.Request(
                url + path,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as failed:
                urllib.request.urlopen(request, timeout=30)
            exc = failed.value
            return exc.code, exc.headers, json.load(exc)

        try:
            with serving(core) as url:
                for path, payload in (
                    ("/v1/elect", graph),
                    ("/v1/batch", {"requests": [{"task": "elect", "graph": graph}]}),
                ):
                    kill_worker()
                    code, headers, body = post_raw(url, path, payload)
                    assert code == 503, (path, code, body)
                    assert headers["Retry-After"] == "1"
                    assert headers["Content-Type"] == "application/json"
                    assert body["error"] == "ServiceError"
                    assert "worker died" in body["detail"]
                status, answer = post(url, "/v1/elect", graph)
                assert status == 200 and answer["cached"] is False
        finally:
            core.close()

    @pytest.mark.parametrize("shards", [0, 1])
    def test_batch_failure_answers_what_a_query_answers(self, shards):
        """A failing batch raises the single query's error class and
        detail, and answers the same 422 body, whatever ``shards`` is —
        not a wrapper that only one compute mode adds."""
        infeasible = to_dict(ring(6))
        core = ServiceCore(shards=shards)
        with serving(core) as url:
            with pytest.raises(InfeasibleGraphError) as single:
                core.query("elect", ring(6))
            with pytest.raises(InfeasibleGraphError) as batched:
                core.batch([("elect", ring(6))])
            assert str(batched.value) == str(single.value)
            query_reply = post_error(
                url, "/v1/elect", json.dumps(infeasible).encode()
            )
            batch_reply = post_error(
                url,
                "/v1/batch",
                json.dumps(
                    {"requests": [{"task": "elect", "graph": infeasible}]}
                ).encode(),
            )
        assert batch_reply == query_reply == (
            422,
            {"error": "InfeasibleGraphError", "detail": str(single.value)},
        )


class TestPersistenceAcrossRestart:
    def test_restart_serves_warm(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        g = random_tree(10, seed=5)

        core = ServiceCore(ResultCache(path=path))
        first = core.query("elect", g)
        assert not first.cached
        core.close()

        core = ServiceCore(ResultCache(path=path))
        second = core.query("elect", relabel_nodes(g, list(reversed(range(g.n)))))
        assert second.cached and second.record == first.record
        core.close()


class TestCLIClient:
    def test_query_roundtrip(self, service, tmp_path, capsys):
        url, _core = service
        g = random_tree(8, seed=7)
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps({"name": "g", "graph": to_dict(g)}))
        assert cli_main(["query", "index", f"@{spec}", "--url", url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["feasible"] is True
        assert cli_main(
            ["query", "index", f"@{spec}", "--url", url, "--record"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == payload["record"]

    def test_query_stdin(self, service, capsys, monkeypatch):
        url, _core = service
        g = random_tree(8, seed=7)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(to_dict(g)) + "\n")
        )
        assert cli_main(["query", "quotient", "-", "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["task"] == "quotient"

    def test_query_service_rejection_exits_2(self, service, capsys):
        url, _core = service
        spec = to_dict(ring(6))
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            json.dump(spec, fh)
        try:
            code = cli_main(["query", "elect", f"@{fh.name}", "--url", url])
        finally:
            os.unlink(fh.name)
        assert code == 2
        assert "InfeasibleGraphError" in capsys.readouterr().err

    def test_query_unreachable_exits_2(self, capsys):
        code = cli_main(
            ["query", "index", "ring:5", "--url", "http://127.0.0.1:1",
             "--timeout", "2"]
        )
        assert code == 2
        assert "no service reachable" in capsys.readouterr().err


class TestServeCommand:
    @pytest.fixture()
    def no_serving(self, monkeypatch):
        """Fail the test, instead of serving forever, if `repro serve`
        gets as far as binding a server."""
        import repro.service as svc

        def refuse(*args, **kwargs):
            raise AssertionError("repro serve started a server")

        monkeypatch.setattr(svc, "make_server", refuse)

    def test_stale_warm_flag_exits_2_without_serving(
        self, tmp_path, capsys, no_serving
    ):
        """`--warm` is gone; argparse reads the stale prefix as
        `--warm-warehouse`, which must refuse a JSONL store cleanly."""
        store = tmp_path / "store.jsonl"
        store.write_text('{"name": "a", "task": "index"}\n')
        assert cli_main(["serve", "--warm", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "store.jsonl" in err
        assert store.read_text() == '{"name": "a", "task": "index"}\n'

    def test_jsonl_cache_exits_2_naming_the_migration(
        self, tmp_path, capsys, no_serving
    ):
        legacy = tmp_path / "legacy.jsonl"
        assert cli_main(["serve", "--cache", str(legacy)]) == 2
        assert "repro warehouse import" in capsys.readouterr().err
        assert not legacy.exists()

    def test_full_serve_path(self, tmp_path, monkeypatch, capsys):
        """`repro serve` end to end: warm from a warehouse sweep, answer
        a warmed query over HTTP, shut down cleanly, persist the cache."""
        import repro.service as svc
        from repro.analysis.sweep import sweep_to_store
        from repro.corpus import iter_corpus
        from repro.engine import open_result_store

        spec = "random-trees:2,seed=1"
        results = tmp_path / "results.sqlite"
        with open_result_store(str(results)) as store:
            sweep_to_store(iter_corpus(spec), "index", store)
        corpus = list(iter_corpus(spec))

        captured = {}
        real_make = svc.make_server

        def grab(core, host="127.0.0.1", port=0):
            captured["server"] = real_make(core, host=host, port=port)
            return captured["server"]

        monkeypatch.setattr(svc, "make_server", grab)
        cache = tmp_path / "cache.sqlite"
        exit_code = {}
        thread = threading.Thread(
            target=lambda: exit_code.setdefault(
                "code",
                cli_main(
                    ["serve", "--port", "0", "--cache", str(cache),
                     "--warm-warehouse", str(results)]
                ),
            ),
            daemon=True,
        )
        thread.start()
        for _ in range(100):
            if "server" in captured:
                break
            time.sleep(0.05)
        server = captured["server"]
        url = f"http://127.0.0.1:{server.server_address[1]}"
        _status, health = get(url, "/healthz")
        assert health["cache"]["persisted_entries"] == 2  # the warm set
        _status, payload = post(
            url, "/v1/index", to_dict(corpus[0][1])
        )
        assert payload["cached"] is True  # served from the warmed cache
        server.shutdown()
        thread.join(10)
        assert exit_code["code"] == 0
        out = capsys.readouterr().out
        assert "warm: 2 entries" in out
        assert "2 entries persisted" in out
        assert cache.exists()


class TestGraphSpecUX:
    def test_spec_accepts_emit_envelope_file(self, tmp_path, capsys):
        g = random_tree(9, seed=1)
        spec = tmp_path / "g.jsonl"
        spec.write_text(json.dumps({"name": "g", "graph": to_dict(g)}) + "\n")
        assert cli_main(["index", f"@{spec}"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_spec_stdin_plain_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(to_dict(random_tree(9, seed=1))))
        )
        assert cli_main(["index", "-"]) == 0

    def test_spec_stdin_invalid(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("garbage"))
        assert cli_main(["index", "-"]) == 2
        assert "not valid graph JSON" in capsys.readouterr().err

    def test_single_graph_file_keeps_legacy_entry_name(self, tmp_path):
        """`sweep --corpus @g.json` must keep keying its record by the
        historical name `@<path>` (one- or multi-line single graph), so
        stores written before the JSONL stream existed stay resumable."""
        import json as _json

        from repro.cli import open_corpus_stream
        from repro.graphs import to_dict, to_json

        g = random_tree(7, seed=2)
        one_line = tmp_path / "one.json"
        one_line.write_text(to_json(g) + "\n")
        pretty = tmp_path / "pretty.json"
        pretty.write_text(_json.dumps(to_dict(g), indent=2))
        for path in (one_line, pretty):
            stream, _hint = open_corpus_stream(f"@{path}")
            entries = list(stream)
            assert entries == [(f"@{path}", g)]
        # several plain graphs are a stream, named by line
        many = tmp_path / "many.jsonl"
        many.write_text(to_json(g) + "\n" + to_json(ring(5)) + "\n")
        stream, _hint = open_corpus_stream(f"@{many}")
        assert [name for name, _g in stream] == [
            f"{many}:1", f"{many}:2"
        ]

    def test_sweep_consumes_emitted_corpus(self, tmp_path, capsys):
        out = tmp_path / "emitted.jsonl"
        assert cli_main(
            ["corpus", "emit", "random-trees:3,seed=4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        store = tmp_path / "store.jsonl"
        assert cli_main(
            ["sweep", "--corpus", f"@{out}", "--task", "index",
             "--out", str(store)]
        ) == 0
        records = [json.loads(l) for l in open(store) if l.strip()]
        assert len(records) == 3
        assert all(r["name"].startswith("random-trees-s4-") for r in records)
