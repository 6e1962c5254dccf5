"""serve-mix: an open loop of HTTP queries against ``repro serve``.

The server runs as ``repro serve --shards 1 --cache <fresh>.sqlite`` in a
subprocess (through ``serve_launcher.py`` when traced), its parent process
on one CPU and its shard worker on the other.  The load comes from this
process: two threads, each owning one persistent keep-alive connection,
take the seeded schedule's sends in order and send each at its due time,
or as soon as their connection is free.  A query's latency runs from its
due time to its last response byte, so a stalled server charges the wait
to every query queued behind the stall.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    MEASURE_CPU,
    ROOT,
    child_env,
    nearest_rank,
    read_json,
    reference_s,
)
from tracing import OP_HEADER

HOST = "127.0.0.1"
CLIENTS = 2
#: The server's parent process (HTTP, canonical form, cache) runs here,
#: its shard worker on MEASURE_CPU, so a cold compute never takes the CPU
#: a warm hit needs and neither moves between CPUs of different speed.
PARENT_CPUS = (set(os.sched_getaffinity(0)) - {MEASURE_CPU}) or {MEASURE_CPU}
#: The run is invalid when the generator itself sent this late (p90):
#: then a slow client, not the server, would set the latencies.
MAX_LATE_P90_MS = 20.0
#: The host-speed sampler runs only when no send is due for this long
#: (one reference loop takes about 10 ms) ...
QUIET_S = 0.030
#: ... and at most this often, so it keeps a CPU busy about 5% of the time.
SAMPLE_EVERY_S = 0.2


class NoDelayConnection(http.client.HTTPConnection):
    """http.client writes headers and body in two sends; without
    TCP_NODELAY the client's own Nagle delay would sit in every request."""

    def connect(self):
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def delay_acks(self) -> None:
        """Acknowledge the coming reply the way the kernel does on a busy
        keep-alive connection: late, on its delayed-ACK timer (about 40
        ms).  The server writes a reply's headers and body in two sends,
        so with Nagle on its socket the body waits for that ACK.  Left to
        itself, the kernel delays the ACK only when this connection's last
        send followed a reply within the timer, which depends on how the
        load queued; then the share of replies that wait, and the p50 with
        it, jumps from run to run."""
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)


def _proc_children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
    return kids


def _descendants(pid: int) -> List[int]:
    out, stack = [], [pid]
    while stack:
        kids = _proc_children(stack.pop())
        out.extend(kids)
        stack.extend(kids)
    return out


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``repro serve --shards 1`` process on a fresh cache file;
    ``setup_s`` runs from the spawn to the first 200 from ``/healthz``.
    With ``trace_json``, the server runs traced and writes its trace there
    when it stops."""

    def __init__(self, workdir: Path, trace_json: Optional[Path] = None):
        tag = f"{time.monotonic_ns()}"
        serve_args = ["serve", "--shards", "1", "--host", HOST, "--port", "0",
                      "--cache", str(workdir / f"cache-{tag}.sqlite")]
        if trace_json is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   str(trace_json), *serve_args]
        self._log_path = workdir / f"server-{tag}.log"
        self._log = open(self._log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, PARENT_CPUS))
        self.port = None
        for line in self.proc.stdout:
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self._fail("repro serve exited before it served")
        self._conn = NoDelayConnection(HOST, self.port, timeout=30)
        while True:
            try:
                if self.get_json("/healthz")["status"] == "ok":
                    break
            except (OSError, http.client.HTTPException):
                self._conn.close()
                if self.proc.poll() is not None or time.perf_counter() - started > 60:
                    self._fail("repro serve never answered /healthz")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        for pid in _descendants(self.proc.pid):  # the shard worker
            os.sched_setaffinity(pid, {MEASURE_CPU})

    def _fail(self, why: str) -> None:
        self.stop()
        raise RuntimeError(f"{why}; its stderr ends:\n"
                           f"{self._log_path.read_text()[-2000:]}")

    def get_json(self, path: str):
        self._conn.request("GET", path)
        resp = self._conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise http.client.HTTPException(f"GET {path}: {resp.status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server plus its shard worker."""
        return sum(_vm_hwm_mb(p)
                   for p in [self.proc.pid, *_descendants(self.proc.pid)])

    def stop(self) -> None:
        """SIGTERM (the server's clean shutdown), then make sure it and its
        workers are gone."""
        kids = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 5
        for pid in kids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        if getattr(self, "_conn", None) is not None:
            self._conn.close()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Reply:
    due: float
    ready: float  # when a connection was free for it: max(due, picked)
    sent: float
    headers: float  # when the status line and headers had arrived
    done: float
    status: Optional[int]
    body: bytes


class _Sampler:
    """Times the host-speed reference loop in the load's idle gaps, from
    the client threads themselves: only while no request is in flight and
    no send is due for :data:`QUIET_S`, at most once per
    :data:`SAMPLE_EVERY_S`, on each of the benchmark's CPUs in turn.  So
    the samples follow the host's speed through the run without competing
    with the server or the clients for a CPU."""

    def __init__(self, clients: int):
        self.samples: List[float] = []
        self._lock = threading.Lock()
        self._inflight = 0
        self._waiting: Dict[int, float] = {}  # client -> due of its next send
        self._clients = clients
        self._cpus = sorted(os.sched_getaffinity(0))
        self._not_before = 0.0

    def waiting(self, client: int, due: float) -> None:
        with self._lock:
            self._waiting[client] = due

    def sending(self, client: int) -> None:
        with self._lock:
            del self._waiting[client]
            self._inflight += 1

    def answered(self) -> None:
        with self._lock:
            self._inflight -= 1

    def idle(self) -> None:
        """A client waits for its next send: sample if the load is quiet."""
        now = time.perf_counter()
        with self._lock:
            if (self._inflight or len(self._waiting) < self._clients
                    or min(self._waiting.values()) < now + QUIET_S
                    or now < self._not_before):
                return
            self._not_before = now + SAMPLE_EVERY_S
            cpu = self._cpus[len(self.samples) % len(self._cpus)]
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            sample = reference_s()
        finally:
            os.sched_setaffinity(0, before)
        with self._lock:
            self.samples.append(sample)


def send_all(port: int, queries) -> tuple:
    """Send ``queries`` on their schedule over :data:`CLIENTS` keep-alive
    connections; returns ``(t0, replies, host-speed samples)`` with times
    on the ``perf_counter`` clock."""
    replies: List[Optional[Reply]] = [None] * len(queries)
    order = iter(range(len(queries)))
    lock = threading.Lock()
    sampler = _Sampler(CLIENTS)
    t0 = time.perf_counter() + 0.05  # both clients are waiting by then

    def client(me):
        conn = NoDelayConnection(HOST, port, timeout=120)
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                break
            query = queries[i]
            due = t0 + query.due
            sampler.waiting(me, due)
            picked = time.perf_counter()
            sampler.idle()
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sampler.sending(me)
            sent = time.perf_counter()
            headers = None
            try:
                conn.request("POST", f"/v1/{query.task}", query.body,
                             {"Content-Type": "application/json",
                              OP_HEADER: str(query.index)})
                conn.delay_acks()
                resp = conn.getresponse()
                headers = time.perf_counter()
                body, status = resp.read(), resp.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                body, status = repr(exc).encode(), None
            done = time.perf_counter()
            replies[i] = Reply(due, max(due, picked), sent, headers or done,
                               done, status, body)
            sampler.answered()
        sampler.waiting(me, float("inf"))  # finished: never due again
        conn.close()

    threads = [threading.Thread(target=client, args=(me,))
               for me in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return t0, replies, sampler.samples


def check_replies(queries, replies) -> Dict[int, str]:
    """Every reply must be a 200 whose record equals the offline engine
    record for its canonical graph.  ``to_canonical`` must map the
    submitted graph onto the graph the fingerprint certifies, every
    relabeling of one graph must get the same fingerprint (for trees,
    also the offline one), and ``cached`` must say whether the key was
    asked before.  Returns ``{query index: why it failed}``."""
    from repro.engine import record_to_json, run_experiments
    from repro.graphs.canonical import canonical_form, relabel_nodes
    from repro.graphs.serialization import to_json
    from repro.service.cache import canonical_query_name

    failures: Dict[int, str] = {}
    fingerprint_of: Dict[str, str] = {}
    asked = set()
    canonical = {}  # (fingerprint, task) -> canonical graph
    pending = []  # (query index, (fingerprint, task), record json)
    for query, reply in zip(queries, replies):  # in send order
        if reply.status != 200:
            failures[query.index] = f"status {reply.status}: {reply.body[:200]!r}"
            continue
        payload = json.loads(reply.body)
        fp, perm = payload["fingerprint"], payload["to_canonical"]
        key = (fp, query.task)
        if sorted(perm) != list(range(query.graph.n)):
            failures[query.index] = "to_canonical is not a permutation"
            continue
        graph = relabel_nodes(query.graph, perm)
        problem = None
        if hashlib.sha256(to_json(graph).encode()).hexdigest() != fp:
            problem = "to_canonical does not map onto the fingerprinted graph"
        elif payload["task"] != query.task or payload["name"] != canonical_query_name(fp):
            problem = "wrong task or record name"
        elif fingerprint_of.setdefault(query.key, fp) != fp:
            problem = "isomorphic submissions got different fingerprints"
        elif query.kind in ("primed", "cold") and canonical_form(query.graph).fingerprint != fp:
            problem = "fingerprint differs from the offline canonical form"
        elif payload["cached"] != (key in asked):
            problem = f"cached={payload['cached']} but asked before={key in asked}"
        if problem:
            failures[query.index] = problem
            continue
        asked.add(key)
        canonical[key] = graph
        pending.append((query.index, key, record_to_json(payload["record"])))

    expected = {}
    for task in sorted({task for _fp, task in canonical}):
        keys = [key for key in canonical if key[1] == task]
        records = run_experiments(
            [(canonical_query_name(fp), canonical[(fp, task)]) for fp, _ in keys],
            task, workers=2)
        expected.update(zip(keys, map(record_to_json, records)))
    for index, key, record_json in pending:
        if expected[key] != record_json:
            failures[index] = "record differs from the offline engine record"
    return failures


def _metrics_delta(before, after, health_before, health_after) -> Dict[str, float]:
    def delta(key):
        return after[key] - before[key]

    hits, misses = delta("hits"), delta("misses")
    restarts = [sum(row["restarts"] for row in h["shard_health"])
                for h in (health_before, health_after)]
    return {
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache.memory_hits": delta("memory_hits"),
        "service.cache.misses": misses,
        "service.inflight_hits": delta("inflight_hits"),
        "service.errors": delta("errors"),
        "service.shard.restarts": restarts[1] - restarts[0],
    }


def run(seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    """One serve-mix measurement: spawn, prime, run the schedule, verify."""
    import workloads

    primed, schedule = workloads.serve_plan(seed, seconds)
    trace_json = workdir / f"trace-{time.monotonic_ns()}.json" if traced else None
    server = Server(workdir, trace_json)
    try:
        _, primed_replies, _ = send_all(server.port, primed)
        metrics0, health0 = server.get_json("/metrics"), server.get_json("/healthz")
        t0, replies, reference = send_all(server.port, schedule)
        metrics1, health1 = server.get_json("/metrics"), server.get_json("/healthz")
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    failures = check_replies(primed + schedule, primed_replies + replies)
    answered = [r for q, r in zip(schedule, replies) if q.index not in failures]
    latencies = {q.index: 1000 * (r.done - r.due) for q, r in zip(schedule, replies)}
    late_ms = [1000 * (r.sent - r.ready) for r in replies]
    by_kind = {}
    for q in schedule:
        by_kind.setdefault(q.kind, []).append(latencies[q.index])
    result = {
        "attempted": len(primed) + len(schedule),
        "failures": {str(k): v for k, v in failures.items()},
        "latencies_ms": list(latencies.values()),
        # headers to last byte: the body's wait for the delayed ACK
        "ack_wait_ms": [1000 * (r.done - r.headers) for r in replies],
        "throughput_per_s": len(answered) / (max(r.done for r in replies) - t0),
        "peak_rss_mb": peak_rss_mb,
        # a validity check, not a reported latency: any sample count will do
        "late_p90_ms": nearest_rank(late_ms, 0.9, min_beyond=0),
        "kind_p50_ms": {k: statistics.median_low(v) for k, v in by_kind.items()},
        "counters": _metrics_delta(metrics0, metrics1, health0, health1),
        "reference_s": reference,
    }
    if traced:
        result["layers"], result["self_time"] = _traced_layers(
            read_json(trace_json), schedule, replies)
    return result


def _traced_layers(trace, schedule, replies):
    from tracing import (
        Totals,
        check_complete,
        from_chrome_trace,
        layer_metrics,
        self_time_table,
    )

    events = from_chrome_trace(trace)
    check_complete(events)
    totals = Totals()
    totals.add(events, keep=lambda op: op is not None and op >= 0)
    n = len(schedule)
    zero_planes = dict.fromkeys(
        ("encode_calls", "encode_hits", "decode_calls", "decode_hits"), 0)
    layers = layer_metrics(totals, totals, n, zero_planes)
    overhead = [1000 * (r.done - r.sent) - 1000 * totals.by_op[q.index, "service.query"]
                for q, r in zip(schedule, replies)
                if (q.index, "service.query") in totals.by_op]
    roundtrips = totals.calls["service.shard.roundtrip"] or 1
    roundtrip_s = totals.incl_s["service.shard.roundtrip"] / roundtrips
    worker_s = totals.incl_s["task"] / (totals.calls["task"] or 1)
    layers.update({
        "service.http.overhead_ms": statistics.median_low(overhead),
        "service.parse_s": totals.self_s["service.parse"] / n,
        "service.query_s": totals.self_s["service.query"] / n,
        "service.cache.lookup_s": totals.self_s["service.cache.lookup"] / n,
        "service.cache.put_s": totals.self_s["service.cache.put"] / n,
        "service.shard.roundtrip_s": roundtrip_s,
        "service.shard.worker_s": worker_s,
        "service.shard.wait_ipc_s": roundtrip_s - worker_s,
    })
    return layers, self_time_table(totals, n) + _per_kind_table(totals, schedule, replies)


def _per_kind_table(totals, schedule, replies) -> List[str]:
    """Mean milliseconds per query kind: where a warm hit, a cold compute
    and a symmetric query spend their time (a cold compute's worker time
    is inside its shard round trip)."""
    spent: Dict[tuple, float] = {}
    for q in schedule:
        for name in ("service.query", "graphs.canonical", "service.shard.roundtrip"):
            spent[q.kind, name] = (spent.get((q.kind, name), 0.0)
                                   + totals.by_op.get((q.index, name), 0.0))
    lines = ["  per query kind, mean ms (client = send to last byte):",
             f"    {'kind':<10} {'queries':>7} {'client':>8} {'query':>8} "
             f"{'canonical':>9} {'shard':>8}"]
    for kind in ("warm", "cold", "symmetric"):
        ops = [(q, r) for q, r in zip(schedule, replies) if q.kind == kind]
        mean = lambda name: 1000 * spent.get((kind, name), 0.0) / len(ops)
        client = 1000 * sum(r.done - r.sent for _q, r in ops) / len(ops)
        lines.append(f"    {kind:<10} {len(ops):>7} {client:>8.2f} "
                     f"{mean('service.query'):>8.2f} {mean('graphs.canonical'):>9.2f} "
                     f"{mean('service.shard.roundtrip'):>8.2f}")
    return lines
