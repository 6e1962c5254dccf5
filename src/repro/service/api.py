"""The transport-free service core: validate -> fingerprint -> cache ->
compute -> record.

:class:`ServiceCore` is the whole behavior of the query service with no
HTTP in sight — the unit the tests drive directly and the thin stdlib
server (:mod:`repro.service.server`) wraps.  One instance is shared by
all server threads.  Its one lock guards the bookkeeping — the cache,
the in-flight table and the metrics counters — so lookups and counter
bumps from any thread interleave safely.  Computes run on the core's
compute backend (:mod:`repro.service.shard`), which serializes them as
the process-global view caches require.  Fingerprinting, cache hits and
metrics stay concurrent — the hot path of a warm service never blocks
on a compute.

Canonical coordinates
    Every computation runs on the *canonical* graph
    (:func:`repro.graphs.canonical.canonical_graph`) under the
    fingerprint-derived name, never on the submitted labeling.  So the
    cached record — and the answer — is byte-identical no matter which
    member of the isomorphism class a client submits, and byte-identical
    to the offline engine record for the canonical graph.  The response
    carries ``to_canonical`` (the submitted graph's relabeling) so a
    client can translate node ids in the answer (e.g. ``elect``'s
    leader) back into its own labeling.

Batching
    :meth:`ServiceCore.batch` answers a request list by serving hits
    from the cache, deduplicating the misses by ``(fingerprint, task)``,
    and draining them through the backend, one thread per route.  Each
    miss is the compute a single query runs, so a batch answers — and
    fails — exactly as the same queries sent one by one would.

Compute backends
    ``ServiceCore(shards=N)`` with ``N >= 1`` computes on a
    :class:`~repro.service.shard.ShardPool` of worker processes routed
    by fingerprint — each worker owns its own view-cache universe, so
    computes on different shards run truly in parallel while the parent
    keeps the one shared result cache (LRU + warehouse warm tier).
    ``shards=0`` (the default) computes in this process on a
    :class:`~repro.service.shard.LocalBackend`.  Both run
    :func:`~repro.service.shard.compute_record`, so records and
    responses are byte-identical either way.

In-flight deduplication
    Concurrent cold queries for the same ``(fingerprint, task)`` would
    each pay a full compute (N threads, N identical records — the
    thundering herd sharding would multiply).  The query path registers
    a per-key in-flight entry: the first caller (the *leader*) computes;
    every concurrent caller joining before the record lands waits on the
    leader and gets the byte-identical record, counted as an
    ``inflight_hits`` hit tier.  A leader failure propagates the same
    error to every waiter.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.records import Record
from repro.engine.tasks import get_task
from repro.errors import ReproError, ServiceError
from repro.graphs.canonical import CanonicalForm, canonical_form
from repro.graphs.port_graph import PortGraph
from repro.obs import core as obs
from repro.service.cache import CacheKey, ResultCache, canonical_query_name
from repro.service.shard import LocalBackend, ShardPool

#: The tasks the service exposes (one ``POST /v1/<task>`` route each).
#: All are single-record engine tasks, so one query maps to one record.
SERVICE_TASKS = ("advice", "elect", "index", "quotient")


class _Inflight:
    """One in-progress compute other callers can wait on: the leader
    resolves it with the record (or the error) after the cache insert,
    so a late joiner either finds this entry or finds the cache entry —
    never a gap that would elect a second leader."""

    __slots__ = ("event", "record", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.record: Optional[Record] = None
        self.error: Optional[BaseException] = None

    def wait(self) -> Record:
        self.event.wait()
        if self.error is not None:
            raise self.error
        assert self.record is not None
        return self.record


@dataclass(frozen=True)
class QueryResult:
    """One answered query.

    ``record`` is in canonical coordinates (see the module docstring);
    ``to_canonical`` maps the *submitted* graph's node ``u`` to node
    ``to_canonical[u]`` of the canonical graph the record refers to.
    """

    task: str
    fingerprint: str
    cached: bool
    record: Record
    to_canonical: Tuple[int, ...]

    def payload(self) -> Dict[str, Any]:
        """The JSON body the HTTP layer returns."""
        return {
            "task": self.task,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "name": canonical_query_name(self.fingerprint),
            "to_canonical": list(self.to_canonical),
            "record": self.record,
        }


def _as_domain_error(exc: BaseException, what: str) -> ReproError:
    """``exc`` itself if it is a domain error; anything else (a
    KeyboardInterrupt, a bug) as a :class:`ServiceError` naming it — the
    error a waiter on a failed compute receives."""
    if isinstance(exc, ReproError):
        return exc
    return ServiceError(f"{what} failed: {type(exc).__name__}: {exc}")


def parse_graph_payload(payload: Any) -> PortGraph:
    """A request's graph: either the canonical dict form itself or an
    envelope with a ``graph`` field (the shape ``repro corpus emit``
    writes; :func:`repro.graphs.serialization.from_payload` is the
    single shape authority).  Raises :class:`ServiceError` on anything
    else."""
    from repro.graphs.serialization import from_payload

    try:
        return from_payload(payload)
    except ReproError as exc:
        raise ServiceError(f"invalid graph payload: {exc}") from exc


class ServiceCore:
    """The election-query service behind any transport.

    ``tasks`` restricts the queryable engine tasks (default
    :data:`SERVICE_TASKS`).  ``shards=N`` (N >= 1) computes on a
    fingerprint-routed pool of worker processes
    (:mod:`repro.service.shard`); ``shards=0`` computes in this process.
    Records and responses are byte-identical either way.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        tasks: Sequence[str] = SERVICE_TASKS,
        shards: int = 0,
        slow_query_threshold_s: Optional[float] = None,
        slow_query_sink: Optional[Callable[[str], None]] = None,
    ):
        for task in tasks:
            get_task(task)  # fail fast on unknown engine tasks
        if shards < 0:
            raise ServiceError(f"shards must be >= 0, got {shards}")
        if slow_query_threshold_s is not None and slow_query_threshold_s < 0:
            raise ServiceError(
                "slow_query_threshold_s must be >= 0, got "
                f"{slow_query_threshold_s}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.tasks = tuple(tasks)
        self.shards = shards
        # structured slow-query log: queries at or over the threshold
        # emit one JSON line (task, fingerprint, tier, phase timings) to
        # the sink — stderr by default, injectable for tests.  None
        # disables the log entirely.
        self.slow_query_threshold_s = slow_query_threshold_s
        self._slow_query_sink = slow_query_sink
        self._lock = threading.Lock()  # cache + metrics bookkeeping
        self._inflight: Dict[CacheKey, _Inflight] = {}
        # fork the pool before any serving: workers inherit loaded
        # modules only — no server socket, no held locks
        self.backend: Union[LocalBackend, ShardPool] = (
            ShardPool(shards) if shards > 0 else LocalBackend()
        )
        self._started = time.monotonic()
        self._stats: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _task_stats(self, task: str) -> Dict[str, float]:
        # hits = memory_hits + warehouse_hits + inflight_hits (which
        # tier answered: a cache tier, or a concurrent compute the
        # caller joined); misses are cold computes this caller led
        return self._stats.setdefault(
            task,
            {
                "hits": 0,
                "memory_hits": 0,
                "warehouse_hits": 0,
                "inflight_hits": 0,
                "misses": 0,
                "errors": 0,
                "latency_s": 0.0,
            },
        )

    def _count(
        self,
        task: str,
        outcome: str,
        latency_s: float = 0.0,
        tier: Optional[str] = None,
    ) -> None:
        with self._lock:
            stats = self._task_stats(task)
            stats[outcome] += 1
            if tier is not None:
                stats[f"{tier}_hits"] += 1
            stats["latency_s"] += latency_s
        # one histogram observation per answered query (no-op when obs
        # is disabled): the latency distribution /metrics and the
        # warehouse telemetry table chart across PRs
        obs.observe(
            "service_query_latency_s", latency_s, task=task, outcome=outcome
        )

    def _log_slow_query(
        self,
        task: str,
        fingerprint: str,
        tier: Optional[str],
        latency_s: float,
        phases: Dict[str, float],
    ) -> None:
        """Emit one JSON line for a query at or over the threshold."""
        threshold = self.slow_query_threshold_s
        if threshold is None or latency_s < threshold:
            return
        line = json.dumps(
            {
                "slow_query": True,
                "task": task,
                "fingerprint": fingerprint,
                "tier": tier if tier is not None else "compute",
                "latency_s": round(latency_s, 6),
                "threshold_s": threshold,
                "phases": {k: round(v, 6) for k, v in phases.items()},
                "time": time.time(),
            },
            sort_keys=True,
        )
        sink = self._slow_query_sink
        if sink is not None:
            sink(line)
        else:
            print(line, file=sys.stderr, flush=True)
        obs.inc("service_slow_queries", task=task)

    def metrics(self) -> Dict[str, Any]:
        """Hit/miss/error/latency counters, total and per task, plus the
        cache tier sizes — the ``GET /metrics`` body.  ``hits`` split by
        answering tier: ``memory_hits`` (the LRU), ``warehouse_hits``
        (one indexed row read), ``inflight_hits`` (joined a concurrent
        compute of the same key); ``misses`` are cold computes."""
        with self._lock:
            tasks = {name: dict(stats) for name, stats in self._stats.items()}
            cache = {
                "memory_entries": len(self.cache),
                "capacity": self.cache.capacity,
                "persisted_entries": self.cache.persisted,
                "path": self.cache.path,
            }
        counter_keys = (
            "hits", "memory_hits", "warehouse_hits", "inflight_hits",
            "misses", "errors",
        )
        totals = {
            key: sum(stats[key] for stats in tasks.values())
            for key in counter_keys + ("latency_s",)
        }
        out: Dict[str, Any] = {"uptime_s": time.monotonic() - self._started}
        out.update({key: int(totals[key]) for key in counter_keys})
        out["latency_s"] = totals["latency_s"]
        out["tasks"] = tasks
        out["cache"] = cache
        out["shards"] = self.shards
        return out

    # ------------------------------------------------------------------
    # the query path
    # ------------------------------------------------------------------
    def _check_task(self, task: str) -> None:
        if task not in self.tasks:
            raise ServiceError(
                f"unknown service task '{task}'; served tasks: "
                f"{', '.join(self.tasks)}"
            )

    def _lookup(self, key: CacheKey) -> Tuple[Optional[Record], Optional[str]]:
        with self._lock:
            return self.cache.lookup(key)

    def _insert(self, key: CacheKey, record: Record) -> None:
        with self._lock:
            self.cache.put(key, record)

    # ------------------------------------------------------------------
    # in-flight deduplication
    # ------------------------------------------------------------------
    def _join_inflight(self, key: CacheKey) -> Tuple[_Inflight, bool]:
        """Register for the key's in-progress compute: ``(entry, True)``
        makes the caller the leader (it must compute and resolve),
        ``(entry, False)`` a follower (it waits)."""
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                return flight, False
            flight = _Inflight()
            self._inflight[key] = flight
            return flight, True

    def _finish_inflight(
        self,
        key: CacheKey,
        flight: _Inflight,
        record: Optional[Record] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Leader-side resolution.  Deregister *after* the cache insert
        (the caller's responsibility) and *before* waking the waiters:
        any thread arriving in between finds the cache entry, so no
        second leader is ever elected for a computed record."""
        with self._lock:
            self._inflight.pop(key, None)
        flight.record = record
        flight.error = error
        flight.event.set()

    def _compute_or_join(
        self,
        task: str,
        form: CanonicalForm,
        key: CacheKey,
        phases: Dict[str, float],
    ) -> Tuple[Record, Optional[str]]:
        """A cache miss: lead the key's compute, or wait for the
        concurrent caller leading it.  Returns the record and its tier:
        ``"inflight"`` for a follower (timed into ``phases["wait_s"]``),
        None for the leader (``phases["compute_s"]``), which caches the
        record before it releases the followers."""
        t0 = time.perf_counter()
        flight, leader = self._join_inflight(key)
        if not leader:
            with obs.span("service.inflight_wait"):
                record = flight.wait()
            phases["wait_s"] = time.perf_counter() - t0
            return record, "inflight"
        try:
            with obs.span("service.compute", task=task):
                record = self.backend.compute(
                    task, form.fingerprint, form.certificate.decode("ascii")
                )
        except BaseException as exc:
            # resolve the flight whatever happened — a leader that left
            # waiters hanging would deadlock them
            error = _as_domain_error(exc, f"concurrent compute of '{task}'")
            self._finish_inflight(key, flight, error=error)
            raise
        phases["compute_s"] = time.perf_counter() - t0
        self._insert(key, record)
        self._finish_inflight(key, flight, record=record)
        return record, None

    def query(self, task: str, graph: PortGraph) -> QueryResult:
        """Answer one request: fingerprint, cache lookup, compute on
        miss, record.  Concurrent cold queries for the same key compute
        once — the leader runs the task, followers wait and are counted
        as ``inflight`` hits (their record is in the cache by the time
        they return, hence ``cached=True``).  Task failures (e.g.
        ``elect`` on an infeasible graph) count as errors — for the
        leader and every follower — and re-raise for the transport to
        map."""
        self._check_task(task)
        with obs.span("service.query", task=task) as qsp:
            t0 = time.perf_counter()
            with obs.span("service.fingerprint"):
                form = canonical_form(graph)
            t_fp = time.perf_counter()
            key = (form.fingerprint, task)
            with obs.span("service.cache_lookup"):
                record, tier = self._lookup(key)
            phases = {
                "fingerprint_s": t_fp - t0,
                "lookup_s": time.perf_counter() - t_fp,
            }
            if qsp.recording:
                qsp.set("fingerprint", form.fingerprint[:16])
            if record is None:
                try:
                    record, tier = self._compute_or_join(
                        task, form, key, phases
                    )
                except ReproError:
                    self._count(task, "errors", time.perf_counter() - t0)
                    raise
            latency_s = time.perf_counter() - t0
            self._count(
                task, "misses" if tier is None else "hits", latency_s, tier
            )
            if qsp.recording:
                qsp.set("tier", tier or "compute")
            self._log_slow_query(
                task, form.fingerprint, tier, latency_s, phases
            )
            return QueryResult(
                task=task,
                fingerprint=form.fingerprint,
                cached=tier is not None,
                record=record,
                to_canonical=form.to_canonical,
            )

    # ------------------------------------------------------------------
    # the batch path
    # ------------------------------------------------------------------
    def _drain(
        self,
        to_compute: Dict[CacheKey, CanonicalForm],
        computed: Dict[CacheKey, Record],
        arrival_s: Dict[CacheKey, float],
        t0: float,
    ) -> None:
        """The batch's compute phase: the unique misses grouped by
        route, one draining thread per route (a route serves one compute
        at a time, so per-route threads saturate the backend without
        queue contention).  Every thread runs under the caller's span
        context, so a traced batch is one trace.  A task failure on any
        route fails the batch — already-landed records are still cached
        and counted."""
        by_route: Dict[int, List[Tuple[CacheKey, CanonicalForm]]] = {}
        for key, form in to_compute.items():
            route = self.backend.shard_of(form.fingerprint)
            by_route.setdefault(route, []).append((key, form))
        errors: List[Exception] = []
        done_lock = threading.Lock()
        ctx = obs.export_context()

        def drain(jobs: List[Tuple[CacheKey, CanonicalForm]]) -> None:
            with obs.attach(ctx):
                for key, form in jobs:
                    fingerprint, task = key
                    try:
                        record = self.backend.compute(
                            task, fingerprint, form.certificate.decode("ascii")
                        )
                    except Exception as exc:  # raised by the caller: a
                        # bug must not die silently with the drain thread
                        with done_lock:
                            errors.append(exc)
                        return
                    now_s = time.perf_counter() - t0
                    with done_lock:
                        computed[key] = record
                        arrival_s[key] = now_s
                    self._insert(key, record)

        threads = [
            threading.Thread(target=drain, args=(jobs,), daemon=True)
            for jobs in by_route.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def batch(
        self, requests: Iterable[Tuple[str, PortGraph]]
    ) -> List[QueryResult]:
        """Answer a request list: hits from the cache, the deduplicated
        misses drained through the compute backend, answers in request
        order.  A task failure fails the whole batch with the error a
        single query for that graph raises.

        Metrics are per item and honest: a hit is charged its own
        lookup latency; the first occurrence of a cold key is the miss,
        charged the time until its record landed; further occurrences
        of the same cold key are ``inflight`` hits (they rode the one
        compute), charged the same landing time.  On a failed batch,
        items whose record never landed count as errors with the time
        to failure.  The unique cold keys are also registered in the
        in-flight table, so concurrent single queries join the batch's
        computes instead of recomputing."""
        t0 = time.perf_counter()
        # item: (task, form, key, hit, tier, first, lookup_s)
        items: List[
            Tuple[
                str,
                CanonicalForm,
                CacheKey,
                Optional[Record],
                Optional[str],
                bool,
                float,
            ]
        ] = []
        to_compute: Dict[CacheKey, CanonicalForm] = {}
        for task, graph in requests:
            self._check_task(task)
            item_t0 = time.perf_counter()
            form = canonical_form(graph)
            key = (form.fingerprint, task)
            hit, tier = self._lookup(key)
            lookup_s = time.perf_counter() - item_t0
            first = hit is None and key not in to_compute
            if first:
                to_compute[key] = form
            items.append((task, form, key, hit, tier, first, lookup_s))

        # register the unique cold keys so concurrent queries dedup
        # against this batch; only keys we lead get resolved by us (a
        # key some other request is already computing stays theirs — we
        # compute our own copy, a benign duplicate, rather than block
        # the whole batch on a foreign flight)
        flights: Dict[CacheKey, _Inflight] = {}
        for key in to_compute:
            flight, leader = self._join_inflight(key)
            if leader:
                flights[key] = flight

        computed: Dict[CacheKey, Record] = {}
        arrival_s: Dict[CacheKey, float] = {}
        failure: Optional[BaseException] = None
        try:
            self._drain(to_compute, computed, arrival_s, t0)
        except BaseException as exc:
            failure = exc
        fail_s = time.perf_counter() - t0
        # release this batch's waiters whatever happened: with the
        # landed record, else with the failure
        for key, flight in flights.items():
            if key in computed:
                self._finish_inflight(key, flight, record=computed[key])
            else:
                error = _as_domain_error(failure, "concurrent batch compute")
                self._finish_inflight(key, flight, error=error)
        if failure is not None and not isinstance(failure, ReproError):
            raise failure
        # every item is counted with its real latency, a failed batch's
        # too (the transport answers it with one error): hits stay hits,
        # a landed record is the miss (first occurrence) or an inflight
        # hit (a duplicate, which rode that compute), and an item whose
        # record never landed is an error charged the time to failure
        results: List[QueryResult] = []
        for task, form, key, hit, tier, first, lookup_s in items:
            if hit is not None:
                self._count(task, "hits", lookup_s, tier=tier)
            elif key not in computed:
                self._count(task, "errors", fail_s)
                continue
            elif first:
                self._count(task, "misses", arrival_s[key])
            else:
                # the response keeps ``cached=False``: this batch did
                # compute it, and the flag describes the answer's origin
                self._count(task, "hits", arrival_s[key], tier="inflight")
            results.append(
                QueryResult(
                    task=task,
                    fingerprint=form.fingerprint,
                    cached=hit is not None,
                    record=computed[key] if hit is None else hit,
                    to_canonical=form.to_canonical,
                )
            )
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        self.backend.close()
        self.cache.close()
