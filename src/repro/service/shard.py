"""The query service's compute backends.

:func:`compute_record` is the service's one compute, and both backends
of :class:`~repro.service.api.ServiceCore` run it, so their records are
byte-identical.  :class:`LocalBackend` (``shards=0``) runs it in process
under one lock, because the view machinery's caches
(:mod:`repro.views.view`) are process-global and not thread-safe.  Warm
hits scale across server threads; cold computes do not — one GIL-bound
process runs them one at a time.  :class:`ShardPool` removes that
ceiling by construction instead of by finer locking:

* :func:`shard_of` routes a query to ``int(fingerprint[:16], 16) %
  num_shards``.  The fingerprint is a sha256 hex digest of the graph's
  canonical certificate, so the route is a pure function of the
  isomorphism class: the same graph lands on the same shard across
  requests, restarts and machines.  (Python's builtin ``hash()`` on
  strings is salted per process and would break exactly that.)
* :class:`ShardPool` forks one long-lived worker process per shard.
  Each worker owns its *own* view-cache universe, so the global-cache
  coherence problem the lock solves disappears between shards — the
  serialization survives only inside each worker, which is what a
  per-shard pipe round-trip already gives.  Workers receive the
  canonical certificate (a JSON string — the graph's wire form), run
  :func:`compute_record` on it, and ship the record dict back.

The result cache is *not* sharded: the parent keeps the single
:class:`~repro.service.cache.ResultCache` (LRU + the warehouse durable
tier) and looks it up before dispatching, so every shard
reads through the one shared warm tier and every computed record lands
back in it.  Workers are pure compute: no cache, no sockets, no state
that outlives a request.

Failure mapping: a task error inside a worker travels back as ``(error,
class-name, detail)`` and is rebuilt from :mod:`repro.errors` by name,
so ``elect`` on an infeasible graph raises
:class:`~repro.errors.InfeasibleGraphError` in the parent exactly as the
local backend does (and the HTTP layer still maps it to 422).  A
*dead* worker (killed, crashed) is respawned on the spot and the
in-flight query fails with a retryable :class:`ServiceError` whose
``http_status`` is 503 — one query, not the service, pays for the
crash.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import tasks as engine_tasks
from repro.engine.records import Record
from repro.errors import ReproError, ServiceError
from repro.graphs.serialization import from_json
from repro.obs import core as obs
from repro.service.cache import canonical_query_name
from repro.views.view import clear_view_caches

#: Hex digits of the fingerprint the route is computed from.  64 bits of
#: a sha256 digest — uniform over shards for any realistic pool size.
_ROUTE_HEX_DIGITS = 16


def shard_of(fingerprint: str, num_shards: int) -> int:
    """The shard a fingerprint routes to: ``int(fp[:16], 16) % N``.

    Deterministic across processes and restarts (no per-process hash
    salt), uniform because the fingerprint is a sha256 digest."""
    if num_shards < 1:
        raise ServiceError(f"num_shards must be >= 1, got {num_shards}")
    try:
        bucket = int(fingerprint[:_ROUTE_HEX_DIGITS], 16)
    except (ValueError, TypeError):
        raise ServiceError(
            f"not a hex fingerprint: {fingerprint!r}"
        ) from None
    return bucket % num_shards


def compute_record(task: str, fingerprint: str, certificate: str) -> Record:
    """Run ``task`` on the canonical graph ``certificate`` encodes, under
    the fingerprint-derived name, so the record does not depend on the
    submitted labeling.  ``elect`` runs through the orbit-collapsed
    engine, whose record is byte-identical to the per-node one.  The
    view caches are cleared afterwards, on success or failure: one query
    is the service's view-cache lifetime, as one chunk is the engine's,
    so a long-running server's view tables do not grow per query."""
    graph = from_json(certificate)
    name = canonical_query_name(fingerprint)
    try:
        # looked up on the module at call time, so a wrapper installed
        # on repro.engine.tasks (perfbench's tracing) sees every compute
        if task == "elect":
            record = engine_tasks.elect_record_via_orbits(name, graph)
        else:
            record = engine_tasks.get_task(task)(name, graph)
    finally:
        clear_view_caches()
    if isinstance(record, list):
        raise ServiceError(
            f"task '{task}' is multi-record and cannot be served"
        )
    return record


class LocalBackend:
    """The ``shards=0`` backend: :func:`compute_record` in this process.
    Computes from all server threads take one lock — a view-cache clear
    racing another thread's half-built views would corrupt identity
    interning — while fingerprinting, cache hits and metrics never do.
    There are no workers, so ``/healthz`` lists none."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def compute(self, task: str, fingerprint: str, certificate: str) -> Record:
        with self._lock:
            return compute_record(task, fingerprint, certificate)

    def shard_of(self, fingerprint: str) -> int:
        return 0

    def alive(self) -> List[bool]:
        return []

    def health(self) -> List[Dict[str, Any]]:
        return []

    def close(self) -> None:
        pass


def _shard_worker_main(conn) -> None:
    """The worker loop: recv ``("compute", task, fingerprint,
    certificate, obs_ctx)``, run :func:`compute_record`, reply ``("ok",
    record, events)`` or ``("error", class-name, detail, events)``;
    ``("stop",)`` or a closed pipe ends the loop.

    ``obs_ctx`` is the parent's span context (or None when obs is off):
    the worker brackets the compute in :class:`repro.obs.collect_remote`
    and ships the captured span events back in the reply, so the
    parent's trace stitches the shard's compute phases under the query
    span."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if message[0] == "stop":
            break
        _op, task, fingerprint, certificate, obs_ctx = message
        with obs.collect_remote(obs_ctx) as collected:
            try:
                with obs.span(
                    "shard.compute", task=task, fingerprint=fingerprint[:16]
                ):
                    record = compute_record(task, fingerprint, certificate)
                result: Tuple[Any, ...] = ("ok", record)
            except Exception as exc:  # ship the class name for rebuilding
                result = ("error", type(exc).__name__, str(exc))
        reply = result + (collected.events,)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    conn.close()


def _rebuild_error(exc_name: str, detail: str, shard: int) -> ReproError:
    """The parent-side half of failure mapping: a :mod:`repro.errors`
    class by its shipped name, or a :class:`ServiceError` wrapper for
    anything foreign (a worker bug must not masquerade as a domain
    error)."""
    import repro.errors as errors_module

    cls = getattr(errors_module, exc_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(detail)
    return ServiceError(
        f"shard {shard} compute failed: {exc_name}: {detail}"
    )


class ShardPool:
    """A pool of ``num_shards`` forked worker processes, one pipe each.

    ``compute()`` routes by :func:`shard_of`, takes the shard's lock (so
    at most one in-flight request per worker — the worker-side analogue
    of :class:`LocalBackend`'s lock), and does a synchronous send/recv
    round-trip.
    Requests for *different* shards proceed in parallel from different
    server threads — that is the whole point.

    Workers are daemonic: an abandoned pool cannot outlive the parent.
    ``close()`` is still the polite path (stop message, join, terminate
    stragglers) and is what ``ServiceCore.close()`` calls.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.num_shards = num_shards
        # fork keeps the loaded modules (and nothing else: workers hold
        # no locks and open no sockets before serving) — same choice as
        # the engine's process pool
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._workers: List[Tuple[Any, Any]] = [
            self._spawn() for _ in range(num_shards)
        ]
        # respawn history: ShardPool buries and replaces dead workers,
        # but /healthz needs to say it happened — counts survive the
        # respawn, each with the wall-clock time and cause of the last
        # death (unix epoch seconds, the JSON-friendly choice)
        self.restarts: List[int] = [0] * num_shards
        self.last_errors: List[Optional[Dict[str, Any]]] = [
            None
        ] * num_shards
        self._closed = False

    def _spawn(self) -> Tuple[Any, Any]:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn,),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only child end now
        return proc, parent_conn

    def shard_of(self, fingerprint: str) -> int:
        return shard_of(fingerprint, self.num_shards)

    def alive(self) -> List[bool]:
        """Per-shard liveness, for ``/healthz``."""
        return [proc.is_alive() for proc, _conn in self._workers]

    def health(self) -> List[Dict[str, Any]]:
        """Per-shard health rows for ``/healthz``: liveness plus the
        respawn history (`restarts`, and the timestamp + cause of the
        most recent worker death, or None if it never died)."""
        return [
            {
                "shard": i,
                "alive": proc.is_alive(),
                "restarts": self.restarts[i],
                "last_error": self.last_errors[i],
            }
            for i, (proc, _conn) in enumerate(self._workers)
        ]

    def compute(self, task: str, fingerprint: str, certificate: str) -> Record:
        """Round-trip one compute through the fingerprint's shard.

        Raises the rebuilt task error on a compute failure, or a
        retryable :class:`ServiceError` (after respawning the worker) if
        the worker died mid-request."""
        if self._closed:
            exc = ServiceError("shard pool is closed")
            exc.http_status = 503  # Service Unavailable: retry elsewhere
            raise exc
        shard = self.shard_of(fingerprint)
        with self._locks[shard]:
            proc, conn = self._workers[shard]
            try:
                conn.send(
                    (
                        "compute",
                        task,
                        fingerprint,
                        certificate,
                        obs.export_context(),
                    )
                )
                reply = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                # the worker died under us: bury it, respawn the shard,
                # fail only this query
                conn.close()
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                proc.join(timeout=5)
                self._workers[shard] = self._spawn()
                detail = (
                    f"worker died while computing '{task}' "
                    f"on {fingerprint[:16]}"
                )
                self.restarts[shard] += 1
                self.last_errors[shard] = {
                    "time": time.time(),
                    "error": detail,
                }
                obs.inc("shard_restarts", shard=shard)
                exc = ServiceError(
                    f"shard {shard} {detail}; worker restarted, retry the "
                    f"query"
                )
                exc.http_status = 503  # Service Unavailable: retryable
                raise exc from None
        obs.ingest(reply[-1])
        if reply[0] == "ok":
            return reply[1]
        _status, exc_name, detail, _events = reply
        raise _rebuild_error(exc_name, detail, shard)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for (proc, conn), lock in zip(self._workers, self._locks):
            with lock:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
                conn.close()
        for proc, _conn in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
