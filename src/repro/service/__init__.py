"""The online election-query service.

Every pipeline before this package was batch-oriented: sweeps, benches
and the conformance oracle recompute election/index answers from scratch
per run, even on graphs already solved up to port-preserving isomorphism
— exactly the equivalence the anonymous-network model cares about.  This
package is the online front-end that amortizes those computations across
clients and across past batch work:

* :mod:`repro.service.cache` — the content-addressed result cache:
  ``(fingerprint, task)`` keys over a bounded in-memory LRU plus an
  optional durable tier, a :mod:`repro.warehouse` database (indexed
  rows, shared with the batch pipelines).
  :func:`~repro.service.cache.warm_from_warehouse` pre-populates it from
  past sweeps with one join query, no corpus re-stream;
* :mod:`repro.service.api` — :class:`~repro.service.api.ServiceCore`,
  the transport-free pipeline (validate -> fingerprint -> cache lookup
  -> compute on the core's backend -> record), answering in canonical
  coordinates so isomorphic queries get byte-identical answers, plus
  the batch path that drains its deduplicated misses through the same
  backend;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` JSON
  API (``POST /v1/elect|index|advice|quotient``, ``POST /v1/batch``,
  ``GET /healthz``, ``GET /metrics``);
* :mod:`repro.service.shard` — the service's one compute,
  ``compute_record``, and its two backends: ``LocalBackend`` runs it in
  process (``shards=0``); the fingerprint-sharded ``ShardPool``
  (``ServiceCore(shards=N)``) routes each cold compute to
  ``int(fingerprint[:16], 16) % N``, one forked worker process per
  shard, each with its own view-cache universe, while the parent keeps
  the one shared result cache (the warehouse as the warm tier).  Warm
  hits and cold computes both scale across cores; in-flight per-key
  deduplication stops thundering-herd recomputes either way.

The fingerprint underneath is :func:`repro.graphs.canonical.
graph_fingerprint`: sha256 of a certificate equal exactly for
port-isomorphic graphs.  CLI entry points: ``repro serve`` and
``repro query``.
"""

from repro.service.api import SERVICE_TASKS, QueryResult, ServiceCore
from repro.service.cache import (
    SERVICE_CACHE_DATASET,
    WARMABLE_TASKS,
    ResultCache,
    canonical_query_name,
    warm_from_warehouse,
)
from repro.service.server import (
    ServiceHTTPServer,
    make_server,
    serve_until_shutdown,
)
from repro.service.shard import ShardPool, shard_of

__all__ = [
    "SERVICE_CACHE_DATASET",
    "SERVICE_TASKS",
    "WARMABLE_TASKS",
    "QueryResult",
    "ServiceCore",
    "ResultCache",
    "canonical_query_name",
    "warm_from_warehouse",
    "ServiceHTTPServer",
    "make_server",
    "serve_until_shutdown",
    "ShardPool",
    "shard_of",
]
