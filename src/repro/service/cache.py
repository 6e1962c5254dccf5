"""The service's result cache: content-addressed, two-tiered, warmable.

Keys
    ``(fingerprint, task)`` — the sha256 of the graph's canonical
    certificate (:func:`repro.graphs.canonical.graph_fingerprint`) and
    the engine task name.  Content addressing is what deduplicates
    isomorphic queries: every node relabeling of a graph maps to the same
    key, so one computation serves the whole isomorphism class.

Tiers
    A bounded in-memory LRU (the hot tier the request path touches) over
    an optional **warehouse database** (see :mod:`repro.warehouse`), the
    one durable tier: entries are rows of the shared ``records`` table,
    unique and indexed on ``(fingerprint, task)``, so a lookup that
    misses the LRU re-reads one indexed row and promotes the entry — a
    restart with ``--cache`` serves **every** previously computed answer
    no matter how small the memory tier, and an eviction never costs a
    recompute.  :meth:`ResultCache.lookup` reports which tier answered,
    which is what the service's ``/metrics`` memory-hit / warehouse-hit
    / cold-compute counters are built on.  A cache JSONL file is only
    the warehouse's import/export format (``repro warehouse import``).

Warming
    :func:`warm_from_warehouse` is one join query over the content
    addresses that warehouse-backed sweeps stored as they ran: no corpus
    re-stream, no certificate recomputation.  Stored records were
    computed on the corpus labeling; the service computes on the
    *canonical* labeling, so warming canonicalizes each record: the
    ``name`` becomes the canonical query name and, for ``elect``, the
    ``leader`` is translated through the canonical relabeling (every
    other warmable field is a label invariant, since the algorithms are
    anonymous).  A warmed entry is therefore byte-identical to what a
    cold service computation would produce — asserted in
    ``tests/test_service_cache.py`` and ``tests/test_warehouse.py``.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Optional, Sequence, Tuple

from repro.engine.records import Record, record_to_json
from repro.errors import ServiceError

#: A cache entry's identity: (canonical fingerprint, engine task name).
CacheKey = Tuple[str, str]

#: Tasks a sweep's result record can be warmed from: single-record tasks
#: whose fields are label invariants — except ``elect``'s leader, which
#: the warmer translates through the canonical relabeling.
WARMABLE_TASKS = ("advice", "elect", "index", "quotient")

DEFAULT_CAPACITY = 4096

#: The warehouse dataset service cache entries live in, and the one
#: ``repro warehouse import`` files a cache JSONL file under by default.
SERVICE_CACHE_DATASET = "service-cache"


def canonical_query_name(fingerprint: str) -> str:
    """The ``name`` field of service-computed records: derived from the
    content address, never from the submitted labeling, so answers for
    isomorphic queries are byte-identical."""
    return f"graph:{fingerprint[:16]}"


class ResultCache:
    """Bounded LRU over an optional warehouse tier.

    ``capacity`` bounds the *memory* tier only (0 disables it — every
    lookup misses, which is what the cold benches use); the warehouse
    keeps every entry ever inserted.  A ``path`` without a warehouse
    extension is refused before it is opened, naming the migration of a
    cache JSONL file.  Use as a context manager, or ``close()``
    explicitly when persistent.
    """

    def __init__(
        self, path: Optional[str] = None, capacity: int = DEFAULT_CAPACITY
    ):
        if capacity < 0:
            raise ServiceError(f"capacity must be >= 0, got {capacity}")
        self.path = path
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, Record]" = OrderedDict()
        self._warehouse = None
        self._run_id = None
        self._closed_persisted = 0
        if path is None:
            return
        # deferred import: repro.warehouse's io module imports this one
        from repro.warehouse.db import Warehouse, is_warehouse_path

        if not is_warehouse_path(path):
            raise ServiceError(
                f"cache path '{path}' is not a warehouse database (.sqlite, "
                f".db); migrate a cache JSONL file with `repro warehouse "
                f"import DB {path}` (its entries land in dataset "
                f"'{SERVICE_CACHE_DATASET}')"
            )
        self._warehouse = Warehouse(path)
        self._run_id = self._warehouse.begin_run(
            "service", SERVICE_CACHE_DATASET
        )
        for line in self._warehouse.recent_cache_entries(
            SERVICE_CACHE_DATASET, capacity
        ):
            key, record = self._entry_key(json.loads(line))
            self._remember(key, record)

    @staticmethod
    def _entry_key(entry: Any) -> Tuple[CacheKey, Record]:
        try:
            fingerprint = entry["fingerprint"]
            task = entry["task"]
            record = entry["record"]
        except (KeyError, TypeError) as exc:
            raise ServiceError(
                f"not a cache entry (every entry carries 'fingerprint', "
                f"'task' and 'record'): {entry!r} ({exc})"
            ) from None
        if not (
            isinstance(fingerprint, str)
            and isinstance(task, str)
            and isinstance(record, dict)
        ):
            raise ServiceError(f"malformed cache entry: {entry!r}")
        return (fingerprint, task), record

    # ------------------------------------------------------------------
    # the LRU tier
    # ------------------------------------------------------------------
    def _remember(self, key: CacheKey, record: Record) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = record
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def lookup(self, key: CacheKey) -> Tuple[Optional[Record], Optional[str]]:
        """The cached record and the tier that answered: ``"memory"``,
        ``"warehouse"`` (one indexed row read), or ``(None, None)``.  A
        memory hit refreshes LRU recency; a warehouse hit promotes the
        entry back into the LRU — an eviction never costs a recompute.
        The tier is what the service's ``/metrics`` memory-hit /
        warehouse-hit counters report."""
        record = self._entries.get(key)
        if record is not None:
            self._entries.move_to_end(key)
            return record, "memory"
        if self._warehouse is not None:
            line = self._warehouse.get_cache_entry(SERVICE_CACHE_DATASET, *key)
            if line is not None:
                _key, record = self._entry_key(json.loads(line))
                self._remember(key, record)
                return record, "warehouse"
        return None, None

    def get(self, key: CacheKey) -> Optional[Record]:
        """The cached record from any tier, or None (see :meth:`lookup`)."""
        return self.lookup(key)[0]

    def put(self, key: CacheKey, record: Record) -> None:
        """Insert (idempotently): the memory tier refreshes; the
        warehouse gains one committed canonical envelope row per *new*
        key (the ``(fingerprint, task)`` unique index makes re-puts
        no-ops)."""
        self._remember(key, record)
        if self._warehouse is not None:
            fingerprint, task = key
            self._warehouse.put_cache_entry(
                SERVICE_CACHE_DATASET,
                fingerprint,
                task,
                str(record.get("name", canonical_query_name(fingerprint))),
                record_to_json(
                    {"fingerprint": fingerprint, "task": task,
                     "record": record}
                ),
                run_id=self._run_id,
            )

    def __contains__(self, key: CacheKey) -> bool:
        if key in self._entries:
            return True
        return (
            self._warehouse is not None
            and self._warehouse.get_cache_entry(SERVICE_CACHE_DATASET, *key)
            is not None
        )

    def __len__(self) -> int:
        """Entries resident in the memory tier."""
        return len(self._entries)

    @property
    def persisted(self) -> int:
        """Entries in the warehouse tier (0 when memory-only)."""
        if self._warehouse is not None:
            return self._warehouse.cache_size(SERVICE_CACHE_DATASET)
        return self._closed_persisted

    def close(self) -> None:
        if self._warehouse is not None:
            # keep the count readable after close ("N entries persisted"
            # is printed on service shutdown, after the cache is closed)
            self._closed_persisted = self._warehouse.cache_size(
                SERVICE_CACHE_DATASET
            )
            self._warehouse.finish_run(self._run_id)
            self._warehouse.close()
            self._warehouse = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# warming from the warehouse
# ----------------------------------------------------------------------
def canonicalize_record(
    record: Record, task: str, to_canonical: Sequence[int], fingerprint: str
) -> Record:
    """Rewrite a stored result record into the exact record a service
    compute on the canonical graph would produce: canonical ``name``, and
    the one label-dependent field (``elect``'s leader) mapped through
    ``to_canonical`` — the stored graph's canonical relabeling, as read
    back from the warehouse's ``graphs`` table."""
    out = dict(record)
    out["name"] = canonical_query_name(fingerprint)
    if task == "elect" and isinstance(out.get("leader"), int):
        out["leader"] = to_canonical[out["leader"]]
    return out


def warm_from_warehouse(
    cache: ResultCache,
    warehouse,
    tasks: Sequence[str] = WARMABLE_TASKS,
) -> int:
    """Pre-populate ``cache`` from a warehouse's result datasets: one
    join query over the ``records`` and ``graphs`` tables
    (:meth:`~repro.warehouse.db.Warehouse.warm_join`) — no graph is
    generated and no canonical certificate recomputed, because
    warehouse-backed sweeps stored each entry's content address as they
    ran.

    ``warehouse`` is an open :class:`~repro.warehouse.db.Warehouse` or a
    path to an existing one (a missing path raises
    :class:`ServiceError` and creates nothing); it may be the same
    database backing ``cache`` (the shared warm tier) or a different one.
    Returns the number of entries inserted.  Entries whose corpus graph
    was never registered are simply absent from the join — register them
    once with :func:`repro.warehouse.io.register_corpus_graphs` (``repro
    warehouse register``).
    """
    from repro.warehouse.db import Warehouse

    owned = not isinstance(warehouse, Warehouse)
    if owned and not os.path.exists(warehouse):
        raise ServiceError(f"no warehouse to warm from at '{warehouse}'")
    wh = Warehouse(warehouse) if owned else warehouse
    try:
        warmed = 0
        for task, fingerprint, to_canonical, record in wh.warm_join(tasks):
            cache.put(
                (fingerprint, task),
                canonicalize_record(record, task, to_canonical, fingerprint),
            )
            warmed += 1
        return warmed
    finally:
        if owned:
            wh.close()
