"""The results warehouse: one indexed sqlite store under everything.

Before this module the repository produced four bespoke result formats —
sweep/conformance :class:`~repro.engine.store.ResultStore` JSONL files,
the service's cache JSONL with its byte-offset index, and the
``BENCH_*.json`` perf records — joined only by ad-hoc full-file scans
(warming the service re-streamed entire corpora to join records by
name).  :class:`Warehouse` replaces the *storage* layer of all four with
a single sqlite database while keeping the canonical-JSON record text of
:mod:`repro.engine.records` as the one wire format: every row stores the
exact line an export writes back, so the JSONL/JSON files are demoted to
import/export formats with byte-identical round-trip.

Schema (``repro-warehouse/1``)
    ``records``
        One row per record line.  ``dataset`` names the logical store
        (one JSONL file maps to one dataset), ``kind`` is the row shape
        (``result`` = engine record, ``cache`` = service cache envelope,
        ``bench`` = a ``repro-bench/1`` record), ``record_json`` is the
        canonical JSON text.  Content addressing: rows carrying a
        ``fingerprint`` (service cache entries) are unique per
        ``(fingerprint, task, dataset)`` and indexed for O(log n)
        lookup; every row is also indexed by ``(dataset, name, task)``
        (the resume key) and ``(name, family, task)`` (cross-dataset
        joins by corpus entry).
    ``graphs``
        The corpus side of the warm join: ``(dataset, name)`` ->
        ``(fingerprint, to_canonical)`` recorded when a warehouse-backed
        sweep (or an explicit corpus registration) has the graph in
        hand.  This is what turns service warming from a corpus
        re-stream into a key-indexed join query.
    ``runs``
        Provenance: schema version, environment fingerprint (the bench
        harness's :func:`~repro.analysis.bench.env_fingerprint`), and
        UTC timestamps per import / sweep / bench invocation.  Bench
        rows reference their run, which is what makes ``repro report
        --trend`` a table instead of archaeology.
    ``meta``
        The warehouse schema version, checked on open.

Atomicity
    WAL journal mode with explicit transactions.  A record *group*
    (multi-record tasks: sub-records then their summary) commits as one
    transaction, so a SIGKILL at any point leaves only whole groups —
    the transactional analog of the JSONL store's torn-tail repair, with
    the repair done by sqlite's rollback journal instead of truncation.
    Resume is then a key query (``SELECT name, task``), never a file
    replay.

Determinism
    Timestamps live only in ``runs``; ``records`` rows are pure
    functions of their inputs, so exports stay byte-identical across
    re-imports and kill/resume cycles.
"""

from __future__ import annotations

import datetime
import json
import os
import sqlite3
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError

SCHEMA_VERSION = "repro-warehouse/1"

#: File extensions recognized as warehouse databases (everything else is
#: a JSONL store to the store factory, and refused by the service cache).
WAREHOUSE_EXTENSIONS = (".sqlite", ".sqlite3", ".db", ".warehouse")

#: Row shapes in the ``records`` table.
RECORD_KINDS = ("result", "cache", "bench")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY,
    kind           TEXT NOT NULL,
    label          TEXT,
    schema_version TEXT NOT NULL,
    env_json       TEXT NOT NULL,
    started_at     TEXT NOT NULL,
    finished_at    TEXT
);
CREATE TABLE IF NOT EXISTS records (
    id          INTEGER PRIMARY KEY,
    dataset     TEXT NOT NULL,
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL,
    task        TEXT NOT NULL,
    entry       TEXT,
    family      TEXT,
    fingerprint TEXT,
    record_json TEXT NOT NULL,
    run_id      INTEGER REFERENCES runs(id)
);
CREATE INDEX IF NOT EXISTS records_by_key
    ON records(dataset, name, task);
CREATE INDEX IF NOT EXISTS records_by_name_family_task
    ON records(name, family, task);
CREATE UNIQUE INDEX IF NOT EXISTS records_by_fingerprint
    ON records(fingerprint, task, dataset) WHERE fingerprint IS NOT NULL;
CREATE TABLE IF NOT EXISTS graphs (
    dataset      TEXT NOT NULL,
    name         TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    to_canonical TEXT NOT NULL,
    PRIMARY KEY (dataset, name)
);
CREATE INDEX IF NOT EXISTS graphs_by_fingerprint ON graphs(fingerprint);
CREATE TABLE IF NOT EXISTS telemetry (
    id          INTEGER PRIMARY KEY,
    run_id      INTEGER REFERENCES runs(id),
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL,
    labels_json TEXT NOT NULL,
    value_json  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS telemetry_by_run ON telemetry(run_id, kind, name);
"""


def is_warehouse_path(path: Optional[str]) -> bool:
    """True if ``path`` names a warehouse database (by extension) — the
    dispatch rule of :func:`repro.engine.store.open_result_store` and the
    service cache, documented in DESIGN.md."""
    if not path:
        return False
    return os.path.splitext(path)[1].lower() in WAREHOUSE_EXTENSIONS


def _utcnow() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z")
    )


class Warehouse:
    """One open warehouse database.

    Safe for multiple concurrent *processes* (WAL mode plus a generous
    busy timeout serialize writers at the sqlite layer) and for multiple
    threads serialized by the caller (the service core's bookkeeping
    lock); a single :class:`Warehouse` instance performs no internal
    locking of its own.
    """

    def __init__(self, path: str):
        self.path = path
        self._conn = None
        # isolation_level=None: no implicit transactions — every write
        # below is wrapped in an explicit BEGIN IMMEDIATE ... COMMIT so
        # group atomicity is visible in the code, not in driver defaults
        try:
            self._conn = sqlite3.connect(
                path, isolation_level=None, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._init_schema()
        except sqlite3.DatabaseError as exc:  # e.g. a JSONL file
            self.close()
            raise StoreError(f"warehouse '{path}': {exc}") from None

    def _init_schema(self) -> None:
        # executescript() autocommits (it would end any open explicit
        # transaction), so run it bare — every statement is idempotent
        # CREATE IF NOT EXISTS — and version-stamp with an atomic
        # INSERT OR IGNORE that concurrent initializers race safely
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta(key, value) "
            "VALUES ('schema_version', ?)",
            (SCHEMA_VERSION,),
        )
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row[0] != SCHEMA_VERSION:
            raise StoreError(
                f"warehouse '{self.path}' has schema version {row[0]!r}; "
                f"this build reads {SCHEMA_VERSION!r}"
            )

    # ------------------------------------------------------------------
    # runs (provenance)
    # ------------------------------------------------------------------
    def begin_run(self, kind: str, label: Optional[str] = None) -> int:
        """Open a provenance row; returns its id for record attribution."""
        from repro.analysis.bench import env_fingerprint

        cursor = self._conn.execute(
            "INSERT INTO runs(kind, label, schema_version, env_json, "
            "started_at) VALUES (?, ?, ?, ?, ?)",
            (
                kind,
                label,
                SCHEMA_VERSION,
                json.dumps(env_fingerprint(), sort_keys=True,
                           separators=(",", ":")),
                _utcnow(),
            ),
        )
        return int(cursor.lastrowid)

    def finish_run(self, run_id: int) -> None:
        self._conn.execute(
            "UPDATE runs SET finished_at=? WHERE id=?", (_utcnow(), run_id)
        )

    def runs(self) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT id, kind, label, env_json, started_at, finished_at "
            "FROM runs ORDER BY id"
        ).fetchall()
        return [
            {
                "id": r[0],
                "kind": r[1],
                "label": r[2],
                "env": json.loads(r[3]),
                "started_at": r[4],
                "finished_at": r[5],
            }
            for r in rows
        ]

    # ------------------------------------------------------------------
    # result records (the engine-store shape)
    # ------------------------------------------------------------------
    def result_keys(self, dataset: str) -> Set[Tuple[str, str]]:
        """Every durable ``(name, task)`` key of a dataset — the resume
        query that replaces the JSONL full-file replay."""
        rows = self._conn.execute(
            "SELECT name, task FROM records WHERE dataset=? AND kind='result'",
            (dataset,),
        ).fetchall()
        return set(rows)

    def clear_dataset(self, dataset: str) -> None:
        """Drop a dataset's records and graph registrations (the
        warehouse analog of ``ResultStore(path)`` truncating its file)."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "DELETE FROM records WHERE dataset=?", (dataset,)
            )
            self._conn.execute("DELETE FROM graphs WHERE dataset=?", (dataset,))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def append_group(
        self,
        dataset: str,
        rows: Sequence[Tuple[str, str, Optional[str], str]],
        family: Optional[str] = None,
        graph_rows: Sequence[Tuple[str, str, str]] = (),
        run_id: Optional[int] = None,
    ) -> None:
        """Commit one record group atomically.

        ``rows`` are ``(name, task, entry, record_json)`` in append
        order; ``graph_rows`` are ``(name, fingerprint, to_canonical_json)``
        corpus registrations that must land with the group.  A SIGKILL
        anywhere inside rolls the whole group back on the next open —
        the transactional torn-tail repair.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO records(dataset, kind, name, task, entry, "
                "family, fingerprint, record_json, run_id) "
                "VALUES (?, 'result', ?, ?, ?, ?, NULL, ?, ?)",
                [
                    (dataset, name, task, entry, family, record_json, run_id)
                    for name, task, entry, record_json in rows
                ],
            )
            if graph_rows:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO graphs(dataset, name, "
                    "fingerprint, to_canonical) VALUES (?, ?, ?, ?)",
                    [(dataset, n, fp, tc) for n, fp, tc in graph_rows],
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def iter_lines(self, dataset: str) -> Iterator[str]:
        """The dataset's record lines in append order — exactly the
        lines of its JSONL export (without newlines)."""
        cursor = self._conn.execute(
            "SELECT record_json FROM records WHERE dataset=? ORDER BY id",
            (dataset,),
        )
        for (line,) in cursor:
            yield line

    def iter_records(self, dataset: str) -> Iterator[Dict[str, Any]]:
        """The dataset's records, parsed, in append order."""
        for line in self.iter_lines(dataset):
            yield json.loads(line)

    def datasets(self) -> List[Tuple[str, str, int]]:
        """``(dataset, kind, row count)`` for every dataset present."""
        return [
            (r[0], r[1], r[2])
            for r in self._conn.execute(
                "SELECT dataset, kind, COUNT(*) FROM records "
                "GROUP BY dataset, kind ORDER BY dataset"
            )
        ]

    # ------------------------------------------------------------------
    # graph registrations (the corpus side of the warm join)
    # ------------------------------------------------------------------
    def register_graph(
        self,
        dataset: str,
        name: str,
        fingerprint: str,
        to_canonical: Sequence[int],
    ) -> None:
        """Record a corpus entry's content address so its result rows
        become warm-joinable without re-opening the corpus."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO graphs(dataset, name, fingerprint, "
                "to_canonical) VALUES (?, ?, ?, ?)",
                (
                    dataset,
                    name,
                    fingerprint,
                    json.dumps(list(to_canonical), separators=(",", ":")),
                ),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def registered_graphs(self, dataset: Optional[str] = None) -> int:
        if dataset is None:
            row = self._conn.execute("SELECT COUNT(*) FROM graphs").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM graphs WHERE dataset=?", (dataset,)
            ).fetchone()
        return int(row[0])

    def warm_join(
        self, tasks: Sequence[str]
    ) -> Iterator[Tuple[str, str, List[int], Dict[str, Any]]]:
        """The warm query: every group-terminating result record whose
        corpus entry has a registered graph, joined on ``(dataset,
        name)`` — yields ``(task, fingerprint, to_canonical, record)``.
        This is the indexed replacement for ``warm_from_stores``'s
        corpus re-stream: no graph is generated, no certificate
        recomputed."""
        placeholders = ",".join("?" for _ in tasks)
        cursor = self._conn.execute(
            f"SELECT r.task, g.fingerprint, g.to_canonical, r.record_json "
            f"FROM records r JOIN graphs g "
            f"ON g.dataset = r.dataset AND g.name = r.name "
            f"WHERE r.kind='result' AND r.task IN ({placeholders}) "
            f"AND (r.entry IS NULL OR r.entry = r.name) "
            f"ORDER BY r.id",
            tuple(tasks),
        )
        for task, fingerprint, to_canonical, record_json in cursor:
            yield (
                task,
                fingerprint,
                json.loads(to_canonical),
                json.loads(record_json),
            )

    # ------------------------------------------------------------------
    # cache entries (the service shape: content-addressed envelopes)
    # ------------------------------------------------------------------
    def put_cache_entry(
        self,
        dataset: str,
        fingerprint: str,
        task: str,
        name: str,
        envelope_json: str,
        run_id: Optional[int] = None,
    ) -> bool:
        """Insert one service cache envelope (idempotently: the
        ``(fingerprint, task, dataset)`` unique index makes re-puts
        no-ops).  Returns True if the row is new."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO records(dataset, kind, name, task, "
                "entry, family, fingerprint, record_json, run_id) "
                "VALUES (?, 'cache', ?, ?, NULL, NULL, ?, ?, ?)",
                (dataset, name, task, fingerprint, envelope_json, run_id),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return cursor.rowcount > 0

    def get_cache_entry(
        self, dataset: str, fingerprint: str, task: str
    ) -> Optional[str]:
        """The envelope line of a content-addressed entry, or None —
        one indexed lookup, the query behind an LRU-eviction re-read."""
        row = self._conn.execute(
            "SELECT record_json FROM records WHERE fingerprint=? AND task=? "
            "AND dataset=?",
            (fingerprint, task, dataset),
        ).fetchone()
        return None if row is None else row[0]

    def recent_cache_entries(self, dataset: str, limit: int) -> List[str]:
        """The envelope lines of the ``limit`` most recently inserted
        cache entries, oldest first — the service's LRU preload on
        reopen (so a restart starts warm without replaying the whole
        tier)."""
        if limit <= 0:
            return []
        rows = self._conn.execute(
            "SELECT record_json FROM records WHERE dataset=? AND "
            "kind='cache' ORDER BY id DESC LIMIT ?",
            (dataset, limit),
        ).fetchall()
        return [row[0] for row in reversed(rows)]

    def cache_size(self, dataset: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM records WHERE dataset=? AND kind='cache'",
            (dataset,),
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # bench records
    # ------------------------------------------------------------------
    def append_bench(
        self,
        record: Dict[str, Any],
        run_id: int,
        dataset: str = "bench",
    ) -> None:
        """Store one ``repro-bench/1`` record under its run."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "INSERT INTO records(dataset, kind, name, task, entry, "
                "family, fingerprint, record_json, run_id) "
                "VALUES (?, 'bench', ?, 'bench', NULL, NULL, NULL, ?, ?)",
                (
                    dataset,
                    record.get("scenario", "?"),
                    json.dumps(record, sort_keys=True, separators=(",", ":")),
                    run_id,
                ),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def bench_rows(self) -> List[Tuple[int, str, Dict[str, Any]]]:
        """``(run_id, scenario, record)`` for every stored bench record,
        in insertion order."""
        rows = self._conn.execute(
            "SELECT run_id, name, record_json FROM records "
            "WHERE kind='bench' ORDER BY id"
        ).fetchall()
        return [(r[0], r[1], json.loads(r[2])) for r in rows]

    # ------------------------------------------------------------------
    # telemetry (the repro.obs shape: metric snapshots + span events)
    # ------------------------------------------------------------------
    def append_telemetry(
        self,
        run_id: int,
        snapshot: Optional[Dict[str, Any]] = None,
        events: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> int:
        """Store an obs registry snapshot and/or a list of span events
        under a run, as one transaction.

        ``snapshot`` is :meth:`repro.obs.Registry.snapshot` output:
        counters / gauges land as one row each (``value_json`` the
        number), histograms as one row carrying count / sum / buckets.
        ``events`` are span event dicts, one ``kind='span'`` row each.
        Returns the number of rows inserted.  ``repro report --trend``
        charts histogram rows across runs; ``repro obs export`` replays
        span rows into a Chrome trace."""
        rows: List[Tuple[str, str, str, str]] = []

        def pack(kind: str, name: str, labels: Any, value: Any) -> None:
            rows.append(
                (
                    kind,
                    name,
                    json.dumps(labels, sort_keys=True, separators=(",", ":")),
                    json.dumps(value, sort_keys=True, separators=(",", ":")),
                )
            )

        if snapshot:
            for c in snapshot.get("counters", []):
                pack("counter", c["name"], c.get("labels", {}), c["value"])
            for g in snapshot.get("gauges", []):
                pack("gauge", g["name"], g.get("labels", {}), g["value"])
            for h in snapshot.get("histograms", []):
                pack(
                    "histogram",
                    h["name"],
                    h.get("labels", {}),
                    {
                        "count": h["count"],
                        "sum": h["sum"],
                        "buckets": h["buckets"],
                        "bucket_counts": h["bucket_counts"],
                    },
                )
        for ev in events or ():
            pack("span", ev.get("name", "?"), {}, ev)
        if not rows:
            return 0
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO telemetry(run_id, kind, name, labels_json, "
                "value_json) VALUES (?, ?, ?, ?, ?)",
                [(run_id,) + row for row in rows],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return len(rows)

    def telemetry_rows(
        self,
        run_id: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Telemetry rows in insertion order, optionally filtered by run
        and kind; ``labels`` and ``value`` come back parsed."""
        query = (
            "SELECT run_id, kind, name, labels_json, value_json "
            "FROM telemetry"
        )
        clauses, params = [], []
        if run_id is not None:
            clauses.append("run_id=?")
            params.append(run_id)
        if kind is not None:
            clauses.append("kind=?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        return [
            {
                "run_id": r[0],
                "kind": r[1],
                "name": r[2],
                "labels": json.loads(r[3]),
                "value": json.loads(r[4]),
            }
            for r in self._conn.execute(query, tuple(params))
        ]

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def integrity_check(self) -> str:
        """sqlite's own corruption check; 'ok' on a healthy file."""
        return str(self._conn.execute("PRAGMA integrity_check").fetchone()[0])

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
