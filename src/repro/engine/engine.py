"""The batched multi-process experiment engine.

``run_experiments`` fans a corpus ``[(name, graph), ...]`` out to worker
processes in deterministic chunks and returns one JSON record per corpus
entry, in corpus order, *record-for-record identical* to a serial run.
The guarantees, and how they are met:

Determinism
    Tasks are pure functions of the graph (no global RNG), chunking is a
    pure function of ``(len(corpus), chunk_size)``, every item carries its
    corpus position, and the aggregator re-sorts by position.  Worker
    scheduling therefore cannot reorder or alter results, and
    ``workers=4`` output is byte-identical (under the canonical JSON of
    :mod:`repro.engine.records`) to ``workers=1`` output.

Bounded view caches
    The view intern table (:mod:`repro.views.view`) is process-local and
    grows monotonically.  Workers — and the serial path, which runs the
    exact same chunk runner — call
    :func:`~repro.views.view.clear_view_caches` after every corpus entry,
    so the table is bounded by the largest entry instead of the whole
    sweep, and no entry pays to re-rank the views of the entries before
    it.  Records are plain dicts, so no view from a cleared table ever
    escapes an entry.

Transport
    Graphs cross the process boundary as their canonical JSON
    (:func:`repro.graphs.serialization.to_json`), which round-trips
    exactly, including port numbers; tasks cross as registry names
    (:mod:`repro.engine.tasks`).  Nothing unpicklable is ever shipped.
    The serial path crosses no boundary, so it skips the JSON round-trip
    and hands the graph object to the chunk runner directly — sound
    because the round-trip is exact (``from_json(to_json(g)) == g``
    structurally), so tasks, being pure in the graph, cannot tell.

The start method prefers ``fork`` (cheap on Linux) and falls back to the
platform default elsewhere.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.records import Record
from repro.engine.tasks import get_task
from repro.errors import EngineError
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import from_json, to_json
from repro.obs import core as obs
from repro.views.view import clear_view_caches

# (corpus position, name, canonical graph JSON — or the graph itself on
# the serial path, which crosses no process boundary)
_ChunkItem = Tuple[int, str, object]
# (task name, chunk, clear_caches flag, obs span context or None —
# the parent's trace position, riding the task envelope so worker spans
# stitch under the submitting span)
_ChunkPayload = Tuple[str, List[_ChunkItem], bool, Optional[Dict[str, str]]]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one engine run.

    ``workers``
        Number of worker processes; ``1`` (the default) runs in-process
        through the identical chunk runner.
    ``chunk_size``
        Corpus entries per chunk — the unit of work stealing and of graph
        transport.  ``None`` picks :func:`default_chunk_size`.
    ``clear_caches``
        Call ``clear_view_caches()`` after each corpus entry (on by
        default; disable only for single-shot micro-benchmarks that want
        warm caches).
    """

    workers: int = 1
    chunk_size: Optional[int] = None
    clear_caches: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )


def default_chunk_size(num_items: int, workers: int) -> int:
    """Four chunks per worker: large enough to amortize the per-chunk
    dispatch, small enough to balance load.  The view caches live for one
    entry whatever the chunk size."""
    if workers <= 1:
        return max(1, min(8, num_items))
    return max(1, math.ceil(num_items / (4 * workers)))


def chunk_corpus(
    corpus: Sequence[Tuple[str, PortGraph]],
    chunk_size: int,
    encode: bool = True,
) -> List[List[_ChunkItem]]:
    """Deterministically split a corpus into position-tagged chunks of at
    most ``chunk_size`` entries, in corpus order.  ``encode=True`` ships
    graphs as canonical JSON (required to cross a process boundary);
    ``encode=False`` passes the graph objects through — the serial fast
    path, identical records because the round-trip is exact."""
    items: List[_ChunkItem] = [
        (pos, name, to_json(g) if encode else g)
        for pos, (name, g) in enumerate(corpus)
    ]
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


def _run_chunk(
    payload: _ChunkPayload,
) -> Tuple[List[Tuple[int, Record]], List[Dict[str, Any]]]:
    """Process one chunk (runs in a worker, or inline when serial): decode
    each graph, apply the task, and drop the process-local view caches
    after each entry, so the intern table stays bounded by one entry.

    A multi-record task returns a *list* (its record group, summary
    last); the group is flattened in order under the entry's corpus
    position, so downstream sorting — which is stable — keeps groups
    contiguous and internally ordered.

    Returns ``(pairs, obs_events)``: when the payload carries a span
    context the worker's trace events ship back with the records for the
    parent to :func:`repro.obs.ingest` (empty on the serial path, where
    spans land in the live buffer directly)."""
    task_name, chunk, clear_caches, obs_ctx = payload
    task = get_task(task_name)
    out: List[Tuple[int, Record]] = []
    with obs.collect_remote(obs_ctx) as collected:
        with obs.span("engine.chunk", task=task_name, items=len(chunk)):
            try:
                for pos, name, graph_or_json in chunk:
                    try:
                        encoded = isinstance(graph_or_json, str)
                        graph = (
                            from_json(graph_or_json)
                            if encoded
                            else graph_or_json
                        )
                        result = task(name, graph)
                        if isinstance(result, list):
                            out.extend((pos, record) for record in result)
                        else:
                            out.append((pos, result))
                        if clear_caches:
                            # an entry's views are garbage once its
                            # record exists, and a later entry would pay
                            # to re-rank them with its own
                            clear_view_caches()
                            if not encoded:
                                # serial fast path: the caller's graph
                                # object outlives the entry, so drop the
                                # derived CSR arrays and the canonical
                                # form with the other caches — memory
                                # stays bounded by one entry, not the
                                # corpus (decoded graphs die with the
                                # chunk)
                                graph._csr_cache = None
                                graph._canon_cache = None
                    except EngineError:
                        raise  # already carries context (pickles: str args)
                    except Exception as exc:
                        # wrap before crossing the process boundary:
                        # arbitrary exceptions may not unpickle in the
                        # parent (custom __init__ signatures), and a bare
                        # traceback would not say which corpus entry died
                        raise EngineError(
                            f"task '{task_name}' failed on corpus entry "
                            f"'{name}' (position {pos}): "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
            finally:
                # the error path: an entry that raised left its views
                if clear_caches:
                    clear_view_caches()
    return out, collected.events


def run_experiments(
    corpus: Sequence[Tuple[str, PortGraph]],
    task: str = "elect",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    clear_caches: bool = True,
) -> List[Record]:
    """Run ``task`` over every corpus entry; return records in corpus order.

    The convenience wrapper over :class:`EngineConfig` + :func:`run`."""
    return run(
        corpus,
        task,
        EngineConfig(
            workers=workers, chunk_size=chunk_size, clear_caches=clear_caches
        ),
    )


def run(
    corpus: Sequence[Tuple[str, PortGraph]],
    task: str,
    config: EngineConfig,
) -> List[Record]:
    """Run ``task`` over ``corpus`` under ``config``; see the module
    docstring for the determinism and cache-lifecycle contract."""
    get_task(task)  # fail fast on unknown tasks, before any forking
    if not corpus:
        return []
    chunk_size = (
        config.chunk_size
        if config.chunk_size is not None
        else default_chunk_size(len(corpus), config.workers)
    )
    num_chunks = math.ceil(len(corpus) / chunk_size)
    serial = config.workers == 1 or num_chunks == 1
    chunks = chunk_corpus(corpus, chunk_size, encode=not serial)
    # serial chunks run in-process, where spans land in the live buffer;
    # parallel chunks carry the submitting span's context in the payload
    # and ship their events back with the records
    span_ctx = None if serial else obs.export_context()
    payloads: List[_ChunkPayload] = [
        (task, chunk, config.clear_caches, span_ctx) for chunk in chunks
    ]

    if serial:
        chunk_results = [_run_chunk(p)[0] for p in payloads]
    else:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        procs = min(config.workers, len(chunks))
        with ctx.Pool(processes=procs) as pool:
            replies = pool.map(_run_chunk, payloads)
        chunk_results = []
        for pairs, events in replies:
            chunk_results.append(pairs)
            obs.ingest(events)

    tagged = [pair for chunk in chunk_results for pair in chunk]
    tagged.sort(key=lambda pair: pair[0])
    return [record for _, record in tagged]


def available_parallelism() -> int:
    """Usable CPU count (for benches that scale assertions to hardware);
    respects CPU affinity masks, which os.cpu_count() ignores."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1
