"""The multi-process experiment engine.

:func:`run_stream` consumes a lazy ``(name, graph)`` stream chunk by
chunk, fans the chunks out to worker processes, and yields one JSON
record per corpus entry, in corpus order, *record-for-record identical*
to a serial run, never holding the corpus (or the result set) in memory.
:func:`run_experiments` is its list form.  The guarantees, and how they
are met:

Determinism
    Tasks are pure functions of the graph (no global RNG), chunking is a
    pure function of ``chunk_size`` and the arrival order, and chunks
    are yielded in submission order (the serial path trivially, the
    parallel path by draining a FIFO of ``apply_async`` handles).
    Worker scheduling therefore cannot reorder or alter results, and
    ``workers=4`` output is byte-identical (under the canonical JSON of
    :mod:`repro.engine.records`) to ``workers=1`` output.  A
    multi-record task (e.g. ``conformance``) yields its record group in
    order, contiguously.

Bounded memory
    The serial path holds exactly one chunk at a time.  The parallel
    path holds at most ``STREAM_WINDOW_PER_WORKER`` chunks per worker in
    flight (submitted but not yet drained) — the backpressure that plain
    ``Pool.imap`` lacks: ``imap``'s task-feeder thread drains the
    *whole* input iterable into its internal queue.

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

import itertools
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.records import Record
from repro.engine.tasks import get_task
from repro.errors import EngineError
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import from_json, to_json
from repro.obs import core as obs
from repro.views.view import clear_view_caches

#: Default chunk size: large enough to amortize per-chunk dispatch,
#: small enough that one chunk bounds memory.
DEFAULT_STREAM_CHUNK_SIZE = 8

#: Chunks in flight per worker on the parallel path (submitted, not yet
#: yielded).  2 keeps every worker busy while one chunk drains.
STREAM_WINDOW_PER_WORKER = 2

# (corpus position, for error context; name; canonical graph JSON — or
# the graph itself on the serial path, which crosses no process boundary)
_ChunkItem = Tuple[int, str, object]
# (task name, chunk, obs span context or None — the parent's trace
# position, riding the task envelope so worker spans stitch under the
# submitting span)
_ChunkPayload = Tuple[str, List[_ChunkItem], Optional[Dict[str, str]]]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one engine run.

    ``workers``
        Number of worker processes; ``1`` (the default) runs in-process
        through the identical chunk runner.
    ``chunk_size``
        Corpus entries per chunk — the unit of work stealing and of graph
        transport.  ``None`` picks ``DEFAULT_STREAM_CHUNK_SIZE``.
    """

    workers: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )


def _run_chunk(
    payload: _ChunkPayload,
) -> Tuple[List[Record], List[Dict[str, Any]]]:
    """Process one chunk (runs in a worker, or inline when serial): decode
    each graph, apply the task, and drop the process-local view caches
    after each entry, so the intern table stays bounded by one entry.

    A multi-record task returns a *list* (its record group, summary
    last), which is flattened in order.

    Returns ``(records, obs_events)``: when the payload carries a span
    context the worker's trace events ship back with the records for the
    parent to :func:`repro.obs.ingest` (empty on the serial path, where
    spans land in the live buffer directly)."""
    task_name, chunk, obs_ctx = payload
    task = get_task(task_name)
    out: List[Record] = []
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
                            out.extend(result)
                        else:
                            out.append(result)
                        # an entry's views are garbage once its record
                        # exists, and a later entry would pay to re-rank
                        # them with its own
                        clear_view_caches()
                        if not encoded:
                            # serial fast path: the caller's graph object
                            # outlives the entry, so drop the derived CSR
                            # arrays and the canonical form with the other
                            # caches — memory stays bounded by one entry,
                            # not the corpus (decoded graphs die with the
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
                clear_view_caches()
    return out, collected.events


def _chunks(
    corpus_iter: Iterable[Tuple[str, PortGraph]],
    task: str,
    chunk_size: int,
    encode: bool,
) -> Iterator[_ChunkPayload]:
    """Lazily cut the stream into position-tagged payloads.
    ``encode=False`` passes graph objects through instead of canonical
    JSON — the serial fast path, which crosses no process boundary."""
    it = iter(corpus_iter)
    pos = 0
    while True:
        block = list(itertools.islice(it, chunk_size))
        if not block:
            return
        chunk = [
            (pos + offset, name, to_json(g) if encode else g)
            for offset, (name, g) in enumerate(block)
        ]
        pos += len(block)
        # the parallel path (encode=True) carries the submitting span's
        # context across the pool; serial chunks record in-process
        yield (task, chunk, obs.export_context() if encode else None)


def run_stream(
    corpus_iter: Iterable[Tuple[str, PortGraph]],
    task: str = "elect",
    config: EngineConfig = EngineConfig(),
) -> Iterator[Record]:
    """Run ``task`` over a lazy corpus stream; yield records in corpus
    order without ever materializing the corpus.

    Records are identical at every worker count and chunk size (the
    determinism contract); memory is bounded by one chunk on the serial
    path and by the in-flight window on the parallel path (module
    docstring).  Unknown tasks fail before the stream is touched.
    """
    get_task(task)  # fail fast, before consuming the iterator or forking
    payloads = _chunks(
        corpus_iter,
        task,
        config.chunk_size or DEFAULT_STREAM_CHUNK_SIZE,
        encode=config.workers > 1,
    )

    if config.workers == 1:
        for payload in payloads:
            yield from _run_chunk(payload)[0]
        return

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    window = config.workers * STREAM_WINDOW_PER_WORKER

    def _drain(handle) -> List[Record]:
        records, events = handle.get()
        obs.ingest(events)
        return records

    with ctx.Pool(processes=config.workers) as pool:
        pending: deque = deque()
        for payload in payloads:
            pending.append(pool.apply_async(_run_chunk, (payload,)))
            if len(pending) >= window:
                yield from _drain(pending.popleft())
        while pending:
            yield from _drain(pending.popleft())


def run_experiments(
    corpus: Iterable[Tuple[str, PortGraph]],
    task: str = "elect",
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[Record]:
    """Run ``task`` over every corpus entry; return records in corpus
    order — the list form of :func:`run_stream`."""
    return list(run_stream(corpus, task, EngineConfig(workers, chunk_size)))


def available_parallelism() -> int:
    """Usable CPU count (for benches that scale assertions to hardware);
    respects CPU affinity masks, which os.cpu_count() ignores."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1
