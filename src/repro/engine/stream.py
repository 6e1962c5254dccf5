"""The streaming engine entry point: sweeps over corpora of unknown size.

:func:`run_stream` is the iterator twin of
:func:`~repro.engine.engine.run_experiments`: it consumes a lazy
``(name, graph)`` stream chunk-by-chunk and yields records in corpus
order, never holding the corpus (or the result set) in memory.  It keeps
both engine contracts:

Determinism
    Chunking a stream is a pure function of ``chunk_size`` and the
    arrival order; chunks run through the identical
    :func:`~repro.engine.engine._run_chunk` runner, and results are
    yielded in submission order (the serial path trivially, the parallel
    path by draining a FIFO of ``apply_async`` handles).  So
    ``run_stream`` output equals ``run_experiments`` output on the same
    corpus, record for record, at every worker count.  Multi-record
    tasks (e.g. ``conformance``) yield their whole record group in
    order, contiguously, under the entry's corpus position.

Bounded memory
    The serial path holds exactly one encoded chunk at a time.  The
    parallel path holds at most ``STREAM_WINDOW_PER_WORKER`` chunks per
    worker in flight (submitted but not yet drained) — the backpressure
    that plain ``Pool.imap`` lacks: ``imap``'s task-feeder thread drains
    the *whole* input iterable into its internal queue, which is exactly
    the materialization this module exists to avoid.  The chunk runner
    still calls ``clear_view_caches()`` after each entry in its process,
    so the view intern table stays bounded by one entry's working set.
"""

from __future__ import annotations

import itertools
import multiprocessing
from collections import deque
from typing import Iterable, Iterator, Optional, Tuple

from repro.engine.engine import EngineConfig, _ChunkPayload, _run_chunk
from repro.engine.records import Record
from repro.engine.tasks import get_task
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import to_json
from repro.obs import core as obs

#: Streaming default chunk size: large enough to amortize per-chunk
#: dispatch, small enough that one chunk bounds memory.
DEFAULT_STREAM_CHUNK_SIZE = 8

#: Chunks in flight per worker on the parallel path (submitted, not yet
#: yielded).  2 keeps every worker busy while one chunk drains.
STREAM_WINDOW_PER_WORKER = 2


def _encode_chunks(
    corpus_iter: Iterable[Tuple[str, PortGraph]],
    task: str,
    chunk_size: int,
    clear_caches: bool,
    encode: bool = True,
) -> Iterator[_ChunkPayload]:
    """Lazily cut the stream into position-tagged payloads (the same shape
    :func:`chunk_corpus` produces for sequences).  ``encode=False`` passes
    graph objects through instead of canonical JSON — the serial fast
    path, which crosses no process boundary."""
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
        yield (task, chunk, clear_caches, obs.export_context() if encode else None)


def run_stream(
    corpus_iter: Iterable[Tuple[str, PortGraph]],
    task: str = "elect",
    config: Optional[EngineConfig] = None,
) -> Iterator[Record]:
    """Run ``task`` over a lazy corpus stream; yield records in corpus
    order without ever materializing the corpus.

    Identical records to :func:`run_experiments` on the same entries (the
    determinism contract); memory is bounded by one chunk on the serial
    path and by the in-flight window on the parallel path (module
    docstring).  Unknown tasks fail before the stream is touched.
    """
    if config is None:
        config = EngineConfig()
    get_task(task)  # fail fast, before consuming the iterator or forking
    chunk_size = (
        config.chunk_size
        if config.chunk_size is not None
        else DEFAULT_STREAM_CHUNK_SIZE
    )
    payloads = _encode_chunks(
        corpus_iter,
        task,
        chunk_size,
        config.clear_caches,
        encode=config.workers > 1,
    )

    if config.workers == 1:
        for payload in payloads:
            for _, record in _run_chunk(payload)[0]:
                yield record
        return

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    window = config.workers * STREAM_WINDOW_PER_WORKER

    def _drain(handle) -> Iterator[Record]:
        pairs, events = handle.get()
        obs.ingest(events)
        for _, record in pairs:
            yield record

    with ctx.Pool(processes=config.workers) as pool:
        pending: deque = deque()
        for payload in payloads:
            pending.append(pool.apply_async(_run_chunk, (payload,)))
            if len(pending) >= window:
                yield from _drain(pending.popleft())
        while pending:
            yield from _drain(pending.popleft())
