"""The engine entry point ``run_stream``: record parity with its list form
``run_experiments``, bounded corpus residency, and the failure paths
(worker errors carry context, unknown tasks fail before the stream is
touched, empty iterators are fine)."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import corpus_with_phi
from repro.corpus import iter_corpus
from repro.engine import (
    EngineConfig,
    EngineError,
    records_to_jsonl,
    register_task,
    run_experiments,
    run_stream,
)
from repro.errors import SimulationError
from repro.graphs import ring


@register_task("boom-for-tests")
def _boom_task(name, g):
    """Deliberately failing task; registered at import time so forked
    workers inherit it."""
    if "detonate" in name:
        raise SimulationError("synthetic failure")
    return {"task": "boom-for-tests", "name": name, "n": g.n}


def _corpus(k=12):
    return list(iter_corpus(f"vertex-transitive:{k},seed=6"))


# ----------------------------------------------------------------------
# parity with the list form
# ----------------------------------------------------------------------
def test_stream_matches_batch_serial_and_parallel():
    corpus = _corpus()
    batch = run_experiments(corpus, task="index", workers=1)
    serial = list(
        run_stream(iter(corpus), "index", EngineConfig(chunk_size=3))
    )
    parallel = list(
        run_stream(
            iter(corpus), "index", EngineConfig(workers=3, chunk_size=2)
        )
    )
    assert records_to_jsonl(serial) == records_to_jsonl(batch)
    assert records_to_jsonl(parallel) == records_to_jsonl(batch)


def test_stream_default_config_and_elect_task():
    corpus = corpus_with_phi(1, sizes=(4, 6))
    assert list(run_stream(iter(corpus), "elect")) == run_experiments(
        corpus, task="elect"
    )


def test_stream_chunk_size_never_changes_records():
    corpus = _corpus()
    baseline = records_to_jsonl(
        list(run_stream(iter(corpus), "index", EngineConfig(chunk_size=1)))
    )
    for chunk_size in (2, 5, len(corpus) + 10):
        got = list(
            run_stream(
                iter(corpus), "index", EngineConfig(chunk_size=chunk_size)
            )
        )
        assert records_to_jsonl(got) == baseline


# ----------------------------------------------------------------------
# laziness / bounded residency
# ----------------------------------------------------------------------
def test_empty_iterator_yields_nothing():
    assert list(run_stream(iter([]), "index")) == []
    assert list(run_stream(iter([]), "index", EngineConfig(workers=4))) == []


def test_unknown_task_fails_before_consuming_the_stream():
    pulled = []

    def corpus():
        for i in range(5):
            pulled.append(i)
            yield f"ring-{i}", ring(5)

    stream = run_stream(corpus(), "no-such-task")
    with pytest.raises(EngineError, match="unknown engine task"):
        next(stream)
    assert pulled == []  # the corpus generator was never advanced


def test_thousand_graph_sweep_is_chunk_bounded():
    """The acceptance criterion: a streamed >= 1000-graph sweep never
    materializes the corpus — corpus entries in flight (pulled from the
    generator but not yet returned as records) stay bounded by one chunk."""
    total = 1000
    chunk_size = 8
    pulled = 0

    def corpus():
        nonlocal pulled
        for i in range(total):
            pulled += 1
            yield f"ring-{i}", ring(3 + (i % 17))

    seen = 0
    max_in_flight = 0
    for record in run_stream(
        corpus(), "index", EngineConfig(chunk_size=chunk_size)
    ):
        seen += 1
        max_in_flight = max(max_in_flight, pulled - seen)
    assert seen == total
    assert max_in_flight <= chunk_size


def test_parallel_stream_in_flight_is_window_bounded():
    """The parallel path may hold a full submission window, but never the
    corpus: in-flight entries stay <= (window + 1) * chunk_size."""
    from repro.engine import STREAM_WINDOW_PER_WORKER

    total, chunk_size, workers = 240, 4, 2
    window = workers * STREAM_WINDOW_PER_WORKER
    pulled = 0

    def corpus():
        nonlocal pulled
        for i in range(total):
            pulled += 1
            yield f"ring-{i}", ring(3 + (i % 11))

    seen = 0
    max_in_flight = 0
    for record in run_stream(
        corpus(), "index", EngineConfig(workers=workers, chunk_size=chunk_size)
    ):
        seen += 1
        max_in_flight = max(max_in_flight, pulled - seen)
    assert seen == total
    assert max_in_flight <= (window + 1) * chunk_size


# ----------------------------------------------------------------------
# failure propagation
# ----------------------------------------------------------------------
def test_task_failure_carries_entry_context_serial():
    corpus = [("fine-0", ring(4)), ("detonate-1", ring(5)), ("fine-2", ring(6))]
    with pytest.raises(EngineError) as excinfo:
        list(run_stream(iter(corpus), "boom-for-tests"))
    message = str(excinfo.value)
    assert "boom-for-tests" in message
    assert "detonate-1" in message
    assert "SimulationError" in message


def test_task_failure_carries_entry_context_across_workers():
    """A crash in a worker process must surface as the same EngineError
    (not an unpicklable traceback or a bare RemoteError)."""
    corpus = [(f"fine-{i}", ring(4 + i)) for i in range(6)]
    corpus.insert(4, ("detonate-4", ring(9)))
    with pytest.raises(EngineError, match="detonate-4"):
        list(
            run_stream(
                iter(corpus), "boom-for-tests",
                EngineConfig(workers=2, chunk_size=1),
            )
        )
    with pytest.raises(EngineError, match="detonate-4"):
        run_experiments(corpus, task="boom-for-tests", workers=2, chunk_size=1)


def test_messages_task_bound_derives_from_graph(monkeypatch):
    """With a sabotaged slack the derived bound is too small and the task
    must refuse with a clear EngineError naming the entry — never record
    a truncated trace (the old silent max_rounds=200 failure mode)."""
    import repro.engine.tasks as tasks

    g = corpus_with_phi(1, sizes=(4,))[0][1]
    ok = run_experiments([("hk", g)], task="messages")
    assert ok[0]["algorithms"][0]["rounds"] >= 1

    monkeypatch.setattr(tasks, "MESSAGES_ROUND_SLACK", -(g.diameter() + 10))
    with pytest.raises(EngineError, match="refusing to record"):
        run_experiments([("hk", g)], task="messages")
