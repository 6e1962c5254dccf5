"""The experiment engine: determinism, chunking, and the task registry.

The headline contract — parallel runs are record-for-record (and, under
canonical JSON, byte-for-byte) identical to serial runs on a fixed-seed
corpus — is asserted here at test scale and re-asserted at bench scale in
``benchmarks/bench_engine_scaling.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import corpus_default, corpus_with_phi, sweep_elect
from repro.engine import (
    EngineConfig,
    EngineError,
    records_from_jsonl,
    records_table,
    records_to_jsonl,
    run_experiments,
)


def _fixed_corpus():
    """Small fixed-seed corpus covering both phi regimes."""
    return corpus_default(25) + corpus_with_phi(1, sizes=(4,)) + corpus_with_phi(
        2, sizes=(4,)
    )


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_engine_config_validation():
    with pytest.raises(EngineError):
        EngineConfig(workers=0)
    with pytest.raises(EngineError):
        EngineConfig(chunk_size=0)


# ----------------------------------------------------------------------
# determinism: parallel == serial
# ----------------------------------------------------------------------
def test_parallel_records_identical_to_serial():
    corpus = _fixed_corpus()
    serial = run_experiments(corpus, task="elect", workers=1, chunk_size=3)
    parallel = run_experiments(corpus, task="elect", workers=2, chunk_size=2)
    assert parallel == serial
    # byte-identical under the canonical serialization
    assert records_to_jsonl(parallel) == records_to_jsonl(serial)


def test_parallel_sweep_elect_equals_serial():
    corpus = _fixed_corpus()
    serial = sweep_elect(corpus)
    parallel = sweep_elect(corpus, workers=4, chunk_size=1)
    assert parallel == serial
    assert [r.name for r in parallel] == [name for name, _ in corpus]


def test_chunk_size_never_changes_records():
    corpus = _fixed_corpus()
    baseline = run_experiments(corpus, task="index", workers=1)
    for chunk_size in (1, 2, len(corpus)):
        assert (
            run_experiments(
                corpus, task="index", workers=1, chunk_size=chunk_size
            )
            == baseline
        )


def test_empty_corpus():
    assert run_experiments([], task="elect", workers=4) == []


# ----------------------------------------------------------------------
# tasks and records
# ----------------------------------------------------------------------
def test_unknown_task_fails_fast():
    with pytest.raises(EngineError, match="unknown engine task"):
        run_experiments(_fixed_corpus(), task="no-such-task")


def test_every_task_emits_common_keys():
    corpus = corpus_with_phi(1, sizes=(4,))
    for task in ("elect", "advice", "index", "messages", "ablation"):
        records = run_experiments(corpus, task=task)
        assert len(records) == len(corpus)
        for rec in records:
            assert rec["task"] == task
            assert rec["name"] == corpus[0][0]
            assert rec["n"] == corpus[0][1].n


def test_records_jsonl_roundtrip():
    corpus = corpus_with_phi(2, sizes=(4,))
    records = run_experiments(corpus, task="messages")
    assert records_from_jsonl(records_to_jsonl(records)) == records


def test_records_table_projection():
    records = [
        {"task": "elect", "name": "a", "n": 5, "phi": 1},
        {"task": "elect", "name": "b", "n": 7},
    ]
    rows = records_table(records, ["name", "n", "phi"])
    assert rows == [("a", 5, 1), ("b", 7, "-")]
