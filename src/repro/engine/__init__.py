"""The parallel experiment engine.

Every sweep and bench in this repository is embarrassingly parallel over
its corpus — each ``(name, graph)`` entry is measured independently — but
the measurement loop was historically serial and grew the global view
intern table without bound.  This package provides the shared engine:

* :func:`run_experiments` — fan a corpus out to worker processes in
  deterministic chunks; results are record-for-record identical to a
  serial run (see :mod:`repro.engine.engine` for the contract);
* :func:`run_stream` — the iterator twin for corpora of unknown size:
  consumes a lazy ``(name, graph)`` stream chunk-by-chunk with bounded
  memory, yielding the identical records (:mod:`repro.engine.stream`);
* :mod:`repro.engine.store` — ``open_result_store``, the one way to open
  the live result store behind ``repro sweep --out/--resume``: a
  warehouse dataset whose records are keyed by ``(name, task)``, so an
  interrupted sweep resumes to a byte-identical JSONL export;
* :mod:`repro.engine.tasks` — the registry of named experiments (``elect``,
  ``advice``, ``index``, ``messages``, ``ablation``, and the multi-record,
  parameterized ``conformance``); workers receive task *names*, never
  closures — parameterized names (``conformance:schedules=5``) are
  re-resolved inside each worker;
* :mod:`repro.engine.records` — the JSON record schema and canonical
  serialization (documented in ``benchmarks/README.md``).

Consumers: ``repro.analysis.sweep.sweep_elect(..., workers=N)``, the
``repro sweep`` CLI command, and the heavy benches under ``benchmarks/``.
"""

from repro.engine.engine import (
    EngineConfig,
    EngineError,
    available_parallelism,
    chunk_corpus,
    default_chunk_size,
    run,
    run_experiments,
)
from repro.engine.records import (
    Record,
    record_to_json,
    records_from_jsonl,
    records_table,
    records_to_jsonl,
)
from repro.engine.store import StoreError, open_result_store, record_key
from repro.engine.stream import (
    DEFAULT_STREAM_CHUNK_SIZE,
    STREAM_WINDOW_PER_WORKER,
    run_stream,
)
from repro.engine.tasks import (
    TASKS,
    TASK_FACTORIES,
    get_task,
    register_task,
    register_task_factory,
)

__all__ = [
    "DEFAULT_STREAM_CHUNK_SIZE",
    "STREAM_WINDOW_PER_WORKER",
    "StoreError",
    "open_result_store",
    "record_key",
    "run_stream",
    "EngineConfig",
    "EngineError",
    "available_parallelism",
    "chunk_corpus",
    "default_chunk_size",
    "run",
    "run_experiments",
    "Record",
    "record_to_json",
    "records_to_jsonl",
    "records_from_jsonl",
    "records_table",
    "TASKS",
    "TASK_FACTORIES",
    "get_task",
    "register_task",
    "register_task_factory",
]
