"""The parallel experiment engine.

Every sweep and bench in this repository is embarrassingly parallel over
its corpus — each ``(name, graph)`` entry is measured independently.
This package provides the one engine that runs them
(:mod:`repro.engine.engine` states its contract):

* :func:`run_stream` — consume a lazy ``(name, graph)`` stream chunk by
  chunk, in-process or across worker processes, with bounded memory,
  and yield records in corpus order, identical at every worker count;
* :func:`run_experiments` — its list form, for corpora held in memory;
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

Consumers: ``repro.analysis.sweep.sweep_elect(..., workers=N)`` and
``sweep_to_store``, the ``repro sweep`` and ``repro conformance`` CLI
commands, and the heavy benches under ``benchmarks/``.
"""

from repro.engine.engine import (
    DEFAULT_STREAM_CHUNK_SIZE,
    STREAM_WINDOW_PER_WORKER,
    EngineConfig,
    EngineError,
    available_parallelism,
    run_experiments,
    run_stream,
)
from repro.engine.records import (
    Record,
    record_to_json,
    records_from_jsonl,
    records_table,
    records_to_jsonl,
)
from repro.engine.store import StoreError, open_result_store, record_key
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
