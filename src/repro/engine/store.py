"""The result store's keys, and the one way to open a live store.

A sweep appends engine records in corpus order to a warehouse dataset
(:class:`repro.warehouse.store.WarehouseStore`).  Records are keyed by
``(name, task)`` — corpus entry names are unique within a stream by the
registry's naming contract — which gives the resume semantics: a fresh
store starts an empty dataset, and ``resume=True`` loads the keys
already committed so a sweep can skip them
(:func:`repro.analysis.sweep.sweep_to_store` is the filter-and-append
loop).

Record groups
    Multi-record tasks (:mod:`repro.engine.tasks`) append several
    records per corpus entry: sub-records carrying an ``entry`` field,
    then a summary whose ``name`` equals the entry name.  A record
    *terminates a group* iff it has no ``entry`` field or its ``entry``
    equals its ``name`` — so for single-record tasks every record is its
    own group.  A group commits as one transaction, so a kill leaves
    only whole groups and a resumed sweep re-runs a partial entry in
    full.

JSONL is the store's import/export format, not a live backend: ``repro
warehouse export DB DATASET FILE`` writes a dataset's canonical lines,
byte-identical to an uninterrupted run's, and ``repro warehouse import
DB FILE --dataset DATASET`` loads a JSONL store written before the
warehouse existed.
"""

from __future__ import annotations

from typing import Tuple

from repro.engine.records import Record
from repro.errors import StoreError

#: A record's identity in a store: (corpus entry name, task name).
StoreKey = Tuple[str, str]


def record_key(record: Record) -> StoreKey:
    """The ``(name, task)`` key of one engine record."""
    try:
        return (record["name"], record["task"])
    except (KeyError, TypeError) as exc:
        raise StoreError(
            f"not an engine record (every record carries 'name' and "
            f"'task'): {record!r} ({exc})"
        ) from None


def check_store_path(path: str) -> None:
    """Refuse a store path that is not a warehouse database, naming the
    JSONL import and export commands; nothing is opened or created."""
    from repro.warehouse.db import is_warehouse_path

    if not is_warehouse_path(path):
        raise StoreError(
            f"store path '{path}' is not a warehouse database (.sqlite, "
            f".db); write JSONL with `repro warehouse export DB DATASET "
            f"{path}`, and resume a JSONL store after `repro warehouse "
            f"import DB {path} --dataset DATASET`"
        )


def open_result_store(
    path: str,
    resume: bool = False,
    dataset: str = "sweep",
    family=None,
):
    """Open ``dataset`` of the warehouse at ``path`` as a result store
    (a :class:`repro.warehouse.store.WarehouseStore`); a path without a
    warehouse extension raises :class:`StoreError` (see
    :func:`check_store_path`)."""
    check_store_path(path)
    from repro.warehouse.store import WarehouseStore

    return WarehouseStore(path, dataset=dataset, resume=resume, family=family)
