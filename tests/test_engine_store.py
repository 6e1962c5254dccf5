"""The persistent result store: canonical append, resume bookkeeping,
and the headline byte-identity contract — an interrupted-then-resumed
sweep exports the same bytes as an uninterrupted run.

A partial store is seeded by importing a prefix of the reference's
lines (``repro warehouse import``), the shape a killed sweep leaves:
whole record groups in corpus order."""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweep import sweep_to_store
from repro.corpus import iter_corpus
from repro.engine import (
    StoreError,
    open_result_store,
    record_key,
    records_to_jsonl,
    run_experiments,
)
from repro.warehouse import Warehouse, export_dataset, import_file

SPEC = "caterpillars:18,seed=13"
TASK = "index"


def _reference_bytes():
    """The uninterrupted run's canonical JSON lines."""
    records = run_experiments(list(iter_corpus(SPEC)), TASK)
    assert len(records) == 18
    return records_to_jsonl(records).encode("utf-8")


def _seeded_store(tmp_path, lines):
    """A warehouse whose ``sweep`` dataset holds ``lines``."""
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_bytes(b"".join(line + b"\n" for line in lines))
    wh_path = str(tmp_path / "partial.sqlite")
    with Warehouse(wh_path) as wh:
        import_file(wh, str(prefix), dataset="sweep")
    return wh_path


def _export_bytes(tmp_path, wh_path):
    out = tmp_path / "export.jsonl"
    with Warehouse(wh_path) as wh:
        export_dataset(wh, "sweep", str(out))
    return out.read_bytes()


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_append_writes_canonical_lines_and_tracks_keys(tmp_path):
    path = str(tmp_path / "s.sqlite")
    rec = {"task": "index", "name": "a", "n": 5, "feasible": False}
    with open_result_store(path) as store:
        store.append(rec)
        assert ("a", "index") in store
        assert len(store) == 1
    line = _export_bytes(tmp_path, path).decode("utf-8")
    assert line == json.dumps(rec, sort_keys=True,
                              separators=(",", ":")) + "\n"
    with Warehouse(path) as wh:
        assert list(wh.iter_records("sweep")) == [rec]


def test_record_key_requires_engine_fields():
    with pytest.raises(StoreError, match="not an engine record"):
        record_key({"n": 4})
    with pytest.raises(StoreError, match="not an engine record"):
        record_key(42)  # valid JSON, but not even a dict


def test_resume_missing_file_is_fresh(tmp_path):
    with open_result_store(str(tmp_path / "new.sqlite"), resume=True) as store:
        assert len(store) == 0


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
def test_resume_loads_keys_and_skips(tmp_path):
    reference = _reference_bytes()
    path = _seeded_store(tmp_path, reference.split(b"\n")[:10])
    with open_result_store(path, resume=True) as store:
        assert len(store) == 10
        ran, skipped = sweep_to_store(iter_corpus(SPEC), TASK, store)
    assert (ran, skipped) == (8, 10)
    assert _export_bytes(tmp_path, path) == reference


def test_resume_complete_file_is_a_noop(tmp_path):
    reference = _reference_bytes()
    path = _seeded_store(tmp_path, reference.splitlines())
    with open_result_store(path, resume=True) as store:
        ran, skipped = sweep_to_store(iter_corpus(SPEC), TASK, store)
    assert (ran, skipped) == (0, 18)
    assert _export_bytes(tmp_path, path) == reference


def test_parallel_resume_matches_serial_reference(tmp_path):
    """The acceptance criterion end-to-end: interrupted store + parallel
    resumed run == uninterrupted *serial* run, byte for byte."""
    reference = _reference_bytes()
    path = _seeded_store(tmp_path, reference.split(b"\n")[:5])
    with open_result_store(path, resume=True) as store:
        sweep_to_store(iter_corpus(SPEC), TASK, store, workers=3,
                       chunk_size=2)
    assert _export_bytes(tmp_path, path) == reference
