"""Import/export: the JSONL/JSON files as wire formats of the warehouse.

The warehouse stores every record as the exact canonical-JSON text the
legacy files carry, so the demotion of those files to import/export
formats is lossless by construction:

* a **result store** (``repro sweep --out FILE``) imports line-by-line
  into one dataset, group-atomically, and exports back byte-identical;
* a **service cache** file imports its content-addressed envelopes under
  the same ``(fingerprint, task)`` uniqueness the live cache enforces;
* a **BENCH_<scenario>.json** record imports under a run row and exports
  back through the same :func:`repro.analysis.bench.write_json`
  serializer, hence byte-identical as well.

Format sniffing reads the first line: a JSONL line that parses as a
cache envelope / engine record selects ``cache`` / ``store``; a file
whose first line is not a JSON document but which parses as a whole is a
``bench`` record.  ``import_file`` accepts an explicit format when a
file is ambiguous.

``register_corpus_graphs`` is the migration path for stores swept before
the warehouse existed: it re-streams a corpus **once**, records each
entry's content address in the ``graphs`` table, and from then on every
service warm-up is a join query instead of another re-stream.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.records import Record
from repro.engine.store import record_key
from repro.errors import StoreError
from repro.warehouse.db import Warehouse

IMPORT_FORMATS = ("store", "cache", "bench")


def default_dataset(path: str) -> str:
    """A dataset name from a file path: the basename without extension."""
    return os.path.splitext(os.path.basename(path))[0]


def sniff_format(path: str) -> str:
    """Guess an import file's format from its first line (see module
    docstring); raise :class:`StoreError` when nothing matches."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), None)
    if first is None:
        raise StoreError(f"'{path}' is empty; nothing to import")
    try:
        doc = json.loads(first)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        if {"fingerprint", "task", "record"} <= doc.keys():
            return "cache"
        if {"name", "task"} <= doc.keys():
            return "store"
    # not line-oriented: try the whole file (a BENCH record is one
    # indented JSON document)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError:
            raise StoreError(
                f"'{path}' is neither a result store, a cache file nor a "
                f"bench record; pass an explicit format"
            ) from None
    if isinstance(doc, dict) and str(doc.get("schema", "")).startswith(
        "repro-bench/"
    ):
        return "bench"
    raise StoreError(
        f"'{path}' is neither a result store, a cache file nor a bench "
        f"record; pass an explicit format"
    )


# ----------------------------------------------------------------------
# imports
# ----------------------------------------------------------------------
def _import_store(wh: Warehouse, path: str, dataset: str, run_id: int) -> int:
    """One result-store JSONL file -> one dataset, group by group."""
    group: List[Tuple[str, str, Optional[str], str]] = []
    imported = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record: Record = json.loads(line)
                key = record_key(record)
            except (ValueError, StoreError) as exc:
                raise StoreError(
                    f"{path}:{lineno}: not an engine record ({exc}); "
                    f"imports require intact stores — resume the sweep to "
                    f"repair a torn tail first"
                ) from None
            name = record["name"]
            group.append(
                (name, key[1], record.get("entry"), line.rstrip("\n"))
            )
            if record.get("entry", name) == name:
                wh.append_group(dataset, group, run_id=run_id)
                imported += len(group)
                group.clear()
    if group:
        raise StoreError(
            f"'{path}' ends in an unterminated record group "
            f"({len(group)} sub-records with no summary); resume the sweep "
            f"to complete it before importing"
        )
    return imported


def _import_cache(wh: Warehouse, path: str, dataset: str, run_id: int) -> int:
    from repro.service.cache import ResultCache

    imported = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                (fingerprint, task), record = ResultCache._entry_key(entry)
            except Exception as exc:
                raise StoreError(
                    f"{path}:{lineno}: not a cache entry ({exc})"
                ) from None
            if wh.put_cache_entry(
                dataset,
                fingerprint,
                task,
                str(record.get("name", fingerprint)),
                line.rstrip("\n"),
                run_id=run_id,
            ):
                imported += 1
    return imported


def _import_bench(wh: Warehouse, path: str, dataset: str, run_id: int) -> int:
    from repro.analysis.bench import validate_bench_record

    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:
            raise StoreError(
                f"'{path}' is not a bench record (one JSON document): {exc}"
            ) from None
    validate_bench_record(record)
    wh.append_bench(record, run_id, dataset=dataset)
    return 1


def import_file(
    wh: Warehouse,
    path: str,
    fmt: Optional[str] = None,
    dataset: Optional[str] = None,
    label: Optional[str] = None,
    run_id: Optional[int] = None,
) -> Tuple[str, str, int]:
    """Import one file; returns ``(format, dataset, rows imported)``.

    Without ``dataset``, a cache file lands in ``service-cache``, where
    ``repro serve --cache`` reads it, a bench record in ``bench``, and a
    result store in a dataset named after the file.

    ``run_id`` lets a caller group several files (e.g. one ``repro
    bench`` invocation's BENCH records) under a single provenance row;
    by default each file gets its own ``import`` run.
    """
    if not os.path.exists(path):
        raise StoreError(f"no such import file: '{path}'")
    fmt = fmt or sniff_format(path)
    if fmt not in IMPORT_FORMATS:
        raise StoreError(
            f"unknown import format '{fmt}'; expected one of "
            f"{', '.join(IMPORT_FORMATS)}"
        )
    if not dataset:
        from repro.service.cache import SERVICE_CACHE_DATASET

        dataset = {"bench": "bench", "cache": SERVICE_CACHE_DATASET}.get(
            fmt, default_dataset(path)
        )
    own_run = run_id is None
    if own_run:
        run_id = wh.begin_run("import", label or path)
    imported = {
        "store": _import_store,
        "cache": _import_cache,
        "bench": _import_bench,
    }[fmt](wh, path, dataset, run_id)
    if own_run:
        wh.finish_run(run_id)
    return fmt, dataset, imported


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def export_dataset(wh: Warehouse, dataset: str, path: str) -> int:
    """Write a result/cache dataset back to its JSONL wire format.

    The written bytes equal the file the live JSONL backend would have
    produced — and, for an imported dataset, the imported file itself
    (the round-trip gate CI enforces on the golden stores).
    """
    kinds = {kind for ds, kind, _count in wh.datasets() if ds == dataset}
    if not kinds:
        raise StoreError(f"warehouse has no dataset '{dataset}'")
    if "bench" in kinds:
        raise StoreError(
            f"dataset '{dataset}' holds bench records; use export_bench "
            f"(BENCH_*.json is not a JSONL format)"
        )
    lines = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in wh.iter_lines(dataset):
            fh.write(line + "\n")
            lines += 1
    return lines


def export_bench(
    wh: Warehouse, out_dir: str, run_id: Optional[int] = None
) -> List[str]:
    """Write BENCH_<scenario>.json files for one bench run (default: the
    latest run holding bench records), via the harness's own serializer
    — byte-identical to what ``repro bench`` wrote when it recorded."""
    from repro.analysis.bench import write_json

    rows = wh.bench_rows()
    if not rows:
        raise StoreError("warehouse holds no bench records")
    if run_id is None:
        run_id = rows[-1][0]
    selected = [(s, r) for rid, s, r in rows if rid == run_id]
    if not selected:
        raise StoreError(f"no bench records under run {run_id}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for scenario, record in selected:
        out_path = os.path.join(out_dir, f"BENCH_{scenario}.json")
        write_json(out_path, record)
        written.append(out_path)
    return written


# ----------------------------------------------------------------------
# corpus registration (migrating pre-warehouse stores)
# ----------------------------------------------------------------------
def register_corpus_graphs(
    wh: Warehouse,
    dataset: str,
    corpus: Iterable[Tuple[str, object]],
    names: Optional[Iterable[str]] = None,
) -> int:
    """Stream a corpus once, recording content addresses for the
    dataset's entry names; stops as soon as every wanted name is seen.
    Returns the number of graphs registered."""
    from repro.graphs.canonical import canonical_form

    if names is None:
        wanted = {
            row[0]
            for row in wh._conn.execute(
                "SELECT DISTINCT name FROM records WHERE dataset=? "
                "AND kind='result'",
                (dataset,),
            )
        }
    else:
        wanted = set(names)
    registered = 0
    for name, graph in corpus:
        if name not in wanted:
            continue
        form = canonical_form(graph)
        wh.register_graph(dataset, name, form.fingerprint, form.to_canonical)
        wanted.discard(name)
        registered += 1
        if not wanted:
            break
    return registered
