"""The results warehouse: one indexed sqlite store under every producer.

Sweeps, conformance runs, the service cache and the ``BENCH_*.json``
perf records all persist to one content-addressed, indexed sqlite
database; their JSONL/JSON files are its import/export formats:

* :mod:`repro.warehouse.db` — the :class:`Warehouse` itself: WAL-mode
  sqlite, one ``records`` table (unique on ``(fingerprint, task)`` per
  dataset for content-addressed cache rows, indexed on
  ``(dataset, name, task)`` and ``(name, family, task)``), a ``graphs``
  table joining corpus entry names to their content addresses, and a
  ``runs`` table of provenance rows (env fingerprint, schema version,
  timestamps);
* :mod:`repro.warehouse.store` — :class:`WarehouseStore`, the one live
  result store, where resume is a key query and record groups commit as
  transactions (a SIGKILL leaves only whole groups);
* :mod:`repro.warehouse.io` — the JSONL/JSON import/export formats with
  byte-identical round-trip, plus ``register_corpus_graphs`` for
  migrating pre-warehouse stores;
* :mod:`repro.warehouse.trend` — the cross-run bench trajectory behind
  ``repro report --trend``.

The record layer (canonical JSON, :mod:`repro.engine.records`) stays the
single wire format: the warehouse stores the exact text, so every
byte-identity invariant (resume parity, warm-equals-cold service
answers, golden regressions) holds on the exported bytes — proven in
``tests/test_warehouse.py``.

CLI: ``repro warehouse import|export|trend|register|info``; ``repro
sweep --out``, ``repro conformance --out`` and ``repro serve --cache``
take a warehouse path (by extension) and refuse anything else.
"""

from repro.warehouse.db import (
    SCHEMA_VERSION,
    WAREHOUSE_EXTENSIONS,
    Warehouse,
    is_warehouse_path,
)
from repro.warehouse.io import (
    default_dataset,
    export_bench,
    export_dataset,
    import_file,
    register_corpus_graphs,
    sniff_format,
)
from repro.warehouse.store import WarehouseStore
from repro.warehouse.trend import (
    memory_trend,
    render_trend,
    telemetry_trend,
    trend_table,
)

__all__ = [
    "SCHEMA_VERSION",
    "WAREHOUSE_EXTENSIONS",
    "Warehouse",
    "WarehouseStore",
    "default_dataset",
    "export_bench",
    "export_dataset",
    "import_file",
    "is_warehouse_path",
    "memory_trend",
    "register_corpus_graphs",
    "render_trend",
    "telemetry_trend",
    "sniff_format",
    "trend_table",
]
