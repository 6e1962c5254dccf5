"""The results warehouse: one indexed sqlite store under every producer.

Four result formats grew up independently in this repository — engine
:class:`~repro.engine.store.ResultStore` JSONL (sweeps), conformance
stores, the service cache JSONL with its offset index, and the
``BENCH_*.json`` perf records — joined only by ad-hoc full-file scans.
This package puts one content-addressed, indexed sqlite database under
all of them:

* :mod:`repro.warehouse.db` — the :class:`Warehouse` itself: WAL-mode
  sqlite, one ``records`` table (unique on ``(fingerprint, task)`` per
  dataset for content-addressed cache rows, indexed on
  ``(dataset, name, task)`` and ``(name, family, task)``), a ``graphs``
  table joining corpus entry names to their content addresses, and a
  ``runs`` table of provenance rows (env fingerprint, schema version,
  timestamps);
* :mod:`repro.warehouse.store` — :class:`WarehouseStore`, the
  drop-in result-store backend where resume is a key query and record
  groups commit as transactions (SIGKILL-convergent, like the JSONL
  store's torn-tail repair);
* :mod:`repro.warehouse.io` — the JSONL/JSON files demoted to
  import/export formats with byte-identical round-trip, plus
  ``register_corpus_graphs`` for migrating pre-warehouse stores;
* :mod:`repro.warehouse.trend` — the cross-run bench trajectory behind
  ``repro report --trend``.

The record layer (canonical JSON, :mod:`repro.engine.records`) stays the
single wire format: the warehouse stores the exact text and every
byte-identity invariant (resume parity, warm-equals-cold service
answers, golden regressions) holds on this backend too — re-proven in
``tests/test_warehouse.py``.

CLI: ``repro warehouse import|export|trend|register|info``; ``repro
sweep`` / ``repro conformance`` ``--out`` accept a warehouse path (by
extension) directly, and ``repro serve --cache`` takes nothing else.
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
