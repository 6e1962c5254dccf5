"""The live result store: one warehouse dataset, appended group by group.

:class:`WarehouseStore` is what :func:`repro.engine.open_result_store`
returns, and what :func:`repro.analysis.sweep.sweep_to_store` and both
streaming CLI commands (``repro sweep --out``, ``repro conformance
--out``) write into:

* **resume is a key query** — opening with ``resume=True`` runs one
  ``SELECT name, task`` over the dataset;
* **group atomicity is transactional** — sub-records of a multi-record
  task are buffered and committed together with their summary, so a
  SIGKILL leaves only whole groups (sqlite rolls back the open
  transaction on the next connection);
* **graphs register alongside records** — :meth:`register_graph` puts
  the corpus graph's content address in the ``graphs`` table in the
  same commit as the entry's group, turning later service warming into
  a join query.

Byte-identity under resume: records insert in corpus order, a kill
leaves a committed prefix of whole groups, and a resumed run appends
exactly the missing suffix — so the dataset's JSONL *export*
(:func:`repro.warehouse.io.export_dataset`) is byte-identical to
``records_to_jsonl`` of an uninterrupted run.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.engine.records import Record, record_to_json
from repro.engine.store import StoreKey, record_key
from repro.warehouse.db import Warehouse

#: How a store names the family of an entry: a constant (single-family
#: sweeps), a callable from entry name (multi-family sweeps), or None.
FamilySpec = Union[None, str, Callable[[str], Optional[str]]]


class WarehouseStore:
    """Append-only result store over one dataset of the warehouse at
    ``path``; :meth:`close` closes the warehouse."""

    def __init__(
        self,
        path: str,
        dataset: str = "sweep",
        resume: bool = False,
        family: FamilySpec = None,
    ):
        self.warehouse = Warehouse(path)
        self.path = path
        self.dataset = dataset
        self._family = family
        self.done: Set[StoreKey] = set()
        if resume:
            self.done = self.warehouse.result_keys(dataset)
        else:
            self.warehouse.clear_dataset(dataset)
        self._run_id = self.warehouse.begin_run(
            "resume" if resume else "sweep", dataset
        )
        #: open group: rows not yet terminated by their summary record
        self._pending: List[Tuple[str, str, Optional[str], str]] = []
        self._pending_keys: List[StoreKey] = []
        #: graphs registered for entries whose group is not yet durable
        self._pending_graphs: Dict[str, Tuple[str, str]] = {}

    def _family_of(self, name: str) -> Optional[str]:
        if callable(self._family):
            return self._family(name)
        return self._family

    def __contains__(self, key: StoreKey) -> bool:
        return key in self.done

    def __len__(self) -> int:
        return len(self.done)

    def append(self, record: Record) -> None:
        """Buffer one record; commit the whole group (atomically, with
        any registered graphs) when its terminating record arrives."""
        key = record_key(record)
        name = record["name"]
        entry = record.get("entry")
        self._pending.append(
            (name, record["task"], entry, record_to_json(record))
        )
        self._pending_keys.append(key)
        if record.get("entry", name) == name:
            graph_rows = []
            registered = self._pending_graphs.pop(name, None)
            if registered is not None:
                graph_rows.append((name, registered[0], registered[1]))
            self.warehouse.append_group(
                self.dataset,
                self._pending,
                family=self._family_of(name),
                graph_rows=graph_rows,
                run_id=self._run_id,
            )
            self.done.update(self._pending_keys)
            self._pending.clear()
            self._pending_keys.clear()

    def close(self) -> None:
        # an unterminated group never became durable: the next resume
        # re-runs its entry in full
        self._pending.clear()
        self._pending_keys.clear()
        self.warehouse.finish_run(self._run_id)
        self.warehouse.close()

    def __enter__(self) -> "WarehouseStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def register_graph(self, name: str, graph) -> None:
        """Record ``name``'s content address (fingerprint and canonical
        relabeling), to be committed atomically with the entry's record
        group; :func:`~repro.analysis.sweep.sweep_to_store` calls it for
        every entry it runs."""
        from repro.graphs.canonical import canonical_form

        form = canonical_form(graph)
        self._pending_graphs[name] = (
            form.fingerprint,
            json.dumps(list(form.to_canonical), separators=(",", ":")),
        )
