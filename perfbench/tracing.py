"""Benchmark-side tracing: ``repro.obs`` spans around the program's public
calls, installed by rebinding the names where they are called.

The wrappers open ``obs.span(name, layer=True)``, so the spans ride the
program's own trace machinery: per-thread nesting, parent ids, and the
shard ``Pipe`` that ships a worker's spans back into its query's trace.
The ``layer`` attribute marks a span as the benchmark's; the program's own
spans (``elect.run``, ``sim.run``, ...) sit between them and are looked
through.  Each operation has one root span carrying its ``op`` id: opened
by the batch loop, or, in the server, by the request wrapper from the
``X-Perfbench-Op`` header.  Every span of that trace belongs to that op.

A layer's self time is its span's duration minus the durations of its
nearest layer descendants.  ``value`` attributes carry what a count metric
needs from the call's result (advice bits, rounds and messages).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro import obs
from repro.obs.core import TRACE_BUFFER_CAP

OP_HEADER = "X-Perfbench-Op"


def _traced(name: str, fn, value=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name, layer=True) as sp:
            result = fn(*args, **kwargs)
            if value is not None:
                sp.set("value", value(result))
            return result

    return wrapper


def _traced_generator(name: str, gen_fn):
    """One span per resumption, so the time the consumer spends between
    items is not charged to the generator."""

    @functools.wraps(gen_fn)
    def wrapper(*args, **kwargs):
        gen = gen_fn(*args, **kwargs)
        while True:
            with obs.span(name, layer=True):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item

    return wrapper


def _run_counts(result):
    return [result.rounds, result.total_messages]


class Wrappers:
    """The installed wrappers; :meth:`uninstall` puts the originals back.
    ``planes`` collects the strict-wire message planes created since the
    last :meth:`take_planes`."""

    def __init__(self) -> None:
        self.planes: List[Any] = []
        self._restore: List[Callable[[], None]] = []

    def replace(self, holder, attr: str, new) -> None:
        self._restore.append(
            functools.partial(setattr, holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def replace_item(self, mapping: dict, key: str, new) -> None:
        self._restore.append(
            functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = new

    def rebind(self, module: str, attr: str, name: str, value=None,
               only: Optional[Iterable[str]] = None, wrapper=_traced) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        holds it (``only`` narrows the holders), so calls through
        ``from module import attr`` names and through function-local
        imports both land in the wrapper."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = (wrapper(name, original, value) if value is not None
                   else wrapper(name, original))
        holders = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "repro" or key.startswith("repro."))
            and getattr(m, attr, None) is original
            and (only is None or key in only)
        ]
        if not holders:
            raise RuntimeError(f"no call site of {module}.{attr} to trace")
        for holder in holders:
            self.replace(holder, attr, wrapped)

    def rebind_method(self, cls, attr: str, name: str, value=None) -> None:
        self.replace(cls, attr, _traced(name, cls.__dict__[attr], value))

    def take_planes(self) -> List[Any]:
        planes, self.planes = self.planes, []
        return planes

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def install() -> Wrappers:
    """Wrap every traced layer (see README.md for the map to metrics)."""
    from repro.baselines.labeling_scheme import LabelingSchemeAlgorithm
    from repro.baselines.map_based import MapBasedAlgorithm
    from repro.baselines.naive_rank import NaiveRankAlgorithm
    from repro.core.elect import ElectAlgorithm
    from repro.core.known_d_phi import KnownDPhiAlgorithm
    from repro.core.orbit_elect import OrbitEngine
    from repro.engine.tasks import TASKS
    from repro.service.api import ServiceCore
    from repro.service.cache import ResultCache
    from repro.service.server import _Handler
    from repro.service.shard import ShardPool
    from repro.sim.async_model import AsyncEngine
    from repro.sim.local_model import SyncEngine
    from repro.sim.strict import MessagePlane
    from repro.warehouse.store import WarehouseStore
    import repro.analysis.sweep  # noqa: F401 - call sites must be loaded
    import repro.conformance.oracle  # noqa: F401

    w = Wrappers()
    w.rebind("repro.core.advice", "compute_advice", "core.advice",
             value=lambda bundle: bundle.size_bits)
    # RetrieveLabel at a node's deliver; the oracle's own (recursive)
    # labeling stays inside core.advice
    w.rebind("repro.core.elect", "retrieve_label", "core.labels",
             only=("repro.core.elect",))
    w.rebind("repro.core.verify", "verify_election", "core.verify")
    w.rebind("repro.core.verify", "leaders_equivalent", "core.verify")
    w.rebind("repro.views.refinement", "stable_partition", "views.refinement")
    w.rebind("repro.graphs.canonical", "canonical_form", "graphs.canonical")
    w.rebind("repro.service.api", "parse_graph_payload", "service.parse")
    w.rebind("repro.analysis.sweep", "run_stream", "engine.run_stream",
             only=("repro.analysis.sweep",), wrapper=_traced_generator)
    w.rebind_method(ElectAlgorithm, "setup", "core.elect.setup")
    for cls in (KnownDPhiAlgorithm, MapBasedAlgorithm, NaiveRankAlgorithm,
                LabelingSchemeAlgorithm):
        w.rebind_method(cls, "setup", "baselines.setup")
    w.rebind_method(SyncEngine, "run", "sim.sync", value=_run_counts)
    w.rebind_method(AsyncEngine, "run", "sim.async", value=_run_counts)
    w.rebind_method(OrbitEngine, "run", "sim.orbit", value=_run_counts)
    w.rebind_method(MessagePlane, "encode", "sim.strict.codec")
    w.rebind_method(MessagePlane, "decode", "sim.strict.codec")
    plane_init = MessagePlane.__init__

    def register_plane(plane, *args, **kwargs):
        plane_init(plane, *args, **kwargs)
        w.planes.append(plane)

    w.replace(MessagePlane, "__init__", register_plane)
    w.rebind_method(WarehouseStore, "append", "warehouse.append")
    w.rebind_method(WarehouseStore, "register_graph", "warehouse.register")
    for task in ("elect", "index", "quotient"):
        w.replace_item(TASKS, task, _traced("task", TASKS[task]))
    # the service computes elect through the orbit engine, not TASKS
    w.rebind("repro.engine.tasks", "elect_record_via_orbits", "task",
             only=("repro.engine.tasks",))
    w.rebind_method(ServiceCore, "query", "service.query")
    w.rebind_method(ResultCache, "lookup", "service.cache.lookup")
    w.rebind_method(ResultCache, "put", "service.cache.put")
    w.rebind_method(ShardPool, "compute", "service.shard.roundtrip")

    # the server's root span per request, tagged with the client's op id
    do_post = _Handler.do_POST

    def traced_do_post(handler):
        op = handler.headers.get(OP_HEADER)
        with obs.span("http.request", layer=True, op=int(op) if op else None):
            return do_post(handler)

    w.replace(_Handler, "do_POST", traced_do_post)
    return w


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def from_chrome_trace(doc) -> List[Dict[str, Any]]:
    """Span events back from the Chrome trace ``repro profile
    --trace-json`` writes (it merges the attributes into ``args``)."""
    events = []
    for ev in doc["traceEvents"]:
        attrs = dict(ev["args"])
        events.append({
            "name": ev["name"],
            "trace_id": attrs.pop("trace_id"),
            "span_id": attrs.pop("span_id"),
            "parent_id": attrs.pop("parent_id", None),
            "dur_us": ev["dur"],
            "attrs": attrs,
        })
    return events


def check_complete(events: List[Dict[str, Any]]) -> None:
    """The program keeps at most ``TRACE_BUFFER_CAP`` events and drops the
    oldest; a full buffer means the totals would be missing spans."""
    if len(events) >= TRACE_BUFFER_CAP:
        raise RuntimeError(
            f"{len(events)} trace events filled the program's buffer "
            f"({TRACE_BUFFER_CAP}); spans were dropped, so the traced run "
            f"cannot be measured (trace a shorter run)")


def _ours(event) -> bool:
    return bool((event.get("attrs") or {}).get("layer"))


class Totals:
    """Per layer span name: calls, self seconds, inclusive seconds and
    the summed ``value`` fields, plus the seconds each op's spans took."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: (op, span name) -> inclusive seconds
        self.by_op: Dict[tuple, float] = defaultdict(float)

    def add(self, events: List[Dict[str, Any]], keep=lambda op: True) -> None:
        """Add whole traces; only ops for which ``keep(op)`` holds count."""
        by_id = {e["span_id"]: e for e in events}
        op_of = {e["trace_id"]: e["attrs"]["op"]
                 for e in events if _ours(e) and "op" in e["attrs"]}
        child_us: Dict[str, int] = defaultdict(int)
        ours = [e for e in events if _ours(e)]
        for e in ours:
            parent = by_id.get(e["parent_id"])
            while parent is not None and not _ours(parent):
                parent = by_id.get(parent["parent_id"])
            if parent is not None:
                child_us[parent["span_id"]] += e["dur_us"]
        for e in ours:
            op = op_of.get(e["trace_id"])
            if not keep(op):
                continue
            name, seconds = e["name"], e["dur_us"] / 1e6
            self.calls[name] += 1
            self.incl_s[name] += seconds
            self.self_s[name] += seconds - child_us[e["span_id"]] / 1e6
            self.by_op[op, name] += seconds
            value = e["attrs"].get("value")
            if value is not None:
                pair = value if isinstance(value, list) else [value, 0]
                self.values[name][0] += pair[0]
                self.values[name][1] += pair[1]


def layer_metrics(every: Totals, ref: Totals, ops: int,
                  plane_stats: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics the program's own layers give: seconds are
    self time per operation over all ``ops``; counts are totals over the
    reference pass ``ref``, so they repeat exactly for a seed."""

    def self_per_op(name):
        return every.self_s[name] / ops

    def ratio(hits, calls):
        return plane_stats[hits] / plane_stats[calls] if plane_stats[calls] else 0.0

    sim_names = ("sim.sync", "sim.orbit", "sim.async")
    return {
        "core.advice.compute_s": self_per_op("core.advice"),
        "core.advice.bits": ref.values["core.advice"][0],
        "core.elect.setup_calls": ref.calls["core.elect.setup"],
        "core.elect.setup_s": self_per_op("core.elect.setup"),
        "core.labels.node_calls": ref.calls["core.labels"],
        "core.labels.node_s": self_per_op("core.labels"),
        "baselines.setup_calls": ref.calls["baselines.setup"],
        "baselines.setup_s": self_per_op("baselines.setup"),
        "sim.sync.self_s": self_per_op("sim.sync"),
        "sim.orbit.self_s": self_per_op("sim.orbit"),
        "sim.async.self_s": self_per_op("sim.async"),
        "sim.rounds": sum(ref.values[n][0] for n in sim_names),
        "sim.messages": sum(ref.values[n][1] for n in sim_names),
        "sim.strict.codec_s": self_per_op("sim.strict.codec"),
        "sim.strict.encode_hit_ratio": ratio("encode_hits", "encode_calls"),
        "sim.strict.decode_hit_ratio": ratio("decode_hits", "decode_calls"),
        "core.verify.s": self_per_op("core.verify"),
        "views.refinement.s": self_per_op("views.refinement"),
        "graphs.canonical.calls": ref.calls["graphs.canonical"],
        "graphs.canonical.s": self_per_op("graphs.canonical"),
        "engine.overhead_s": self_per_op("engine.run_stream"),
        "warehouse.appends": ref.calls["warehouse.append"],
        "warehouse.append_s": self_per_op("warehouse.append"),
    }


def self_time_table(totals: Totals, ops: int) -> List[str]:
    """Human-readable self time per operation, largest first."""
    rows = sorted(((name, seconds) for name, seconds in totals.self_s.items()
                   if totals.calls[name]), key=lambda item: -item[1])
    return [
        f"    {name:<24} {1000 * seconds / ops:9.2f} ms/op  "
        f"({totals.calls[name]} calls)"
        for name, seconds in rows
    ]
