"""Experiment sweeps: graph corpora with controlled parameters and the
end-to-end measurement loop used by the benches.

``corpus_default`` assembles a mixed bag of feasible graphs;
``corpus_with_phi`` produces graphs of a *prescribed* election index
(necklaces for phi >= 2, ring-of-cliques members for phi = 1 — the paper's
own constructions double as the cleanest phi-controlled workload
generators).  ``sweep_elect`` runs the full Theorem 3.1 pipeline over a
corpus — through :mod:`repro.engine`, optionally across worker processes —
and reports advice size against the n log n envelope.

For corpora too large to hold (the families of :mod:`repro.corpus`),
``sweep_to_store`` is the resumable streaming loop behind
``repro sweep --out/--resume``: it filters out entries whose records are
already persisted, streams the rest through the engine, and appends each
record to the warehouse store as it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.engine import EngineConfig, run_experiments, run_stream
from repro.graphs.generators import (
    cycle_with_leader_gadget,
    lollipop,
    random_connected_graph,
)
from repro.graphs.port_graph import PortGraph
from repro.lowerbounds.necklaces import necklace
from repro.lowerbounds.ring_of_cliques import hk_graph
from repro.views.election_index import is_feasible

if TYPE_CHECKING:
    from repro.warehouse.store import WarehouseStore


@dataclass
class SweepRecord:
    """One corpus point of a Theorem 3.1 sweep."""

    name: str
    n: int
    phi: int
    advice_bits: int
    election_time: int
    bits_per_nlogn: float


def corpus_default(max_n: int = 60) -> List[Tuple[str, PortGraph]]:
    """A mixed feasible corpus: pendant rings, lollipops, random graphs."""
    corpus: List[Tuple[str, PortGraph]] = []
    for n in (5, 8, 12, 17):
        if n + 1 <= max_n:
            corpus.append((f"pendant-ring-{n}", cycle_with_leader_gadget(n)))
    for size, tail in ((4, 3), (5, 6)):
        if size + tail <= max_n:
            corpus.append((f"lollipop-{size}-{tail}", lollipop(size, tail)))
    for n, extra, seed in ((10, 5, 1), (20, 12, 2), (35, 20, 3), (50, 35, 4)):
        if n <= max_n:
            g = random_connected_graph(n, extra_edges=extra, seed=seed)
            if is_feasible(g):
                corpus.append((f"random-{n}", g))
    return corpus


def corpus_with_phi(
    phi: int, sizes: Sequence[int] = (4, 6, 8)
) -> List[Tuple[str, PortGraph]]:
    """Graphs of prescribed election index: H_k members for phi = 1,
    necklaces for phi >= 2 (``sizes`` are the k parameters)."""
    out: List[Tuple[str, PortGraph]] = []
    if phi == 1:
        for k in sizes:
            out.append((f"ring-of-cliques-k{k}", hk_graph(k)))
    else:
        for k in sizes:
            out.append((f"necklace-k{k}-phi{phi}", necklace(k, phi)))
    return out


def sweep_elect(
    corpus: Sequence[Tuple[str, PortGraph]],
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[SweepRecord]:
    """Run the Theorem 3.1 pipeline over a corpus.

    Delegates to the experiment engine: with ``workers > 1`` the corpus is
    fanned out to worker processes, with results guaranteed
    record-for-record identical to the serial run (the engine's
    determinism contract).  ``chunk_size`` is the unit of dispatch to
    the workers; ``None`` picks the engine's default.
    """
    records = run_experiments(
        corpus, task="elect", workers=workers, chunk_size=chunk_size
    )
    return [
        SweepRecord(
            name=r["name"],
            n=r["n"],
            phi=r["phi"],
            advice_bits=r["advice_bits"],
            election_time=r["election_time"],
            bits_per_nlogn=r["bits_per_nlogn"],
        )
        for r in records
    ]


def sweep_to_store(
    corpus_iter: Iterable[Tuple[str, PortGraph]],
    task: str,
    store: WarehouseStore,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> Tuple[int, int]:
    """Stream ``task`` over a lazy corpus into a warehouse store.

    Entries whose ``(name, task)`` key is already in ``store`` are
    skipped *before* their graph is ever sent to a worker, so resuming an
    interrupted sweep re-pays only the corpus generator, not the tasks.
    For multi-record tasks this key belongs to the entry's *summary*
    record, which the store only registers once the whole group has
    committed — a kill mid-entry re-runs that entry in full.  Records
    are appended in corpus order as they arrive; with a deterministic
    corpus iterator the resumed dataset exports byte-identical to an
    uninterrupted run.

    Each entry's content address goes to ``store.register_graph``: the
    fingerprint and canonical relabeling land in the warehouse's
    ``graphs`` table atomically with the entry's record group, so
    service warming later joins on an index instead of re-streaming
    this corpus.

    Returns ``(ran, skipped)``: records appended and entries skipped.
    """
    skipped = 0

    def not_yet_recorded():
        nonlocal skipped
        for name, graph in corpus_iter:
            if (name, task) in store:
                skipped += 1
            else:
                store.register_graph(name, graph)
                yield name, graph

    config = EngineConfig(workers=workers, chunk_size=chunk_size)
    ran = 0
    for record in run_stream(not_yet_recorded(), task, config):
        store.append(record)
        ran += 1
    return ran, skipped


def fit_ratio(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``y = a * x``; returns (a, max relative
    deviation).  Used to check that measured advice sizes track the
    paper's envelopes (an O(.) claim passes if the ratio stays bounded)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("fit_ratio needs equal-length non-empty series")
    num = sum(x * y for x, y in zip(xs, ys))
    den = sum(x * x for x in xs)
    a = num / den if den else 0.0
    max_dev = max(
        abs(y - a * x) / (a * x) if a * x else 0.0 for x, y in zip(xs, ys)
    )
    return a, max_dev
