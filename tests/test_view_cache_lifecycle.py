"""The view-cache lifecycle contract the engine relies on.

Within one corpus entry, interning must be in full force (structurally
equal views are one object, across graphs); after every entry,
``clear_view_caches()`` must actually release every process-local table —
the intern table, the truncation cache, the per-depth view registry, the
order rank tables and the B^1 encoding cache — so a long sweep's memory
is bounded by its largest entry, and no entry of a chunk pays to re-rank
the views of the entries before it.
"""

from __future__ import annotations

from repro.coding import Bits
from repro.engine import run_experiments
from repro.graphs import ring
from repro.lowerbounds import hk_graph
from repro.views import (
    clear_view_caches,
    encode_b1,
    truncate_view,
    view_compare,
    views_of_graph,
)
from repro.views import encoding as encoding_mod
from repro.views import order as order_mod
from repro.views import view as view_mod
from repro.views import wire as wire_mod
from repro.views.view import intern_table_size


def test_interning_survives_within_a_batch():
    clear_view_caches()
    # same graph, two computations: every view is pointer-shared
    g = ring(8)
    first = views_of_graph(g, 2)
    second = views_of_graph(g, 2)
    assert all(a is b for a, b in zip(first, second))
    # interning is cross-graph: a ring's views recur inside a larger ring
    big = views_of_graph(ring(12), 2)
    assert first[0] is big[0]
    assert intern_table_size() > 0


def test_clear_view_caches_frees_every_table():
    clear_view_caches()
    g = ring(6)
    views = views_of_graph(g, 3)
    truncate_view(views[0], 1)
    # distinct views (a ring node vs a lollipop node), so the comparison
    # cannot short-circuit on identity and must populate the cache
    other = views_of_graph(hk_graph(4), 3)[0]
    assert view_compare(views[0], other) != 0
    encode_b1(views_of_graph(g, 1)[0])
    from repro.views.wire import encode_view_wire

    encode_view_wire(views[0])
    assert view_mod._INTERN
    assert view_mod._TRUNCATE_CACHE
    assert view_mod._BY_DEPTH
    assert order_mod._RANK
    assert order_mod._RANKED_COUNT
    assert encoding_mod._B1_CACHE
    assert wire_mod._ENCODE_CACHE
    assert wire_mod._DOUBLED_CACHE
    assert wire_mod._DECODE_CACHE
    assert wire_mod._SUBENC_CACHE

    clear_view_caches()
    assert intern_table_size() == 0
    assert not view_mod._INTERN
    assert not view_mod._TRUNCATE_CACHE
    assert not view_mod._BY_DEPTH
    assert not order_mod._RANK
    assert not order_mod._RANKED_COUNT
    assert not encoding_mod._B1_CACHE
    assert not wire_mod._ENCODE_CACHE
    assert not wire_mod._DOUBLED_CACHE
    assert not wire_mod._DECODE_CACHE
    assert not wire_mod._SUBENC_CACHE


def test_clear_drops_live_message_planes():
    """Strict-mode message planes hold interned views keyed on identity;
    a plane surviving a clear would hand stale objects into a fresh run."""
    from repro.core import compute_advice
    from repro.core.elect import ElectAlgorithm
    from repro.graphs import lollipop
    from repro.sim import MessagePlane, run_sync, wire_wrapped

    clear_view_caches()
    g = lollipop(4, 3)
    bundle = compute_advice(g)
    plane = MessagePlane()
    run_sync(g, wire_wrapped(ElectAlgorithm, plane), advice=bundle.bits)
    assert plane._encode_cache and plane._decode_cache
    clear_view_caches()
    assert not plane._encode_cache
    assert not plane._decode_cache


def test_clear_drops_the_tracer_dag_size_cache():
    """Regression: the tracer's DAG-size cache keys on id(view); leaving
    it populated across a clear lets recycled ids misprice *different*
    views, which made `messages` records depend on process history."""
    from repro.sim import trace as trace_mod
    from repro.sim.trace import view_dag_size

    clear_view_caches()
    view_dag_size(views_of_graph(ring(6), 3)[0])
    assert trace_mod._DAG_SIZE_CACHE
    clear_view_caches()
    assert not trace_mod._DAG_SIZE_CACHE


def test_messages_records_do_not_depend_on_chunk_history():
    """The engine purity contract for the `messages` task: the same graph
    must produce the same record whether measured alone or after other
    graphs ran (and cleared caches) in the same process."""
    from repro.corpus import iter_corpus

    corpus = list(iter_corpus("caterpillars:10,seed=8,max_spine=20"))
    solo = run_experiments([corpus[8]], task="messages")
    chunked = run_experiments(corpus, task="messages", chunk_size=4)
    assert solo[0] == chunked[8]


def test_rebuilt_views_are_fresh_but_equivalent():
    clear_view_caches()
    g = ring(8)
    before = views_of_graph(g, 2)
    encoded_before = encode_b1(views_of_graph(g, 1)[0])
    clear_view_caches()
    after = views_of_graph(g, 2)
    # fresh objects (never mix views across a clear) ...
    assert all(a is not b for a, b in zip(before, after))
    # ... but structurally the same computation
    assert [v.degree for v in before] == [v.degree for v in after]
    assert [v.depth for v in before] == [v.depth for v in after]
    assert isinstance(encoded_before, Bits)
    assert encode_b1(views_of_graph(g, 1)[0]) == encoded_before


def test_engine_chunks_bound_the_intern_table():
    """The serial path runs the identical chunk runner as workers do, so a
    sweep leaves no interned views behind — the table is bounded by one
    chunk, not the whole corpus."""
    clear_view_caches()
    corpus = [(f"hk-{k}", hk_graph(k)) for k in (4, 5, 6)]
    records = run_experiments(corpus, task="elect", workers=1, chunk_size=1)
    assert len(records) == 3
    assert intern_table_size() == 0


def test_every_entry_of_a_chunk_starts_with_empty_caches(monkeypatch):
    """The caches live one entry, not one chunk: inside a chunk of 8, a
    task that looks at the intern table when it starts finds it empty
    for every entry, so no entry pays for the views of the ones before."""
    from repro.engine import tasks as tasks_mod
    from repro.graphs import random_tree

    seen = []

    def probe(name, g):
        seen.append(intern_table_size())
        views_of_graph(g, 3)  # interns the entry's views
        return {"name": name}

    monkeypatch.setitem(tasks_mod.TASKS, "intern-probe", probe)
    clear_view_caches()
    corpus = [(f"tree-{k}", random_tree(12, seed=k)) for k in range(8)]
    run_experiments(corpus, task="intern-probe", workers=1, chunk_size=8)
    assert seen == [0] * 8
    assert intern_table_size() == 0
