"""Property tests for the flat-kernel layer.

The CSR arrays, the class-splitting refinement, the dense view ranks and
the batched engines are all *re-implementations* of semantics that other
modules already define; these tests pin each one to its specification:

* :class:`~repro.graphs.csr.CSRAdjacency` is structurally identical to
  the PortGraph API it flattens, and cached per instance;
* CSR refinement levels are tuple-identical to first-occurrence numbering
  of the interned views of :func:`view_levels` — on every connected graph
  with <= 5 nodes (two port assignments each) and on corpus prefixes;
* the dense-rank order equals the recursive comparison (kept in
  :mod:`repro.views.order` as the executable specification), and stays
  correct when later graphs intern new views and force a re-rank;
* ``clear_view_caches`` resets the rank tables and the depth registry
  (see also ``test_view_cache_lifecycle.py``);
* the builder's amortized next-free-port hint agrees with a naive scan
  under adversarial explicit/auto interleavings;
* the engines keep their termination/identity contracts under the
  undecided-counter and reused-inbox rewrite;
* the ``repro-bench/1`` record schema validator accepts what the harness
  emits and rejects malformed records.
"""

from __future__ import annotations

import functools
import itertools
import random

import networkx as nx
import pytest

from repro.corpus import get_family
from repro.engine import EngineConfig, run_experiments, run_stream
from repro.errors import GraphStructureError, PortNumberingError, ReproError
from repro.graphs import csr_of, from_networkx, grid_torus, random_tree, ring
from repro.graphs.port_graph import PortGraphBuilder
from repro.lowerbounds import hk_graph
from repro.sim import run_sync
from repro.views import (
    clear_view_caches,
    sort_views,
    view_compare,
    view_levels,
    view_min,
)
from repro.views.election_index import _partition_signature
from repro.views.order import _view_compare_recursive
from repro.views.refinement import refinement_levels, stable_partition


def _small_connected_instances():
    instances = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not (2 <= n <= 5):
            continue
        if atlas_graph.number_of_edges() == 0 or not nx.is_connected(atlas_graph):
            continue
        gid = f"atlas-{atlas_graph.name or id(atlas_graph)}"
        instances.append((f"{gid}-canonical", from_networkx(atlas_graph)))
        instances.append((f"{gid}-seeded", from_networkx(atlas_graph, seed=11)))
    return instances


SMALL_INSTANCES = _small_connected_instances()


def _corpus_prefix_instances():
    entries = []
    for family, count in (
        ("tori", 3),
        ("random-trees", 4),
        ("caterpillars", 3),
        ("lifts", 3),
    ):
        entries.extend(get_family(family).generate(count, seed=0))
    return entries


CORPUS_INSTANCES = _corpus_prefix_instances()


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "g",
    [ring(7), hk_graph(4), grid_torus(3, 4), random_tree(23, seed=5)],
    ids=["ring7", "hk4", "torus3x4", "tree23"],
)
def test_csr_matches_port_graph(g):
    csr = csr_of(g)
    assert csr.n == g.n
    assert csr.offsets[0] == 0
    assert csr.offsets[-1] == 2 * g.num_edges
    for v in g.nodes():
        row = g.ports(v)
        start, end = csr.offsets[v], csr.offsets[v + 1]
        assert csr.degrees[v] == g.degree(v) == end - start
        assert csr.neighbor_tuples[v] == tuple(u for u, _ in row)
        assert csr.remote_port_tuples[v] == tuple(q for _, q in row)
        assert tuple(csr.neighbors[start:end]) == csr.neighbor_tuples[v]
        assert tuple(csr.remote_ports[start:end]) == csr.remote_port_tuples[v]
    # port keys: dense, and injective in (degree, remote-port tuple)
    assert 0 < csr.num_port_keys <= g.n
    assert set(csr.port_keys) == set(range(csr.num_port_keys))
    for u in g.nodes():
        for v in g.nodes():
            same_static = (
                csr.remote_port_tuples[u] == csr.remote_port_tuples[v]
            )
            assert (csr.port_keys[u] == csr.port_keys[v]) == same_static


def test_csr_is_cached_per_instance():
    g = ring(9)
    assert csr_of(g) is csr_of(g)
    # distinct (even structurally equal) graphs get their own view
    assert csr_of(g) is not csr_of(ring(9))


# ----------------------------------------------------------------------
# CSR refinement == interned-View refinement
# ----------------------------------------------------------------------
def _assert_refinement_parity(g, max_depth):
    view_it = view_levels(g, max_depth=max_depth)
    array_it = refinement_levels(g, max_depth=max_depth)
    for level, sig in itertools.zip_longest(view_it, array_it):
        assert level is not None and sig is not None
        assert sig == _partition_signature(level)


@pytest.mark.parametrize("name_g", SMALL_INSTANCES, ids=lambda p: p[0])
def test_refinement_matches_views_on_all_small_graphs(name_g):
    _, g = name_g
    _assert_refinement_parity(g, max_depth=g.n + 2)


@pytest.mark.parametrize("name_g", CORPUS_INSTANCES, ids=lambda p: p[0])
def test_refinement_matches_views_on_corpus_prefixes(name_g):
    _, g = name_g
    stable = stable_partition(g)
    # cover every level the refinement can distinguish, plus the repeat
    _assert_refinement_parity(g, max_depth=stable.depth + 2)
    # and the stabilized summary agrees with the view-side numbering
    levels = view_levels(g, max_depth=stable.depth)
    final = None
    for final in levels:
        pass
    assert stable.signature == _partition_signature(final)
    assert stable.num_classes == len(set(stable.signature))


# ----------------------------------------------------------------------
# dense ranks == the recursive order specification
# ----------------------------------------------------------------------
def _levels_views(g, depth):
    out = []
    for level in view_levels(g, max_depth=depth):
        out.append(level)
    return out


def _assert_order_parity(views):
    distinct = list(dict.fromkeys(views))
    ranked = sort_views(distinct)
    reference = sorted(
        distinct, key=functools.cmp_to_key(_view_compare_recursive)
    )
    assert ranked == reference
    for a, b in itertools.combinations(distinct[:20], 2):
        got = view_compare(a, b)
        want = _view_compare_recursive(a, b)
        assert got == want
        assert view_compare(b, a) == -want


@pytest.mark.parametrize(
    "name_g", SMALL_INSTANCES[::3], ids=lambda p: p[0]
)
def test_rank_order_matches_recursive_on_small_graphs(name_g):
    _, g = name_g
    for level in _levels_views(g, depth=3):
        _assert_order_parity(level)


@pytest.mark.parametrize("name_g", CORPUS_INSTANCES[::2], ids=lambda p: p[0])
def test_rank_order_matches_recursive_on_corpus_prefixes(name_g):
    _, g = name_g
    depth = min(stable_partition(g).depth + 1, 4)
    for level in _levels_views(g, depth):
        _assert_order_parity(level)


def test_rank_order_stable_when_new_views_force_a_rerank():
    """Interning views of a *second* graph re-ranks each depth; the
    relative order of the first graph's views must not move (and must
    still equal the recursive specification)."""
    clear_view_caches()
    first = _levels_views(ring(8), depth=3)
    pairs_before = {}
    for level in first:
        distinct = list(dict.fromkeys(level))
        for a, b in itertools.combinations(distinct, 2):
            pairs_before[(id(a), id(b))] = view_compare(a, b)
    # force re-ranks at every depth with fresh structure
    _levels_views(hk_graph(5), depth=3)
    _levels_views(grid_torus(3, 5), depth=3)
    for level in first:
        distinct = list(dict.fromkeys(level))
        for a, b in itertools.combinations(distinct, 2):
            assert view_compare(a, b) == pairs_before[(id(a), id(b))]
            assert view_compare(a, b) == _view_compare_recursive(a, b)
    clear_view_caches()


def test_view_min_safe_on_view_creating_iterables():
    """Regression: a generator that interns new views while ``view_min``
    consumes it must not poison the comparison — the mid-iteration
    re-rank used to shift rank integers under a cached best key."""
    from repro.views.view import View

    clear_view_caches()
    bigger = View.make(1, ((0, View.make(2, ())),))

    def creating():
        yield bigger
        # interning this depth-1 view re-ranks depth 1: it sorts before
        # `bigger` (child degree 1 < 2), stealing rank 0
        yield View.make(1, ((0, View.make(1, ())),))

    winner = view_min(creating())
    assert _view_compare_recursive(winner, bigger) == -1
    clear_view_caches()


def test_mixed_depth_comparisons_order_by_depth():
    clear_view_caches()
    levels = _levels_views(ring(6), depth=2)
    shallow, deep = levels[0][0], levels[2][0]
    assert view_compare(shallow, deep) == -1
    assert view_compare(deep, shallow) == 1
    assert sort_views([deep, shallow]) == [shallow, deep]
    clear_view_caches()


# ----------------------------------------------------------------------
# builder next-free-port hint
# ----------------------------------------------------------------------
def test_next_free_port_skips_explicitly_taken_ports():
    b = PortGraphBuilder(4)
    b.add_edge(0, 2, 1, 0)  # explicit port above the hint
    assert b.next_free_port(0) == 0
    b.add_edge(0, 0, 2, 0)
    assert b.next_free_port(0) == 1
    b.add_edge(0, 1, 3, 0)
    assert b.next_free_port(0) == 3  # 0,1,2 all taken now
    g = b.build()
    assert g.degree(0) == 3


def test_next_free_port_matches_naive_scan_under_fuzz():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randint(4, 10)
        b = PortGraphBuilder(n)
        for _ in range(rng.randint(3, 14)):
            u, v = rng.sample(range(n), 2)
            if b.has_edge(u, v):
                continue
            if rng.random() < 0.5:
                b.add_edge_auto(u, v)
            else:
                pu = rng.randint(0, 8)
                pv = rng.randint(0, 8)
                if pu in dict(
                    (p, None) for p in b.used_ports(u)
                ) or pv in dict((p, None) for p in b.used_ports(v)):
                    continue
                b.add_edge(u, pu, v, pv)
            for w in range(n):
                used = set(b.used_ports(w))
                naive = 0
                while naive in used:
                    naive += 1
                assert b.next_free_port(w) == naive


def test_large_auto_built_star_is_fast_and_correct():
    # the O(d^2) scan made hub-heavy builds quadratic; the hint makes
    # this linear — and the result identical
    b = PortGraphBuilder(1)
    hub = 0
    for _ in range(2000):
        leaf = b.add_node()
        b.add_edge_auto(hub, leaf)
    g = b.build()
    assert g.degree(hub) == 2000
    assert sorted(
        g.neighbor(hub, p)[0] for p in range(2000)
    ) == list(range(1, 2001))


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def test_serial_fast_path_records_equal_parallel_records():
    corpus = list(get_family("caterpillars").generate(8, seed=3))
    serial = run_experiments(corpus, task="index", workers=1, chunk_size=3)
    parallel = run_experiments(corpus, task="index", workers=2, chunk_size=3)
    assert serial == parallel
    streamed = list(
        run_stream(iter(corpus), "index", EngineConfig(workers=1, chunk_size=3))
    )
    assert streamed == serial
    # the serial fast path must not pin CSR arrays on the caller's graphs
    # (the chunk-bounded memory contract)
    assert all(g._csr_cache is None for _, g in corpus)


def test_sync_engine_terminates_on_compose_phase_outputs():
    """The undecided counter must catch outputs produced during compose,
    not only during setup/deliver."""

    class ComposeOutputter:
        def setup(self, ctx):
            pass

        def compose(self, ctx):
            if not ctx.has_output:
                ctx.output(("early",))
            return None

        def deliver(self, ctx, inbox):
            pass

    result = run_sync(ring(5), ComposeOutputter)
    assert result.rounds == 1
    assert set(result.outputs.values()) == {("early",)}


def test_async_engine_rejects_bad_ports():
    from repro.sim.async_model import run_async

    class BadSender:
        def setup(self, ctx):
            pass

        def compose(self, ctx):
            return {ctx.degree: ("oops", 0)}  # one past the last port

        def deliver(self, ctx, inbox):
            pass

    with pytest.raises(PortNumberingError):
        run_async(ring(4), BadSender)


# ----------------------------------------------------------------------
# bench record schema
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(schema="nope/9"),
        lambda r: r.update(kind="prose"),
        lambda r: r.update(scenario=""),
        lambda r: r.update(quick="yes"),
        lambda r: r.update(env={}),
        lambda r: r.update(cases=[]),
        lambda r: r["cases"][0].update(seconds=-1),
        lambda r: r["cases"][0].update(repeats=0),
        lambda r: r["cases"][0].update(speedup="fast"),
        lambda r: r["cases"][0].pop("case"),
        lambda r: r["cases"][0].update(speedup_vs_seed="fast"),
    ],
)
def test_bench_record_validator_rejects_malformed(mutate):
    from repro.analysis.bench import (
        make_bench_record,
        make_table_record,
        validate_bench_record,
    )

    record = make_bench_record(
        "refinement",
        [{"case": "case-a", "seconds": 0.25, "repeats": 3}],
        quick=True,
    )
    validate_bench_record(record)
    validate_bench_record(make_table_record("legacy", "Title", "body text"))
    mutate(record)
    with pytest.raises(ReproError):
        validate_bench_record(record)


@pytest.mark.parametrize("value", ["true", "NaN", "Infinity"])
@pytest.mark.parametrize(
    "field",
    ["seconds", "repeats", "speedup_vs_seed", "speedup_vs_cold",
     "baseline_seconds", "speedup"],
)
def test_bench_record_validator_refuses_booleans_and_non_finite(field, value):
    """``bool`` is an ``int`` subclass, and ``json.loads`` reads ``NaN``
    and ``Infinity``: none of them is a timing or a ratio."""
    import json

    from repro.analysis.bench import make_bench_record, validate_bench_record

    record = make_bench_record(
        "strict",
        [{"case": "c", "seconds": 0.5, "repeats": 2, "speedup_vs_seed": 4.0}],
        quick=True,
    )
    validate_bench_record(record)
    record["cases"][0][field] = json.loads(value)
    with pytest.raises(ReproError, match=f"cases\\[0\\]\\.{field} must be"):
        validate_bench_record(record)


def test_fresh_bench_records_carry_no_recorded_baseline_keys(tmp_path):
    import json

    from repro.analysis.bench import (
        make_bench_record,
        make_table_record,
        run_bench,
    )

    made = make_bench_record(
        "strict",
        [{"case": "c", "seconds": 0.5, "repeats": 1, "speedup_vs_seed": 4.0}],
        quick=True,
    )
    (path,) = run_bench(["refinement"], quick=True, out_dir=str(tmp_path))
    with open(path, "r", encoding="utf-8") as fh:
        ran = json.load(fh)
    table = make_table_record("legacy", "Title", "body text")
    # the keys of records that divided by timings from an earlier run
    for record in (made, ran, table):
        assert "baseline" not in record
        for case in record["cases"]:
            assert not {"baseline_seconds", "speedup"} & case.keys()


def test_bench_table_shows_the_in_run_ratio():
    from repro.analysis.bench import (
        bench_table,
        make_bench_record,
        make_table_record,
    )

    record = make_bench_record(
        "strict",
        [
            {"case": "wire", "seconds": 0.25, "repeats": 2,
             "seed_seconds": 7.305, "speedup_vs_seed": 29.22},
            {"case": "warm", "seconds": 0.5, "repeats": 1,
             "speedup_vs_cold": 21.0},
            {"case": "zero", "seconds": 0.0, "repeats": 1,
             "speedup_vs_pernode": None},
            {"case": "plain", "seconds": 0.125, "repeats": 1},
        ],
        quick=True,
    )
    columns, rows = bench_table(record)
    assert columns == ["case", "seconds", "in-run ratio"]
    assert rows == [
        ("wire", "0.2500", "29.22x seed"),
        ("warm", "0.5000", "21.00x cold"),
        ("zero", "0.0000", "-"),
        ("plain", "0.1250", "-"),
    ]
    _, rows = bench_table(make_table_record("legacy", "Title", "body"))
    assert rows == [("legacy", "-", "-")]


def test_bench_check_dir_gates_on_malformed_records(tmp_path):
    from repro.analysis.bench import check_bench_dir, run_bench

    out = tmp_path / "out"
    with pytest.raises(ReproError):
        check_bench_dir(str(out))  # missing directory
    written = run_bench(["refinement"], quick=True, out_dir=str(out))
    assert [p.split("/")[-1] for p in written] == ["BENCH_refinement.json"]
    assert check_bench_dir(str(out)) == written
    (out / "BENCH_broken.json").write_text('{"schema": "nope"}')
    with pytest.raises(ReproError):
        check_bench_dir(str(out))


def test_bench_unknown_scenario_fails_fast(tmp_path):
    from repro.analysis.bench import run_bench

    with pytest.raises(ReproError):
        run_bench(["no-such-scenario"], quick=True, out_dir=str(tmp_path))
