"""The transport-free service core: caching, canonical coordinates,
batching, metrics — and the service bench scenario."""

import random

import pytest

from repro.engine.records import record_to_json
from repro.engine.tasks import get_task
from repro.errors import (
    EngineError,
    InfeasibleGraphError,
    ReproError,
    ServiceError,
)
from repro.graphs import (
    canonical_graph,
    graph_fingerprint,
    grid_torus,
    random_tree,
    relabel_nodes,
    ring,
    to_dict,
)
from repro.service import (
    SERVICE_TASKS,
    ResultCache,
    ServiceCore,
    canonical_query_name,
)
from repro.service.api import parse_graph_payload


def relabeled(g, seed=0):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel_nodes(g, perm)


@pytest.fixture()
def core():
    return ServiceCore()


@pytest.fixture()
def tree():
    return random_tree(12, seed=3)


class TestQuery:
    def test_miss_then_hit(self, core, tree):
        r1 = core.query("index", tree)
        assert not r1.cached
        r2 = core.query("index", tree)
        assert r2.cached and r2.record == r1.record

    def test_isomorphic_query_hits_with_identical_bytes(self, core, tree):
        r1 = core.query("elect", tree)
        r2 = core.query("elect", relabeled(tree, seed=5))
        assert r2.cached
        assert record_to_json(r2.record) == record_to_json(r1.record)
        assert r2.fingerprint == r1.fingerprint

    def test_record_matches_offline_engine_record(self, core, tree):
        for task in SERVICE_TASKS:
            result = core.query(task, tree)
            offline = get_task(task)(
                canonical_query_name(result.fingerprint),
                canonical_graph(tree),
            )
            assert record_to_json(result.record) == record_to_json(offline)

    def test_orbit_collapsed_elect_is_byte_identical(self, core, tree):
        """The core serves ``elect`` through the orbit-collapsed engine;
        the offline per-node engine task must produce the same record,
        byte for byte."""
        result = core.query("elect", tree)
        assert not result.cached
        offline = get_task("elect")(
            canonical_query_name(result.fingerprint),
            canonical_graph(tree),
        )
        assert record_to_json(result.record) == record_to_json(offline)

    def test_to_canonical_translates_leader(self, core, tree):
        h = relabeled(tree, seed=8)
        result = core.query("elect", h)
        leader_canonical = result.record["leader"]
        from_canonical = {
            lab: u for u, lab in enumerate(result.to_canonical)
        }
        leader_local = from_canonical[leader_canonical]
        # the translated leader is the node the offline pipeline elects
        # on the submitted labeling (elections are anonymous)
        from repro.core import run_elect

        assert run_elect(h).leader == leader_local

    def test_unknown_task_rejected_uncounted(self, core, tree):
        with pytest.raises(ServiceError, match="unknown service task"):
            core.query("messages", tree)
        assert core.metrics()["errors"] == 0

    def test_task_failure_counted_as_error(self, core):
        with pytest.raises(InfeasibleGraphError):
            core.query("elect", ring(6))
        metrics = core.metrics()
        assert metrics["errors"] == 1 and metrics["misses"] == 0

    def test_payload_shape(self, core, tree):
        payload = core.query("quotient", tree).payload()
        assert payload["task"] == "quotient"
        assert payload["name"] == canonical_query_name(payload["fingerprint"])
        assert payload["record"]["name"] == payload["name"]
        assert sorted(payload["to_canonical"]) == list(range(tree.n))

    def test_unknown_engine_task_fails_at_construction(self):
        with pytest.raises(EngineError):
            ServiceCore(tasks=("no-such-task",))


class TestBatch:
    def test_mixed_hits_misses_duplicates(self, core, tree):
        pre = core.query("index", tree)  # pre-existing cache entry
        torus = grid_torus(3, 4)
        results = core.batch(
            [
                ("index", relabeled(tree, seed=1)),  # hit (isomorphic)
                ("index", torus),  # miss
                ("index", relabeled(torus, seed=2)),  # duplicate miss
                ("quotient", torus),  # miss, different task
            ]
        )
        assert [r.cached for r in results] == [True, False, False, False]
        assert record_to_json(results[0].record) == record_to_json(pre.record)
        assert results[1].record == results[2].record
        metrics = core.metrics()
        # honest per-item accounting: the pre-query miss plus the two
        # unique cold keys are misses; the pre-existing entry's hit is
        # a memory hit and the duplicate torus item rode the one compute
        # (an inflight hit), not a second miss
        assert metrics["hits"] == 2 and metrics["misses"] == 3
        assert metrics["memory_hits"] == 1
        assert metrics["inflight_hits"] == 1

    def test_batch_records_match_single_queries(self, tree):
        batch_core, single_core = ServiceCore(), ServiceCore()
        graphs = [tree, grid_torus(3, 3), ring(7)]
        batched = batch_core.batch([("index", g) for g in graphs])
        for g, result in zip(graphs, batched):
            assert record_to_json(result.record) == record_to_json(
                single_core.query("index", g).record
            )

    def test_batch_failure_counts_errors(self, core):
        with pytest.raises(ReproError):
            core.batch([("elect", ring(6))])
        assert core.metrics()["errors"] == 1

    def test_batch_failure_still_accounts_other_items(self, core, tree):
        """A failing task group fails the whole batch, but hits stay
        hits and records computed before the failure count as misses —
        they were cached, and the next query will hit them."""
        pre = core.query("index", tree)  # 1 miss
        with pytest.raises(ReproError):
            core.batch(
                [
                    ("index", tree),  # hit
                    ("quotient", ring(6)),  # computes fine
                    ("elect", ring(6)),  # infeasible: fails the batch
                    ("elect", ring(6)),  # duplicate failing request
                ]
            )
        metrics = core.metrics()
        assert metrics["hits"] == 1
        assert metrics["errors"] == 2  # per request, not per unique graph
        # quotient either computed before elect failed (a counted miss,
        # and a cache entry the next query hits) or never ran (an error)
        quotient = metrics["tasks"]["quotient"]
        assert quotient["misses"] + quotient["errors"] == 1
        if quotient["misses"]:
            assert core.query("quotient", ring(6)).cached

    def test_compute_bug_raises_as_itself(self, core, tree, monkeypatch):
        """A failure that is not a domain error (a bug) reaches the
        caller as itself from a batch, as from a single query, so the
        transport answers both with a 500; no in-flight entry stays."""
        from repro.service.shard import LocalBackend

        def broken(self, task, fingerprint, certificate):
            raise RuntimeError("injected")

        monkeypatch.setattr(LocalBackend, "compute", broken)
        with pytest.raises(RuntimeError, match="injected"):
            core.query("index", tree)
        with pytest.raises(RuntimeError, match="injected"):
            core.batch([("index", tree)])
        assert core._inflight == {}

    def test_batch_unknown_task_rejected_before_compute(self, core, tree):
        with pytest.raises(ServiceError):
            core.batch([("index", tree), ("nope", tree)])

    def test_cold_cache_batch_still_answers(self, tree):
        core = ServiceCore(ResultCache(capacity=0))
        results = core.batch([("index", tree), ("index", tree)])
        assert [r.cached for r in results] == [False, False]
        assert results[0].record == results[1].record


class TestBatchMetricsAccounting:
    """The honest per-item accounting the metrics sweep pinned down:
    duplicates of a cold key are one miss plus inflight hits, every item
    is charged its own latency (not the batch average), and the error
    path charges real latencies too."""

    def test_duplicate_cold_key_is_one_miss_plus_inflight_hits(self, core):
        torus = grid_torus(3, 4)
        core.batch(
            [
                ("index", torus),
                ("index", relabeled(torus, seed=1)),
                ("index", relabeled(torus, seed=2)),
            ]
        )
        metrics = core.metrics()
        assert metrics["misses"] == 1
        assert metrics["hits"] == 2 and metrics["inflight_hits"] == 2
        assert metrics["errors"] == 0

    def test_hit_latency_is_lookup_not_batch_average(self):
        """Pin the per-item charge directly: one pre-cached hit batched
        with one cold compute must record a hit latency far below the
        miss latency (the old code charged both the same average)."""
        core = ServiceCore()
        tree = random_tree(12, seed=3)
        core.query("index", tree)
        index_warmup_s = core.metrics()["tasks"]["index"]["latency_s"]
        core.batch([("index", tree), ("elect", random_tree(16, seed=7))])
        tasks = core.metrics()["tasks"]
        hit_s = tasks["index"]["latency_s"] - index_warmup_s
        miss_s = tasks["elect"]["latency_s"]
        assert tasks["index"]["hits"] == 1 and tasks["elect"]["misses"] == 1
        assert 0 < hit_s < miss_s

    def test_error_path_charges_latency(self, core, tree):
        """On a failed batch the surviving hit and the errors must carry
        nonzero latency (the old error path recorded 0.0 for all)."""
        core.query("index", tree)
        index_warmup_s = core.metrics()["tasks"]["index"]["latency_s"]
        with pytest.raises(ReproError):
            core.batch([("index", tree), ("elect", ring(6))])
        tasks = core.metrics()["tasks"]
        assert tasks["index"]["hits"] == 1 and tasks["index"]["misses"] == 1
        assert tasks["index"]["latency_s"] > index_warmup_s
        assert tasks["elect"]["errors"] == 1
        assert tasks["elect"]["latency_s"] > 0


class TestComputeLifecycle:
    def test_view_caches_cleared_after_each_query(self, core):
        """One query is the service's view-cache lifetime (the engine's
        one-chunk discipline): a long-running server must not grow the
        global intern table per distinct query graph."""
        from repro.views.view import intern_table_size

        for seed in range(4):
            core.query("elect", random_tree(14, seed=seed * 3))
        assert intern_table_size() == 0

    def test_view_caches_cleared_even_on_task_failure(self, core):
        from repro.views.view import intern_table_size

        with pytest.raises(InfeasibleGraphError):
            core.query("elect", ring(8))
        assert intern_table_size() == 0

    def test_concurrent_mixed_traffic_is_consistent(self):
        """Single queries and batches race from many threads, switching
        often; every answer must equal the serial reference (the local
        backend's lock keeps the global view caches coherent across
        request and batch-drain threads)."""
        import sys
        import threading

        graphs = [random_tree(12 + i, seed=i) for i in range(4)]
        reference = {
            i: ServiceCore().query("elect", g).record
            for i, g in enumerate(graphs)
        }
        core = ServiceCore()
        failures = []

        def single(i):
            try:
                record = core.query("elect", graphs[i]).record
                if record != reference[i]:
                    failures.append(("single", i, record))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(("single", i, repr(exc)))

        def batch():
            try:
                results = core.batch([("elect", g) for g in graphs])
                for i, result in enumerate(results):
                    if result.record != reference[i]:
                        failures.append(("batch", i, result.record))
            except Exception as exc:  # noqa: BLE001
                failures.append(("batch", None, repr(exc)))

        threads = [
            threading.Thread(target=single, args=(i % 4,)) for i in range(8)
        ] + [threading.Thread(target=batch) for _ in range(3)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestMetrics:
    def test_totals_sum_task_counters(self, core, tree):
        core.query("index", tree)
        core.query("index", tree)
        core.query("quotient", tree)
        metrics = core.metrics()
        assert metrics["hits"] == 1 and metrics["misses"] == 2
        assert metrics["tasks"]["index"]["hits"] == 1
        assert metrics["tasks"]["quotient"]["misses"] == 1
        assert metrics["latency_s"] > 0
        assert metrics["cache"]["memory_entries"] == 2

    def test_uptime_advances(self, core):
        assert core.metrics()["uptime_s"] >= 0


class TestGraphPayload:
    def test_plain_dict(self, tree):
        assert parse_graph_payload(to_dict(tree)) == tree

    def test_emit_envelope(self, tree):
        assert (
            parse_graph_payload({"name": "x", "graph": to_dict(tree)}) == tree
        )

    @pytest.mark.parametrize(
        "payload",
        [
            None, 17, [], {"edges": "nope"}, {"n": 3}, {"graph": None},
            # malformed edge fields: TypeError/ValueError under the parse
            {"n": 2, "edges": 5},
            {"n": 2, "edges": [7]},
            {"n": 2, "edges": [[0, 0, 1, "a"]]},
            {"n": 2, "edges": [[None, 0, 1, 0]]},
            # fields int() would truncate into a different graph
            {"n": 3, "edges": [[0.9, 0, 1.7, "0"], [1, 1, 2, 0], [2, 1, 0, 1]]},
            {"n": True, "edges": []},
            {"n": 3.0, "edges": [[0, 0, 1, 0], [1, 1, 2, 0], [2, 1, 0, 1]]},
            {"n": "3", "edges": [[0, 0, 1, 0], [1, 1, 2, 0], [2, 1, 0, 1]]},
            {"n": 2, "edges": [[0, 0, True, 0]]},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ServiceError):
            parse_graph_payload(payload)

    def test_disconnected_rejected(self):
        with pytest.raises(ServiceError, match="invalid graph"):
            parse_graph_payload({"n": 4, "edges": [[0, 0, 1, 0]]})


class TestQuotientTask:
    def test_record_shape(self):
        record = get_task("quotient")("t", grid_torus(3, 3))
        assert record["feasible"] is False
        assert record["num_classes"] == 1 and record["class_sizes"] == [9]
        feasible = get_task("quotient")("t", random_tree(10, seed=1))
        assert feasible["feasible"] is True
        assert feasible["class_sizes"] == [1] * 10


def test_bench_service_scenario_quick():
    from repro.analysis.bench import SCENARIOS, make_bench_record
    from repro.analysis.bench import validate_bench_record

    cases = SCENARIOS["service"](True)
    names = [c["case"] for c in cases]
    assert names == ["cold-single", "warm-single", "cold-batch", "warm-batch"]
    by_name = {c["case"]: c for c in cases}
    for mode in ("single", "batch"):
        assert by_name[f"warm-{mode}"]["speedup_vs_cold"] > 1
    record = make_bench_record("service", cases, quick=True)
    validate_bench_record(record)


def test_bench_service_load_scenario_quick():
    """The load scenario must cover both compute modes, both cache
    temperatures and the whole concurrency sweep, with coherent latency
    stats and the speedup field the CI gate reads on the sharded cases.
    (No speedup *bar* here: on a 1-CPU box sharding measures ~1x — the
    ≥2x gate lives in CI's service-load-smoke on a multi-core runner.)"""
    from repro.analysis.bench import (
        SCENARIOS,
        make_bench_record,
        validate_bench_record,
    )

    cases = SCENARIOS["service-load"](True)
    names = [c["case"] for c in cases]
    assert names == [
        "cold-inproc-c1", "cold-inproc-c8",
        "cold-shard-c1", "cold-shard-c8",
        "warm-inproc-c1", "warm-inproc-c8",
        "warm-shard-c1", "warm-shard-c8",
    ]
    for case in cases:
        assert case["seconds"] > 0 and case["qps"] > 0
        assert 0 < case["p50_ms"] <= case["p99_ms"]
        assert case["queries"] == 16 and case["clients"] in (1, 8)
        if "shard" in case["case"]:
            assert case["shards"] >= 2
            assert case["speedup_vs_inproc"] > 0
        else:
            assert case["shards"] == 0
            assert "speedup_vs_inproc" not in case
    record = make_bench_record("service-load", cases, quick=True)
    validate_bench_record(record)


def test_bench_elect_orbit_scenario_quick():
    """The elect-orbit scenario must carry the in-run per-node
    comparison the CI gate reads, and the vertex-transitive cases must
    clear the gate's 3x bar (the quick cases are sized so even a noisy
    CI box clears it with slack — full mode measures 20-40x)."""
    from repro.analysis.bench import (
        SCENARIOS,
        make_bench_record,
        validate_bench_record,
    )

    cases = SCENARIOS["elect-orbit"](True)
    assert {c["family"] for c in cases} == {"vertex-transitive", "lifts"}
    for case in cases:
        assert case["orbits"] <= case["n"]
        assert case["speedup_vs_pernode"] > 0
        if case["family"] == "vertex-transitive":
            assert case["orbits"] == 1
            assert case["speedup_vs_pernode"] >= 3
    record = make_bench_record("elect-orbit", cases, quick=True)
    validate_bench_record(record)
