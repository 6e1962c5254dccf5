"""The fingerprint-sharded service: deterministic routing, byte-identical
answers across compute modes, in-flight deduplication, worker failure
mapping and recovery."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.engine.records import record_to_json
from repro.errors import InfeasibleGraphError, ReproError, ServiceError
from repro.graphs import (
    graph_fingerprint,
    grid_torus,
    random_tree,
    relabel_nodes,
    ring,
)
from repro.service import ResultCache, ServiceCore, ShardPool, shard_of
from repro.service.shard import LocalBackend


@pytest.fixture()
def sharded():
    core = ServiceCore(shards=2)
    yield core
    core.close()


class TestRouting:
    def test_pinned_values(self):
        """The route is int(fp[:16], 16) % N — pinned so a refactor
        cannot silently re-home every cached workload's shard."""
        assert shard_of("0" * 64, 4) == 0
        assert shard_of("f" * 64, 4) == int("f" * 16, 16) % 4
        assert shard_of("00000000000000010000", 7) == 1
        for n in (1, 2, 3, 8):
            assert 0 <= shard_of(graph_fingerprint(random_tree(9, seed=1)), n) < n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ServiceError, match="num_shards"):
            shard_of("ab" * 32, 0)
        with pytest.raises(ServiceError, match="fingerprint"):
            shard_of("not-hex!", 4)

    def test_same_graph_same_shard_across_processes(self):
        """Restart determinism: a fresh interpreter — with a different
        hash salt — routes the same graph to the same shard.  (This is
        why the route is arithmetic on the digest, not ``hash()``.)"""
        g = random_tree(11, seed=4)
        fingerprint = graph_fingerprint(g)
        local = shard_of(fingerprint, 8)
        code = (
            "from repro.graphs import random_tree, graph_fingerprint\n"
            "from repro.service import shard_of\n"
            "fp = graph_fingerprint(random_tree(11, seed=4))\n"
            "print(fp, shard_of(fp, 8))\n"
        )
        for salt in ("12345", "54321"):
            env = dict(os.environ, PYTHONHASHSEED=salt)
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.split()
            assert out == [fingerprint, str(local)]

    def test_isomorphic_graphs_share_a_shard(self):
        g = random_tree(13, seed=6)
        h = relabel_nodes(g, list(reversed(range(g.n))))
        assert shard_of(graph_fingerprint(g), 5) == shard_of(
            graph_fingerprint(h), 5
        )


class TestShardedParity:
    def test_query_byte_identical_to_inprocess(self, sharded):
        inproc = ServiceCore()
        trees = [random_tree(12, seed=3), random_tree(15, seed=8)]
        cases = [
            (task, g) for task in ("elect", "index", "advice", "quotient")
            for g in trees
        ] + [("index", ring(7)), ("quotient", ring(7))]
        for task, g in cases:
            a = sharded.query(task, g)
            b = inproc.query(task, g)
            assert json.dumps(a.payload(), sort_keys=True) == json.dumps(
                b.payload(), sort_keys=True
            )

    def test_isomorphic_query_hits_shared_cache(self, sharded):
        g = random_tree(12, seed=3)
        r1 = sharded.query("elect", g)
        r2 = sharded.query("elect", relabel_nodes(g, list(reversed(range(g.n)))))
        assert not r1.cached and r2.cached
        assert record_to_json(r1.record) == record_to_json(r2.record)
        metrics = sharded.metrics()
        assert metrics["misses"] == 1 and metrics["memory_hits"] == 1

    def test_batch_byte_identical_to_inprocess(self, sharded):
        inproc = ServiceCore()
        requests = [
            ("index", random_tree(12, seed=3)),
            ("elect", random_tree(14, seed=5)),
            ("index", grid_torus(3, 4)),
            ("index", relabel_nodes(grid_torus(3, 4), list(range(12)))),
            ("quotient", ring(6)),
        ]
        a = sharded.batch(requests)
        b = inproc.batch(requests)
        assert [
            json.dumps(r.payload(), sort_keys=True) for r in a
        ] == [json.dumps(r.payload(), sort_keys=True) for r in b]
        # duplicate cold keys dedup identically in both modes
        assert sharded.metrics()["inflight_hits"] == 1
        assert inproc.metrics()["inflight_hits"] == 1

    def test_task_failure_maps_to_original_error_class(self, sharded):
        """An infeasible elect fails inside a worker process; the parent
        re-raises the *domain* error by name, so the HTTP layer still
        maps it to 422 with the right error class."""
        with pytest.raises(InfeasibleGraphError, match="infeasible"):
            sharded.query("elect", ring(6))
        metrics = sharded.metrics()
        assert metrics["errors"] == 1 and metrics["misses"] == 0

    def test_shards_surface_in_metrics_and_healthz(self, sharded):
        assert sharded.metrics()["shards"] == 2
        assert ServiceCore().metrics()["shards"] == 0
        assert sharded.backend.alive() == [True, True]

    def test_negative_shards_rejected(self):
        with pytest.raises(ServiceError, match="shards"):
            ServiceCore(shards=-1)


class TestWorkerFailure:
    def test_dead_worker_fails_one_query_then_recovers(self):
        g = random_tree(12, seed=3)
        core = ServiceCore(ResultCache(capacity=0), shards=2)
        try:
            shard = core.backend.shard_of(graph_fingerprint(g))
            victim, _conn = core.backend._workers[shard]
            victim.terminate()
            victim.join(5)
            with pytest.raises(ServiceError, match="worker died"):
                core.query("elect", g)
            # the shard respawned: the same query now computes fine
            result = core.query("elect", g)
            assert not result.cached
            reference = ServiceCore().query("elect", g)
            assert record_to_json(result.record) == record_to_json(
                reference.record
            )
        finally:
            core.close()

    def test_closed_pool_rejects_computes(self):
        pool = ShardPool(2)
        pool.close()
        with pytest.raises(ServiceError, match="closed") as closed:
            pool.compute("index", "ab" * 32, "{}")
        # retryable, as a dying worker is: the HTTP edge answers 503
        assert closed.value.http_status == 503
        pool.close()  # idempotent


class TestInflightDedup:
    def test_concurrent_cold_queries_compute_once(self, monkeypatch):
        """N threads race the same cold fingerprint.  The leader's
        compute is gated until every thread has joined the in-flight
        entry, so the schedule is deterministic: exactly one compute,
        one miss, N-1 inflight hits, byte-identical records for all."""
        n_threads = 6
        core = ServiceCore()
        g = random_tree(14, seed=9)
        joined = []
        all_joined = threading.Event()
        real_join = ServiceCore._join_inflight

        def counting_join(self, key):
            flight, leader = real_join(self, key)
            joined.append(leader)
            if len(joined) >= n_threads:
                all_joined.set()
            return flight, leader

        real_compute = LocalBackend.compute
        computes = []

        def gated_compute(self, task, fingerprint, certificate):
            assert all_joined.wait(30), "threads never all joined"
            computes.append(task)
            return real_compute(self, task, fingerprint, certificate)

        monkeypatch.setattr(ServiceCore, "_join_inflight", counting_join)
        monkeypatch.setattr(LocalBackend, "compute", gated_compute)

        results = [None] * n_threads
        def run(i):
            results[i] = core.query("elect", g)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert all(r is not None for r in results)
        assert len(computes) == 1  # the whole point
        assert joined.count(True) == 1
        assert len({record_to_json(r.record) for r in results}) == 1
        assert sum(1 for r in results if not r.cached) == 1
        metrics = core.metrics()
        assert metrics["misses"] == 1
        assert metrics["inflight_hits"] == n_threads - 1
        assert metrics["hits"] == n_threads - 1

    def test_leader_error_propagates_to_followers(self, monkeypatch):
        """A failing leader must fail every waiter with the same domain
        error — and must not leave a stale in-flight entry behind."""
        n_threads = 4
        core = ServiceCore()
        g = ring(6)  # infeasible for elect
        all_joined = threading.Event()
        joined = []
        real_join = ServiceCore._join_inflight

        def counting_join(self, key):
            flight, leader = real_join(self, key)
            joined.append(leader)
            if len(joined) >= n_threads:
                all_joined.set()
            return flight, leader

        real_compute = LocalBackend.compute

        def gated_compute(self, task, fingerprint, certificate):
            assert all_joined.wait(30)
            return real_compute(self, task, fingerprint, certificate)

        monkeypatch.setattr(ServiceCore, "_join_inflight", counting_join)
        monkeypatch.setattr(LocalBackend, "compute", gated_compute)

        outcomes = [None] * n_threads
        def run(i):
            try:
                core.query("elect", g)
                outcomes[i] = "ok"
            except InfeasibleGraphError:
                outcomes[i] = "infeasible"

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert outcomes == ["infeasible"] * n_threads
        assert core.metrics()["errors"] == n_threads
        assert core._inflight == {}  # no stale entry: the next query leads

    def test_live_dedup_smoke_unpatched(self, sharded):
        """No gating: whatever the real schedule, every caller gets the
        byte-identical record and the counters add up."""
        n_threads = 8
        g = random_tree(16, seed=11)
        results = [None] * n_threads

        def run(i):
            results[i] = sharded.query("elect", g)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert len({record_to_json(r.record) for r in results}) == 1
        metrics = sharded.metrics()
        assert metrics["misses"] >= 1
        assert metrics["misses"] + metrics["hits"] == n_threads
        assert (
            metrics["memory_hits"]
            + metrics["inflight_hits"]
            + metrics["misses"]
            == n_threads
        )

    def test_single_query_joins_a_batch_compute(self, monkeypatch):
        """The batch path registers its unique cold keys in-flight, so a
        concurrent single query for one of them waits instead of
        recomputing."""
        core = ServiceCore()
        g = random_tree(14, seed=2)
        batch_started = threading.Event()
        computes = []
        real_compute = LocalBackend.compute

        def counted_compute(self, task, fingerprint, certificate):
            computes.append(task)
            batch_started.set()
            return real_compute(self, task, fingerprint, certificate)

        monkeypatch.setattr(LocalBackend, "compute", counted_compute)

        batch_result = []
        def run_batch():
            batch_result.extend(core.batch([("elect", g)]))

        single_result = []
        def run_single():
            assert batch_started.wait(30)
            single_result.append(core.query("elect", g))

        threads = [
            threading.Thread(target=run_batch),
            threading.Thread(target=run_single),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert record_to_json(batch_result[0].record) == record_to_json(
            single_result[0].record
        )
        # the single query either joined the batch's flight or hit the
        # cache after it landed — it never ran a second compute
        assert computes == ["elect"]  # the batch's own
        metrics = core.metrics()
        assert metrics["misses"] == 1
        assert metrics["hits"] == 1
