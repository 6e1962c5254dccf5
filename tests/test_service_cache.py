"""The service result cache: LRU tier, warehouse tier, store warming."""

import json
import os
import random

import pytest

from repro.engine import ResultStore, run_stream
from repro.engine.records import record_to_json
from repro.engine.tasks import get_task
from repro.errors import ServiceError
from repro.graphs import (
    canonical_form,
    canonical_graph,
    graph_fingerprint,
    random_tree,
    relabel_nodes,
    ring,
)
from repro.analysis.bench import warm_from_stores
from repro.service.cache import (
    SERVICE_CACHE_DATASET,
    ResultCache,
    canonical_query_name,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def rec(i):
    return {"task": "index", "name": f"r{i}", "n": i}


class TestLRUTier:
    def test_get_put_contains(self):
        cache = ResultCache()
        key = ("fp0", "index")
        assert cache.get(key) is None
        cache.put(key, rec(0))
        assert key in cache and cache.get(key) == rec(0)
        assert len(cache) == 1 and cache.persisted == 0

    def test_eviction_is_lru(self):
        cache = ResultCache(capacity=2)
        a, b, c = (("a", "t"), ("b", "t"), ("c", "t"))
        cache.put(a, rec(1))
        cache.put(b, rec(2))
        cache.get(a)  # refresh: b is now least recent
        cache.put(c, rec(3))
        assert a in cache and c in cache and b not in cache

    def test_capacity_zero_never_retains(self):
        cache = ResultCache(capacity=0)
        cache.put(("a", "t"), rec(1))
        assert cache.get(("a", "t")) is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)


class TestPersistenceTier:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        with ResultCache(path=path) as cache:
            cache.put(("fp1", "index"), rec(1))
            cache.put(("fp2", "elect"), rec(2))
            assert cache.persisted == 2
        with ResultCache(path=path) as cache:
            assert cache.get(("fp1", "index")) == rec(1)
            assert cache.get(("fp2", "elect")) == rec(2)
            assert cache.persisted == 2

    def test_put_is_idempotent_on_disk(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        with ResultCache(path=path) as cache:
            for _ in range(3):
                cache.put(("fp1", "index"), rec(1))
            assert cache.persisted == 1

    def test_memory_tier_keeps_most_recent_of_big_file(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        with ResultCache(path=path) as cache:
            for i in range(10):
                cache.put((f"fp{i}", "index"), rec(i))
        with ResultCache(path=path, capacity=3) as cache:
            assert len(cache) == 3 and cache.persisted == 10
            assert list(cache._entries) == [
                (f"fp{i}", "index") for i in (7, 8, 9)
            ]
            assert cache.lookup(("fp9", "index")) == (rec(9), "memory")

    def test_eviction_falls_back_to_the_disk_tier(self, tmp_path):
        """An LRU eviction must never cost a recompute: the warehouse
        re-reads the entry's row and promotes it back into the LRU."""
        path = str(tmp_path / "cache.sqlite")
        with ResultCache(path=path, capacity=2) as cache:
            for i in range(5):
                cache.put((f"fp{i}", "index"), rec(i))
            assert len(cache) == 2  # fp0..fp2 evicted from memory
            assert cache.lookup(("fp0", "index")) == (rec(0), "warehouse")
            assert ("fp0", "index") in cache
            # the promotion is a real LRU insert: fp0 is now resident
            assert cache._entries[("fp0", "index")] == rec(0)
        # same across a reopen with a tiny memory tier
        with ResultCache(path=path, capacity=1) as cache:
            for i in range(5):
                assert cache.get((f"fp{i}", "index")) == rec(i)

    def test_evicted_entries_never_recompute_through_the_core(self, tmp_path):
        from repro.service import ServiceCore

        g = random_tree(11, seed=4)
        cache = ResultCache(path=str(tmp_path / "c.sqlite"), capacity=1)
        core = ServiceCore(cache)
        first = core.query("index", g)
        core.query("quotient", g)  # evicts the index entry from memory
        again = core.query("index", g)
        assert again.cached and again.record == first.record
        assert core.metrics()["warehouse_hits"] == 1
        core.close()

    def test_non_entry_line_rejected(self, tmp_path):
        """A cache JSONL file enters the warehouse through an import,
        which refuses a line that is not a cache envelope."""
        from repro.engine import StoreError
        from repro.warehouse import Warehouse, import_file

        path = str(tmp_path / "cache.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "x", "task": "t"}\n')  # no record
            fh.write('{"fingerprint": "y", "task": "t", "record": {}}\n')
        with Warehouse(str(tmp_path / "wh.sqlite")) as wh:
            with pytest.raises(StoreError, match=":1: not a cache entry"):
                import_file(wh, path, fmt="cache")

    def test_jsonl_cache_path_is_refused(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with pytest.raises(ServiceError, match="repro warehouse import"):
            ResultCache(path=str(path))
        assert not path.exists()

    def test_golden_cache_jsonl_migrates_to_the_warehouse(self, tmp_path):
        """The migration with an explicit `--dataset service-cache`:
        the cache serves every imported entry byte for byte, however
        small its memory tier."""
        from repro.cli import main

        golden = os.path.join(DATA_DIR, "golden_cache_caterpillars.jsonl")
        db = str(tmp_path / "migrated.sqlite")
        assert main([
            "warehouse", "import", db, golden,
            "--dataset", SERVICE_CACHE_DATASET,
        ]) == 0
        with open(golden, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        with ResultCache(db, capacity=2) as cache:
            assert cache.persisted == len(lines)
            for line in lines:
                entry = json.loads(line)
                record, tier = cache.lookup(
                    (entry["fingerprint"], entry["task"])
                )
                assert tier is not None
                assert record_to_json(record) == record_to_json(
                    entry["record"]
                )
                assert record_to_json({**entry, "record": record}) == line

    def test_a_cache_import_defaults_to_service_cache_through_the_cli(
        self, tmp_path, capsys
    ):
        """Without --dataset a sniffed cache file lands where `repro
        serve --cache` reads, not under the file's basename."""
        from repro.cli import main

        golden = os.path.join(DATA_DIR, "golden_cache_caterpillars.jsonl")
        db = str(tmp_path / "migrated.sqlite")
        assert main(["warehouse", "import", db, golden]) == 0
        assert f"dataset '{SERVICE_CACHE_DATASET}'" in capsys.readouterr().out
        with ResultCache(db) as cache:
            assert cache.persisted == 6

    def test_a_cache_import_defaults_to_service_cache(self, tmp_path):
        from repro.warehouse import Warehouse, import_file

        golden = os.path.join(DATA_DIR, "golden_cache_caterpillars.jsonl")
        db = str(tmp_path / "migrated.sqlite")
        with Warehouse(db) as wh:
            assert import_file(wh, golden) == ("cache", SERVICE_CACHE_DATASET, 6)
        with ResultCache(db) as cache:
            assert cache.persisted == 6


class TestWarming:
    def _sweep(self, tmp_path, corpus, task):
        store_path = str(tmp_path / f"store_{task}.jsonl")
        with ResultStore(store_path) as store:
            for record in run_stream(iter(corpus), task):
                store.append(record)
        return store_path

    def test_warm_matches_cold_compute_byte_for_byte(self, tmp_path):
        corpus = [
            (f"t{i}", random_tree(10 + i, seed=i)) for i in range(4)
        ]
        stores = [
            self._sweep(tmp_path, corpus, "index"),
            self._sweep(tmp_path, corpus, "elect"),
        ]
        cache = ResultCache()
        warmed, skipped = warm_from_stores(cache, stores, iter(corpus))
        assert warmed == 8 and skipped == 0
        for _name, g in corpus:
            fp = graph_fingerprint(g)
            for task in ("index", "elect"):
                warmed_record = cache.get((fp, task))
                cold = get_task(task)(
                    canonical_query_name(fp), canonical_graph(g)
                )
                assert record_to_json(warmed_record) == record_to_json(cold)

    def test_warm_serves_relabeled_queries(self, tmp_path):
        from repro.service import ServiceCore

        g = random_tree(14, seed=9)
        store = self._sweep(tmp_path, [("g", g)], "elect")
        cache = ResultCache()
        warm_from_stores(cache, [store], iter([("g", g)]))
        core = ServiceCore(cache)
        perm = list(range(g.n))
        random.Random(0).shuffle(perm)
        result = core.query("elect", relabel_nodes(g, perm))
        assert result.cached

    def test_unmatched_and_nonwarmable_records_are_skipped(self, tmp_path):
        corpus = [("a", ring(6)), ("b", ring(8))]
        store = self._sweep(tmp_path, corpus, "index")
        with ResultStore(store, resume=True) as s:
            s.append({"task": "messages", "name": "a", "n": 6})  # not warmable
        cache = ResultCache()
        # corpus stream only supplies "a": the record for "b" has no graph
        warmed, skipped = warm_from_stores(cache, [store], iter(corpus[:1]))
        assert warmed == 1 and skipped == 2
        assert (graph_fingerprint(ring(6)), "index") in cache

    def test_warm_stops_once_all_records_matched(self, tmp_path):
        g = ring(5)
        store = self._sweep(tmp_path, [("a", g)], "index")

        def stream():
            yield "a", g
            raise AssertionError("stream read past the last matched record")

        cache = ResultCache()
        warmed, _ = warm_from_stores(cache, [store], stream())
        assert warmed == 1
