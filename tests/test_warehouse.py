"""The results warehouse: one indexed sqlite store under sweeps,
conformance, the service cache and bench records.

The invariants proven here: resume byte-identity and group atomicity
under SIGKILL (the export of a killed and resumed sweep equals the
canonical JSON lines of an uninterrupted run), warm-equals-cold service
answers, byte-identical import/export round-trips, join-query warming
with no corpus re-stream, tiered hit metrics, concurrent multi-process
writers, and the cross-run bench trend."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.sweep import sweep_to_store
from repro.corpus import iter_corpus
from repro.engine import (
    StoreError,
    open_result_store,
    records_to_jsonl,
    run_experiments,
)
from repro.engine.records import record_to_json
from repro.analysis.bench import warm_from_stores
from repro.errors import ServiceError
from repro.service import ResultCache, ServiceCore, warm_from_warehouse
from repro.warehouse import (
    Warehouse,
    WarehouseStore,
    export_bench,
    export_dataset,
    import_file,
    is_warehouse_path,
    register_corpus_graphs,
    sniff_format,
    trend_table,
)

SPEC = "caterpillars:18,seed=13"
TASK = "index"
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

ENV = dict(os.environ)
ENV["PYTHONPATH"] = (
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    + os.pathsep
    + ENV.get("PYTHONPATH", "")
)


def _reference_bytes(spec=SPEC, task=TASK):
    """The uninterrupted run's canonical JSON lines: the byte-identity
    oracle."""
    records = run_experiments(list(iter_corpus(spec)), task)
    return records_to_jsonl(records).encode("utf-8")


def _export_bytes(wh_path, dataset="sweep"):
    out = str(wh_path) + f".{dataset}.export.jsonl"
    with Warehouse(str(wh_path)) as wh:
        export_dataset(wh, dataset, out)
    with open(out, "rb") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# backend dispatch and basics
# ----------------------------------------------------------------------
def test_is_warehouse_path_by_extension():
    assert is_warehouse_path("results.sqlite")
    assert is_warehouse_path("/a/b/WH.DB")
    assert not is_warehouse_path("results.jsonl")
    assert not is_warehouse_path(None)
    assert not is_warehouse_path("")


def test_open_result_store_dispatches(tmp_path):
    """A warehouse path opens a ``WarehouseStore``; any other path is
    refused before a file is created, naming the JSONL export and the
    import that resumes a JSONL store."""
    with open_result_store(str(tmp_path / "s.sqlite")) as store:
        assert isinstance(store, WarehouseStore)
    for name in ("s.jsonl", "results"):
        path = tmp_path / name
        with pytest.raises(StoreError) as info:
            open_result_store(str(path))
        assert "repro warehouse export" in str(info.value)
        assert "repro warehouse import" in str(info.value)
        assert not path.exists()


def test_schema_version_gate(tmp_path):
    path = str(tmp_path / "wh.sqlite")
    with Warehouse(path) as wh:
        wh._conn.execute(
            "UPDATE meta SET value='repro-warehouse/999' "
            "WHERE key='schema_version'"
        )
    with pytest.raises(StoreError, match="schema version"):
        Warehouse(path)


def test_store_interface_tracks_keys(tmp_path):
    path = str(tmp_path / "wh.sqlite")
    rec = {"task": "index", "name": "a", "n": 5, "feasible": False}
    with WarehouseStore(path) as store:
        store.append(rec)
        assert ("a", "index") in store
        assert len(store) == 1
    with Warehouse(path) as wh:
        assert list(wh.iter_records("sweep")) == [rec]
        assert wh.integrity_check() == "ok"


# ----------------------------------------------------------------------
# byte-identity: export == the canonical lines, resume convergence
# ----------------------------------------------------------------------
def test_export_equals_plain_jsonl_sweep(tmp_path):
    reference = _reference_bytes()
    wh_path = tmp_path / "wh.sqlite"
    with open_result_store(str(wh_path)) as store:
        ran, skipped = sweep_to_store(iter_corpus(SPEC), TASK, store)
    assert (ran, skipped) == (18, 0)
    assert _export_bytes(wh_path) == reference


def test_resume_is_a_key_query_and_converges(tmp_path):
    reference = _reference_bytes()
    wh_path = tmp_path / "wh.sqlite"
    # first pass: interrupt after 10 entries (close with work remaining)
    def first_ten():
        for i, entry in enumerate(iter_corpus(SPEC)):
            if i == 10:
                return
            yield entry

    with open_result_store(str(wh_path)) as store:
        sweep_to_store(first_ten(), TASK, store)
    with open_result_store(str(wh_path), resume=True) as store:
        assert len(store) == 10
        ran, skipped = sweep_to_store(iter_corpus(SPEC), TASK, store)
    assert (ran, skipped) == (8, 10)
    assert _export_bytes(wh_path) == reference


def test_fresh_open_clears_the_dataset(tmp_path):
    wh_path = str(tmp_path / "wh.sqlite")
    with WarehouseStore(wh_path) as store:
        store.append({"task": "index", "name": "old", "n": 1})
    with WarehouseStore(wh_path) as store:  # resume=False: fresh
        assert len(store) == 0
    with Warehouse(wh_path) as wh:
        assert wh.result_keys("sweep") == set()


def test_unterminated_group_is_never_durable(tmp_path):
    """Sub-records with no summary are the transactional torn tail: they
    vanish on close, and a resumed run re-does the whole entry."""
    wh_path = str(tmp_path / "wh.sqlite")
    with WarehouseStore(wh_path) as store:
        store.append({"task": "conf", "name": "e1", "entry": "e1-sub0"})
        store.append({"task": "conf", "name": "e1-sub1", "entry": "e1"})
        assert len(store) == 0  # nothing durable until the summary
        store.append({"task": "conf", "name": "e1", "entry": "e1"})
        assert ("e1", "conf") in store and ("e1-sub1", "conf") in store
        # a second group left unterminated...
        store.append({"task": "conf", "name": "e2", "entry": "e2-sub0"})
    with Warehouse(wh_path) as wh:
        names = [r["name"] for r in wh.iter_records("sweep")]
    assert names == ["e1", "e1-sub1", "e1"]  # e2's sub-record is gone


def test_multi_record_groups_roundtrip_conformance(tmp_path):
    """The conformance shape end-to-end: the export equals the engine's
    record groups, byte for byte."""
    from repro.conformance import conformance_task_name

    task = conformance_task_name(schedules=2, seed=0)
    spec = "tori:2,seed=0"
    wh_path = tmp_path / "conf.sqlite"
    with open_result_store(str(wh_path), dataset="conformance") as store:
        sweep_to_store(iter_corpus(spec), task, store)
    assert _export_bytes(wh_path, "conformance") == _reference_bytes(
        spec, task
    )


# ----------------------------------------------------------------------
# genuine SIGKILL mid-run
# ----------------------------------------------------------------------
def test_sigkill_mid_sweep_resumes_byte_identical(tmp_path):
    """Kill -9 a warehouse-backed sweep mid-run; the next open sees only
    whole committed groups (sqlite rolls back the open transaction), and
    the resumed sweep converges to the uninterrupted bytes."""
    spec = "caterpillars:300,seed=13"
    reference = _reference_bytes(spec)

    wh_path = str(tmp_path / "wh.sqlite")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--corpus", spec, "--task", TASK, "--out", wh_path,
        ],
        env=ENV,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 60
        killed = False
        while time.time() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill: still a valid run
            if os.path.exists(wh_path):
                try:
                    with Warehouse(wh_path) as wh:
                        done = len(wh.result_keys("sweep"))
                except StoreError:
                    done = 0
                if done >= 20:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
                    killed = True
                    break
            time.sleep(0.02)
        assert killed or proc.poll() is not None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    with Warehouse(wh_path) as wh:
        assert wh.integrity_check() == "ok"
        survivors = len(wh.result_keys("sweep"))
    assert survivors <= 300
    with open_result_store(wh_path, resume=True) as store:
        ran, skipped = sweep_to_store(iter_corpus(spec), TASK, store)
    assert skipped == survivors and ran == 300 - survivors
    assert _export_bytes(wh_path) == reference


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def test_concurrent_process_and_thread_writers(tmp_path):
    """Two sweep processes (different datasets) and a service-cache
    thread all writing one warehouse file: every record lands, sqlite
    stays healthy."""
    wh_path = str(tmp_path / "shared.sqlite")
    specs = {
        "sweep-a": "caterpillars:40,seed=1",
        "sweep-b": "random-trees:40,seed=2,min_n=8,max_n=16",
    }
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep",
                "--corpus", spec, "--task", TASK,
                "--out", wh_path, "--dataset", dataset,
            ],
            env=ENV,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for dataset, spec in specs.items()
    ]

    errors = []

    def cache_writer():
        try:
            cache = ResultCache(wh_path, capacity=4)
            for i in range(50):
                cache.put(
                    (f"{i:064x}", "index"),
                    {"task": "index", "name": f"graph:{i:016x}", "n": i},
                )
            cache.close()
        except Exception as exc:  # pragma: no cover - the assert below
            errors.append(exc)

    thread = threading.Thread(target=cache_writer)
    thread.start()
    thread.join(timeout=120)
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    assert not errors and not thread.is_alive()

    with Warehouse(wh_path) as wh:
        assert wh.integrity_check() == "ok"
        assert len(wh.result_keys("sweep-a")) == 40
        assert len(wh.result_keys("sweep-b")) == 40
        assert wh.cache_size("service-cache") == 50


# ----------------------------------------------------------------------
# import/export round-trips
# ----------------------------------------------------------------------
def test_store_import_export_roundtrip(tmp_path):
    reference = _reference_bytes()
    src = tmp_path / "src.jsonl"
    src.write_bytes(reference)
    wh_path = str(tmp_path / "wh.sqlite")
    with Warehouse(wh_path) as wh:
        fmt, dataset, imported = import_file(wh, str(src))
        assert (fmt, dataset, imported) == ("store", "src", 18)
        out = str(tmp_path / "back.jsonl")
        assert export_dataset(wh, "src", out) == 18
    with open(out, "rb") as fh:
        assert fh.read() == reference


def test_golden_store_roundtrip_byte_identical(tmp_path):
    """The checked-in golden store (written by a past sweep, a frozen
    wire-format sample) must survive import -> export untouched — the
    migration gate CI runs."""
    golden = os.path.join(DATA_DIR, "golden_store_caterpillars_index.jsonl")
    with open(golden, "rb") as fh:
        reference = fh.read()
    wh_path = str(tmp_path / "wh.sqlite")
    out = str(tmp_path / "back.jsonl")
    with Warehouse(wh_path) as wh:
        fmt, dataset, imported = import_file(wh, golden)
        assert fmt == "store" and imported > 0
        export_dataset(wh, dataset, out)
    with open(out, "rb") as fh:
        assert fh.read() == reference


def test_golden_cache_roundtrip_byte_identical(tmp_path):
    golden = os.path.join(DATA_DIR, "golden_cache_caterpillars.jsonl")
    with open(golden, "rb") as fh:
        reference = fh.read()
    assert sniff_format(golden) == "cache"
    wh_path = str(tmp_path / "wh.sqlite")
    out = str(tmp_path / "back.jsonl")
    with Warehouse(wh_path) as wh:
        fmt, dataset, imported = import_file(wh, golden)
        assert fmt == "cache" and imported > 0
        export_dataset(wh, dataset, out)
    with open(out, "rb") as fh:
        assert fh.read() == reference


def test_bench_import_export_roundtrip(tmp_path):
    from repro.analysis.bench import env_fingerprint, write_json

    fresh = {
        "schema": "repro-bench/1",
        "kind": "timing",
        "scenario": "demo",
        "quick": True,
        "env": env_fingerprint(),
        "cases": [
            {"case": "c1", "seconds": 0.25, "repeats": 2,
             "seed_seconds": 1.0, "speedup_vs_seed": 4.0},
        ],
    }
    # a record written when bench divided by a recorded baseline file
    legacy = {
        **fresh,
        "scenario": "legacy",
        "baseline": {"path": "baseline.json", "env": env_fingerprint()},
        "cases": [
            {"case": "c1", "seconds": 0.25, "repeats": 2,
             "baseline_seconds": 1.5, "speedup": 6.0},
        ],
    }
    wh_path = str(tmp_path / "wh.sqlite")
    for record in (fresh, legacy):
        src = str(tmp_path / f"BENCH_{record['scenario']}.json")
        write_json(src, record)
        with Warehouse(wh_path) as wh:
            fmt, dataset, imported = import_file(wh, src)
            assert (fmt, dataset, imported) == ("bench", "bench", 1)
            written = export_bench(wh, str(tmp_path / record["scenario"]))
        assert len(written) == 1
        with open(src, "rb") as a, open(written[0], "rb") as b:
            assert a.read() == b.read()


def test_import_refuses_torn_store(tmp_path):
    src = tmp_path / "torn.jsonl"
    src.write_text('{"name":"a","task":"t","entry":"a-sub"}\n')
    with Warehouse(str(tmp_path / "wh.sqlite")) as wh:
        with pytest.raises(StoreError, match="unterminated record group"):
            import_file(wh, str(src))


def test_export_unknown_dataset_raises(tmp_path):
    with Warehouse(str(tmp_path / "wh.sqlite")) as wh:
        with pytest.raises(StoreError, match="no dataset"):
            export_dataset(wh, "nope", str(tmp_path / "out.jsonl"))


def test_a_file_that_is_not_a_database_raises_store_error(tmp_path):
    path = tmp_path / "not_a_db.jsonl"
    path.write_text('{"name": "a", "task": "index"}\n')
    with pytest.raises(StoreError, match="not_a_db.jsonl"):
        Warehouse(str(path))
    assert path.read_text() == '{"name": "a", "task": "index"}\n'


# ----------------------------------------------------------------------
# the service warm tier
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_setup(tmp_path_factory):
    """One warehouse-backed elect sweep over a small feasible corpus,
    shared by the warm/metrics tests (the sweep is the slow part)."""
    tmp = tmp_path_factory.mktemp("warm")
    from repro.analysis.sweep import corpus_default

    corpus = corpus_default(max_n=20)
    wh_path = str(tmp / "results.sqlite")
    with open_result_store(wh_path) as store:
        sweep_to_store(iter(corpus), "elect", store)
    store_path = str(tmp / "sweep.jsonl")
    with Warehouse(wh_path) as wh:
        export_dataset(wh, "sweep", store_path)
    return corpus, wh_path, store_path


def test_warm_join_matches_cold_compute_byte_for_byte(warm_setup):
    corpus, wh_path, _store_path = warm_setup
    cache = ResultCache(capacity=64)
    warmed = warm_from_warehouse(cache, wh_path)
    assert warmed == len(corpus)
    warm_core = ServiceCore(cache=cache)
    cold_core = ServiceCore(cache=ResultCache(capacity=0))
    for _name, graph in corpus:
        warm_answer = warm_core.query("elect", graph)
        cold_answer = cold_core.query("elect", graph)
        assert warm_answer.cached and not cold_answer.cached
        assert record_to_json(warm_answer.record) == record_to_json(
            cold_answer.record
        )


def test_warm_join_equals_warm_from_stores(warm_setup):
    corpus, wh_path, store_path = warm_setup
    by_stream = ResultCache(capacity=64)
    warmed, _skipped = warm_from_stores(by_stream, [store_path], iter(corpus))
    by_join = ResultCache(capacity=64)
    assert warm_from_warehouse(by_join, wh_path) == warmed
    assert by_stream._entries == by_join._entries


def test_register_corpus_graphs_migrates_imported_stores(tmp_path):
    """A store swept before the warehouse existed: import it, register
    its corpus once, and the join warms it like a native dataset."""
    from repro.analysis.sweep import corpus_default

    corpus = corpus_default(max_n=20)
    store_path = str(tmp_path / "legacy.jsonl")
    with open(store_path, "w", encoding="utf-8") as fh:
        fh.write(records_to_jsonl(run_experiments(corpus, "elect")))
    wh_path = str(tmp_path / "wh.sqlite")
    with Warehouse(wh_path) as wh:
        import_file(wh, store_path, dataset="legacy")
        cache = ResultCache(capacity=64)
        assert warm_from_warehouse(cache, wh) == 0  # no graphs registered
        assert register_corpus_graphs(wh, "legacy", iter(corpus)) == len(
            corpus
        )
        assert warm_from_warehouse(cache, wh) == len(corpus)


def test_warehouse_cache_persists_across_restarts(tmp_path, warm_setup):
    corpus, _wh_path, _store_path = warm_setup
    cache_path = str(tmp_path / "cache.sqlite")
    core = ServiceCore(cache=ResultCache(cache_path))
    first = core.query("elect", corpus[0][1])
    assert not first.cached
    core.close()
    # restart: same answer from the durable tier, byte for byte
    core = ServiceCore(cache=ResultCache(cache_path))
    assert core.cache.persisted == 1
    again = core.query("elect", corpus[0][1])
    assert again.cached
    assert record_to_json(again.record) == record_to_json(first.record)
    core.close()


def test_eviction_hits_warehouse_and_metrics_tier_split(tmp_path, warm_setup):
    """capacity=1 forces an LRU eviction between queries: the evicted
    entry must come back from the warehouse (never recompute), and
    /metrics must say which tier answered."""
    corpus, _wh_path, _store_path = warm_setup
    cache_path = str(tmp_path / "cache.sqlite")
    core = ServiceCore(cache=ResultCache(cache_path, capacity=1))
    g1, g2 = corpus[0][1], corpus[1][1]
    core.query("elect", g1)  # cold compute
    core.query("elect", g2)  # cold compute, evicts g1 from memory
    assert core.query("elect", g1).cached  # back from the warehouse tier
    assert core.query("elect", g1).cached  # now resident: memory tier
    m = core.metrics()
    assert m["misses"] == 2
    assert m["hits"] == 2
    assert m["warehouse_hits"] == 1
    assert m["memory_hits"] == 1
    assert "file_hits" not in m
    per_task = m["tasks"]["elect"]
    assert per_task["hits"] == 2 and per_task["warehouse_hits"] == 1
    core.close()


def test_warm_from_a_missing_warehouse_raises_and_creates_nothing(tmp_path):
    missing = tmp_path / "typo.sqlite"
    with pytest.raises(ServiceError, match="typo.sqlite"):
        warm_from_warehouse(ResultCache(), str(missing))
    assert not missing.exists()


# ----------------------------------------------------------------------
# the bench trend
# ----------------------------------------------------------------------
def test_trend_table_across_runs(tmp_path):
    from repro.analysis.bench import env_fingerprint

    def bench_record(seconds):
        return {
            "schema": "repro-bench/1",
            "kind": "timing",
            "scenario": "demo",
            "quick": True,
            "env": env_fingerprint(),
            "cases": [{"case": "c1", "seconds": seconds, "repeats": 1}],
        }

    wh_path = str(tmp_path / "wh.sqlite")
    with Warehouse(wh_path) as wh:
        with pytest.raises(StoreError, match="no timed bench records"):
            trend_table(wh)
        for label, seconds in (("pr6", 0.5), ("pr7", 0.25)):
            run_id = wh.begin_run("bench", label)
            wh.append_bench(bench_record(seconds), run_id)
            wh.finish_run(run_id)
        columns, rows = trend_table(wh)
    assert columns == ["scenario", "case", "pr6/quick", "pr7/quick"]
    assert rows == [("demo", "c1", "0.5000", "0.2500")]


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestWarehouseCLI:
    def _sweep(self, wh_path, dataset="sweep"):
        from repro.cli import main

        assert main([
            "sweep", "--corpus", "caterpillars:6,seed=13", "--task", TASK,
            "--out", wh_path, "--dataset", dataset,
        ]) == 0

    def test_sweep_export_info_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        wh_path = str(tmp_path / "wh.sqlite")
        self._sweep(wh_path)
        out = str(tmp_path / "out.jsonl")
        assert main(["warehouse", "export", wh_path, "sweep", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == _reference_bytes("caterpillars:6,seed=13")
        assert main(["warehouse", "info", wh_path]) == 0
        text = capsys.readouterr().out
        assert "sweep" in text and "integrity: ok" in text

    def test_import_register_and_labeled_run_grouping(self, tmp_path, capsys):
        from repro.cli import main

        ref = tmp_path / "ref.jsonl"
        ref.write_bytes(_reference_bytes("caterpillars:6,seed=13", "elect"))
        wh_path = str(tmp_path / "wh.sqlite")
        assert main([
            "warehouse", "import", wh_path, str(ref),
            "--dataset", "legacy", "--label", "migration",
        ]) == 0
        assert main([
            "warehouse", "register", wh_path, "legacy",
            "caterpillars:6,seed=13",
        ]) == 0
        assert "6 graph(s) registered" in capsys.readouterr().out
        cache = ResultCache(capacity=8)
        assert warm_from_warehouse(cache, wh_path) == 6
        with Warehouse(wh_path) as wh:
            labels = [run["label"] for run in wh.runs()]
        assert labels.count("migration") == 1  # one labeled run per import

    def test_trend_via_report_and_warehouse_commands(self, tmp_path, capsys):
        from repro.analysis.bench import env_fingerprint, write_json
        from repro.cli import main

        record = {
            "schema": "repro-bench/1",
            "kind": "timing",
            "scenario": "demo",
            "quick": True,
            "env": env_fingerprint(),
            "cases": [{"case": "c1", "seconds": 0.125, "repeats": 1}],
        }
        src = str(tmp_path / "BENCH_demo.json")
        write_json(src, record)
        wh_path = str(tmp_path / "wh.sqlite")
        for label in ("pr6", "pr7"):
            assert main([
                "warehouse", "import", wh_path, src, "--label", label,
            ]) == 0
        capsys.readouterr()
        assert main(["report", "--trend", wh_path]) == 0
        text = capsys.readouterr().out
        assert "pr6/quick" in text and "pr7/quick" in text
        trend_md = str(tmp_path / "trend.md")
        assert main(["report", "--trend", wh_path, "--out", trend_md]) == 0
        with open(trend_md) as fh:
            assert fh.read() == text
        # exporting bench records back out is byte-identical
        assert main([
            "warehouse", "export", wh_path, "--bench", str(tmp_path / "bo"),
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        with open(src, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize(
        "argv",
        [
            ["warehouse", "info", "{db}"],
            ["warehouse", "export", "{db}", "sweep", "{out}"],
            ["warehouse", "import", "{db}", "{out}"],
            ["warehouse", "register", "{db}", "sweep", "lifts:2"],
            ["report", "--trend", "{db}"],
            ["sweep", "--corpus", "lifts:2", "--task", "index",
             "--out", "{db}"],
        ],
        ids=["info", "export", "import", "register", "report-trend",
             "sweep"],
    )
    def test_a_file_that_is_not_a_database_exits_2(
        self, tmp_path, capsys, argv
    ):
        from repro.cli import main

        db = tmp_path / "not_a_db.sqlite"
        db.write_text('{"name": "a", "task": "index"}\n')
        out = tmp_path / "out.jsonl"
        out.write_text('{"name": "a", "task": "index"}\n')
        argv = [arg.format(db=db, out=out) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not_a_db.sqlite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["warehouse", "info", "{db}"],
            ["warehouse", "export", "{db}", "sweep", "{out}"],
            ["warehouse", "export", "{db}", "--bench", "{out}"],
            ["report", "--trend", "{db}"],
            ["obs", "export", "{db}", "--trace-json", "{out}"],
        ],
        ids=["info", "export", "export-bench", "report-trend", "obs-export"],
    )
    def test_a_read_only_command_on_a_missing_database_exits_2(
        self, tmp_path, capsys, argv
    ):
        """sqlite creates a database on connect; a read-only command
        given a mistyped path must refuse it and leave nothing behind."""
        from repro.cli import main

        db = tmp_path / "nope.sqlite"
        argv = [arg.format(db=db, out=tmp_path / "out") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: warehouse '{db}' does not exist\n"
        assert list(tmp_path.iterdir()) == []  # no db, -wal, -shm or out

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "0"], ["--chunk-size", "0"], ["--task", "no-such"]],
        ids=["workers-0", "chunk-size-0", "unknown-task"],
    )
    def test_a_refused_sweep_leaves_the_store_alone(
        self, tmp_path, capsys, flags
    ):
        """The engine's arguments are checked before the store opens:
        opening without --resume empties the dataset, and opening a
        missing path creates it."""
        from repro.cli import main

        wh_path = str(tmp_path / "wh.sqlite")
        self._sweep(wh_path)
        with Warehouse(wh_path) as wh:
            runs = wh.runs()
        sweep = ["sweep", "--corpus", "caterpillars:6,seed=13",
                 "--task", TASK]
        capsys.readouterr()
        assert main(sweep + ["--out", wh_path] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with Warehouse(wh_path) as wh:
            assert wh.runs() == runs
        out = str(tmp_path / "out.jsonl")
        assert main(["warehouse", "export", wh_path, "sweep", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == _reference_bytes("caterpillars:6,seed=13")

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert main(sweep + ["--out", str(fresh / "new.sqlite")] + flags) == 2
        assert list(fresh.iterdir()) == []

    def test_export_without_dataset_errors(self, tmp_path, capsys):
        from repro.cli import main

        wh_path = str(tmp_path / "wh.sqlite")
        self._sweep(wh_path)
        assert main(["warehouse", "export", wh_path]) != 0
        assert "export needs DATASET and OUT" in capsys.readouterr().err

    def test_trend_without_bench_records_errors(self, tmp_path, capsys):
        from repro.cli import main

        wh_path = str(tmp_path / "wh.sqlite")
        self._sweep(wh_path)
        assert main(["report", "--trend", wh_path]) != 0
        assert "no timed bench records" in capsys.readouterr().err
