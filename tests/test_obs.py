"""The observability layer: registry, spans, cross-process stitching.

Covers the ISSUE-10 guarantees: the disabled path writes nothing (the
no-op pin the CI bench gate leans on), span context crosses the shard
``Pipe`` protocol and the engine's chunk envelopes, one sharded service
query yields a single stitched Chrome-trace-exportable trace, and the
exporters (Prometheus text, Chrome trace JSON, warehouse telemetry)
round-trip what the core records."""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.graphs import random_tree, to_json
from repro.service import (
    ResultCache,
    ServiceCore,
    make_server,
    serve_until_shutdown,
)
from repro.service.shard import ShardPool
from tests.conftest import feasible_corpus


@pytest.fixture(autouse=True)
def obs_reset():
    """Every test starts and ends with obs disabled and empty."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def span_names(events):
    return [event["name"] for event in events]


def feasible_graph():
    return feasible_corpus()[0][1]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = obs.Registry()
        reg.inc("queries", task="elect")
        reg.inc("queries", 2.0, task="elect")
        reg.inc("queries", task="index")
        reg.set_gauge("inflight", 3)
        reg.observe("latency_s", 0.002)
        reg.observe("latency_s", 50.0)
        snap = reg.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snap["counters"]
        }
        assert counters[("queries", (("task", "elect"),))] == 3.0
        assert counters[("queries", (("task", "index"),))] == 1.0
        assert snap["gauges"][0]["value"] == 3.0
        (hist,) = snap["histograms"]
        assert hist["count"] == 2 and hist["sum"] == pytest.approx(50.002)
        # one observation per value, each in a finite bucket
        assert sum(hist["bucket_counts"]) == 2
        assert len(hist["bucket_counts"]) == len(hist["buckets"]) + 1

    def test_module_helpers_respect_the_flag(self):
        obs.inc("nope")
        obs.observe("nope_s", 1.0)
        obs.set_gauge("nope_g", 1.0)
        assert obs.registry.writes == 0
        obs.enable()
        obs.inc("yes")
        assert obs.registry.writes == 1


# ---------------------------------------------------------------------------
# spans: no-op path, nesting, remote stitching
# ---------------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        a = obs.span("x")
        b = obs.span("y", attr=1)
        assert a is b  # one shared instance: no allocation when off
        with a as handle:
            assert handle.recording is False
            handle.set("ignored", 1)  # absorbed
        assert obs.trace_events() == []

    def test_nesting_links_parent_child(self):
        obs.enable()
        with obs.span("parent") as parent:
            with obs.span("child"):
                pass
        child_ev, parent_ev = obs.trace_events()
        assert parent_ev["name"] == "parent" and child_ev["name"] == "child"
        assert child_ev["parent_id"] == parent_ev["span_id"]
        assert child_ev["trace_id"] == parent_ev["trace_id"]
        assert parent_ev["parent_id"] is None
        assert parent.trace_id == parent_ev["trace_id"]

    def test_error_and_attrs_recorded(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom", task="elect") as sp:
                sp.set("extra", 7)
                raise ValueError("x")
        (event,) = obs.trace_events()
        assert event["error"] == "ValueError"
        assert event["attrs"] == {"task": "elect", "extra": 7}

    def test_collect_remote_round_trip_in_process(self):
        obs.enable()
        with obs.span("parent") as parent:
            ctx = obs.export_context()
            assert ctx == {
                "trace_id": parent.trace_id,
                "span_id": parent.span_id,
            }
            # simulate the worker side: fresh buffer, remote parenting
            with obs.collect_remote(ctx) as collected:
                with obs.span("worker.op"):
                    pass
            (worker_ev,) = collected.events
            assert worker_ev["trace_id"] == parent.trace_id
            assert worker_ev["parent_id"] == parent.span_id
            obs.ingest(collected.events)
        names = span_names(obs.trace_events())
        assert names == ["worker.op", "parent"]

    def test_collect_remote_restores_prior_state(self):
        obs.enable()
        with obs.span("kept"):
            pass
        before = obs.trace_events()
        with obs.collect_remote({"trace_id": "t", "span_id": "s"}):
            with obs.span("inner"):
                pass
        assert obs.trace_events() == before  # inner went to collected only
        obs.disable()
        with obs.collect_remote({"trace_id": "t", "span_id": "s"}) as c:
            with obs.span("forced"):
                pass
        assert not obs.enabled()  # restored off
        assert span_names(c.events) == ["forced"]

    def test_collect_remote_inert_without_context(self):
        with obs.collect_remote(None) as collected:
            with obs.span("nothing"):
                pass
        assert collected.events == []
        assert obs.trace_events() == []


# ---------------------------------------------------------------------------
# cross-process propagation: shard pipe, engine envelopes
# ---------------------------------------------------------------------------
class TestCrossProcess:
    def test_shard_pipe_round_trip(self):
        import hashlib

        g = feasible_graph()
        certificate = to_json(g)
        fingerprint = hashlib.sha256(certificate.encode()).hexdigest()
        obs.enable()
        with ShardPool(2) as pool:
            with obs.span("parent") as parent:
                record = pool.compute("index", fingerprint, certificate)
        assert record["task"] == "index"
        events = obs.trace_events()
        by_name = {event["name"]: event for event in events}
        shard_ev = by_name["shard.compute"]
        assert shard_ev["trace_id"] == parent.trace_id
        assert shard_ev["parent_id"] == parent.span_id
        assert shard_ev["pid"] != by_name["parent"]["pid"]
        assert shard_ev["attrs"]["fingerprint"] == fingerprint[:16]

    def test_engine_worker_envelopes(self):
        from repro.engine import run_experiments

        entries = feasible_corpus()[:4]
        obs.enable()
        with obs.span("parent") as parent:
            records = run_experiments(
                entries, "index", workers=2, chunk_size=1
            )
        assert len(records) == len(entries)
        chunk_events = [
            e for e in obs.trace_events() if e["name"] == "engine.chunk"
        ]
        assert len(chunk_events) == len(entries)  # chunk_size=1
        assert {e["trace_id"] for e in chunk_events} == {parent.trace_id}
        assert all(e["parent_id"] == parent.span_id for e in chunk_events)
        assert len({e["pid"] for e in chunk_events}) >= 1  # worker pids

    def test_sharded_query_single_stitched_trace(self):
        """The acceptance trace: one sharded service query = one trace
        covering the parent's cache lookup, the shard worker's compute
        phases and the per-round sim costs, exportable as Chrome JSON."""
        g = feasible_graph()
        obs.enable()
        core = ServiceCore(ResultCache(), shards=2)
        try:
            result = core.query("elect", g)
        finally:
            core.close()
        assert result.record["task"] == "elect"
        events = obs.trace_events()
        names = set(span_names(events))
        assert {
            "service.query",
            "service.fingerprint",
            "service.cache_lookup",
            "service.compute",
            "shard.compute",
            "elect.orbit",
            "elect.advice",
            "elect.simulate",
            "elect.verify",
        } <= names
        # one stitched trace across >= 2 processes
        assert len({e["trace_id"] for e in events}) == 1
        assert len({e["pid"] for e in events}) >= 2
        # every non-root event's parent exists in the same trace
        ids = {e["span_id"] for e in events}
        roots = [e for e in events if e["parent_id"] is None]
        assert [e["name"] for e in roots] == ["service.query"]
        assert all(
            e["parent_id"] in ids for e in events if e["parent_id"]
        )
        # the sim span folds the Tracer accounting in as attributes
        sim_ev = next(e for e in events if e["name"] == "elect.simulate")
        assert sim_ev["attrs"]["rounds"] >= 1
        assert sim_ev["attrs"]["total_messages"] >= 1
        # and the whole thing exports as loadable Chrome trace JSON
        chrome = obs.to_chrome_trace(events)
        assert chrome["traceEvents"]
        for entry in chrome["traceEvents"]:
            assert entry["ph"] == "X"
            assert entry["ts"] >= 0 and entry["dur"] >= 0
        json.dumps(chrome)  # JSON-safe throughout

    @pytest.mark.parametrize("shards", [0, 2])
    def test_traced_batch_is_one_trace(self, shards):
        """A batch drains its misses on threads of its own; each runs
        under the caller's span context, so every compute — in process
        or in a shard worker — lands in the caller's one trace.  With
        obs off the same batch records nothing."""
        from repro.views import is_feasible

        candidates = (random_tree(12, seed=seed) for seed in range(100))
        trees = [g for g in candidates if is_feasible(g)][:6]
        core = ServiceCore(ResultCache(), shards=shards)
        try:
            core.batch([("elect", g) for g in trees[:3]])
            assert obs.trace_events() == []
            assert obs.registry.writes == 0
            obs.enable()
            with obs.span("caller") as caller:
                core.batch([("elect", g) for g in trees[3:]])
        finally:
            core.close()
        events = obs.trace_events()
        assert {e["trace_id"] for e in events} == {caller.trace_id}
        assert span_names(events).count("elect.advice") == 3
        ids = {e["span_id"] for e in events}
        roots = [e for e in events if e["parent_id"] is None]
        assert [e["name"] for e in roots] == ["caller"]
        assert all(e["parent_id"] in ids for e in events if e["parent_id"])

    def test_disabled_sharded_query_records_nothing(self):
        """The no-op pin: obs off => zero registry writes, empty buffer,
        and no context shipped over the shard pipe."""
        g = feasible_graph()
        core = ServiceCore(ResultCache(), shards=1)
        try:
            core.query("elect", g)
        finally:
            core.close()
        assert obs.trace_events() == []
        assert obs.registry.writes == 0
        assert obs.registry.snapshot() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }


# ---------------------------------------------------------------------------
# service surface: metrics negotiation, healthz, slow-query log
# ---------------------------------------------------------------------------
@pytest.fixture()
def service():
    core = ServiceCore()
    server = make_server(core)
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_until_shutdown,
        kwargs=dict(server=server, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5)
    yield f"http://127.0.0.1:{server.server_address[1]}", core
    server.shutdown()
    thread.join(5)


def http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


class TestServiceSurface:
    def test_metrics_json_by_default(self, service):
        url, _core = service
        status, ctype, body = http_get(url + "/metrics")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert {"hits", "misses", "errors", "uptime_s"} <= set(payload)

    @pytest.mark.parametrize(
        "headers,query",
        [
            ({"Accept": "text/plain"}, ""),
            ({"Accept": "application/openmetrics-text"}, ""),
            ({}, "?format=prometheus"),
        ],
    )
    def test_metrics_prometheus_negotiation(self, service, headers, query):
        url, core = service
        obs.enable()
        core.query("index", random_tree(8, seed=1))
        status, ctype, body = http_get(url + "/metrics" + query, headers)
        assert status == 200
        assert ctype.startswith("text/plain; version=0.0.4")
        text = body.decode()
        # the core's flat JSON counters, prefixed (exposed as gauges)
        assert "# TYPE repro_misses gauge" in text
        assert "repro_misses 1" in text
        # and the obs registry's query-latency histogram
        assert 'repro_service_query_latency_s_bucket{' in text
        assert "repro_service_query_latency_s_count{" in text

    def test_healthz_shard_health(self):
        obs.reset()
        core = ServiceCore(ResultCache(), shards=2)
        server = make_server(core)
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_until_shutdown,
            kwargs=dict(server=server, ready=ready),
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            _status, _ctype, body = http_get(url + "/healthz")
            payload = json.loads(body)
            assert payload["shards"] == 2
            assert payload["shards_alive"] == [True, True]
            assert payload["shard_health"] == [
                {"shard": 0, "alive": True, "restarts": 0, "last_error": None},
                {"shard": 1, "alive": True, "restarts": 0, "last_error": None},
            ]
        finally:
            server.shutdown()
            thread.join(5)

    def test_healthz_in_process_mode_has_empty_shard_health(self, service):
        url, _core = service
        _status, _ctype, body = http_get(url + "/healthz")
        assert json.loads(body)["shard_health"] == []

    def test_restart_history_after_worker_death(self):
        import hashlib
        import time

        from repro.errors import ServiceError

        g = feasible_graph()
        certificate = to_json(g)
        fingerprint = hashlib.sha256(certificate.encode()).hexdigest()
        with ShardPool(1) as pool:
            proc, _conn = pool._workers[0]
            proc.terminate()
            proc.join(5)
            t0 = time.time()
            with pytest.raises(ServiceError, match="worker restarted"):
                pool.compute("index", fingerprint, certificate)
            (row,) = pool.health()
            assert row["alive"] is True  # respawned on the spot
            assert row["restarts"] == 1
            assert t0 <= row["last_error"]["time"] <= time.time()
            assert "worker died" in row["last_error"]["error"]
            # the respawned worker serves the retry
            record = pool.compute("index", fingerprint, certificate)
            assert record["task"] == "index"

    def test_slow_query_log(self):
        lines = []
        core = ServiceCore(
            ResultCache(),
            slow_query_threshold_s=0.0,  # everything is slow
            slow_query_sink=lines.append,
        )
        try:
            g = random_tree(9, seed=3)
            core.query("index", g)
            core.query("index", g)  # hit: logged with its tier
        finally:
            core.close()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["slow_query"] is True
        assert first["task"] == "index"
        assert first["tier"] == "compute"
        assert first["threshold_s"] == 0.0
        assert first["latency_s"] >= 0
        assert {"fingerprint_s", "lookup_s", "compute_s"} <= set(
            first["phases"]
        )
        assert second["tier"] in ("memory", "persisted")
        assert second["fingerprint"] == first["fingerprint"]

    def test_slow_query_threshold_filters(self):
        lines = []
        core = ServiceCore(
            ResultCache(),
            slow_query_threshold_s=3600.0,
            slow_query_sink=lines.append,
        )
        try:
            core.query("index", random_tree(9, seed=3))
        finally:
            core.close()
        assert lines == []

    def test_negative_threshold_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="slow_query_threshold_s"):
            ServiceCore(ResultCache(), slow_query_threshold_s=-1.0)


# ---------------------------------------------------------------------------
# exporters: prometheus text, chrome trace, warehouse telemetry
# ---------------------------------------------------------------------------
class TestExporters:
    def test_render_prometheus_shapes(self):
        obs.enable()
        obs.inc("shard_restarts", shard=0)
        obs.observe("service_query_latency_s", 0.005, task="elect")
        text = obs.render_prometheus(
            obs.take_snapshot(), extra_counters={"queries": 3}
        )
        assert "# TYPE repro_queries gauge" in text
        assert "repro_queries 3" in text
        assert 'repro_shard_restarts_total{shard="0"} 1' in text
        assert '_bucket{le="+Inf",task="elect"} 1' in text
        assert "repro_service_query_latency_s_sum" in text
        # cumulative buckets: the +Inf bucket equals the count
        count_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_service_query_latency_s_count")
        )
        assert count_line.endswith(" 1")

    def test_chrome_trace_writer(self, tmp_path):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner", step=1):
                pass
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace(str(path), obs.trace_events())
        assert count == 2
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        names = {e["name"] for e in payload["traceEvents"]}
        assert names == {"outer", "inner"}

    def test_warehouse_telemetry_round_trip(self, tmp_path):
        from repro.warehouse import Warehouse

        obs.enable()
        obs.inc("queries", task="elect")
        obs.observe("service_query_latency_s", 0.02, task="elect")
        with obs.span("service.query"):
            pass
        db = tmp_path / "wh.sqlite"
        with Warehouse(str(db)) as wh:
            run_id = wh.begin_run("profile", "pr10")
            rows = wh.append_telemetry(
                run_id,
                snapshot=obs.take_snapshot(),
                events=obs.trace_events(),
            )
            wh.finish_run(run_id)
            assert rows == 3
            stored = wh.telemetry_rows(run_id=run_id)
            kinds = sorted(row["kind"] for row in stored)
            assert kinds == ["counter", "histogram", "span"]
            hist = next(r for r in stored if r["kind"] == "histogram")
            assert hist["value"]["count"] == 1
            span_row = next(r for r in stored if r["kind"] == "span")
            assert span_row["value"]["name"] == "service.query"

    def test_trend_renders_telemetry_section(self, tmp_path):
        from repro.warehouse import Warehouse, render_trend

        obs.enable()
        obs.observe("service_query_latency_s", 0.004, task="elect")
        db = tmp_path / "wh.sqlite"
        with Warehouse(str(db)) as wh:
            run_id = wh.begin_run("profile", "pr10")
            wh.append_telemetry(run_id, snapshot=obs.take_snapshot())
            wh.finish_run(run_id)
            text = render_trend(wh)
        assert "telemetry (histogram count:p50/p99" in text
        assert "service_query_latency_s" in text
        assert "(no timed bench records)" in text  # telemetry-only db


# ---------------------------------------------------------------------------
# bench resources
# ---------------------------------------------------------------------------
class TestBenchResources:
    def test_time_case_reports_resources(self):
        from repro.analysis.bench import _time_case

        seconds, reps, resources = _time_case(lambda: [0] * 10000, 2)
        assert seconds >= 0 and reps == 2
        assert resources["peak_rss_kb"] is None or (
            resources["peak_rss_kb"] > 0
        )
        assert resources["gc_collections"] >= 0
        assert resources["gc_collected"] >= 0

    def test_scenario_cases_carry_resources(self):
        from repro.analysis.bench import (
            SCENARIOS,
            make_bench_record,
            validate_bench_record,
        )

        cases = SCENARIOS["refinement"](True)
        for case in cases:
            assert "peak_rss_kb" in case
            assert "gc_collections" in case
            assert "gc_collected" in case
        record = make_bench_record("refinement", cases, quick=True)
        validate_bench_record(record)  # extra fields stay schema-valid
