"""The conformance subsystem: schedulers, the algorithm registry, the
differential oracle, multi-record engine plumbing, and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.conformance import (
    ALGORITHMS,
    ConformanceConfig,
    conformance_entry,
    conformance_task_name,
    get_algorithm,
    profile_graph,
)
from repro.core import compute_advice, leaders_equivalent
from repro.core.elect import ElectAlgorithm
from repro.corpus import iter_corpus
from repro.engine import (
    EngineConfig,
    get_task,
    open_result_store,
    records_to_jsonl,
    run_experiments,
    run_stream,
)
from repro.errors import (
    ConformanceError,
    EngineError,
    SimulationError,
)
from repro.graphs import (
    cycle_with_leader_gadget,
    grid_torus,
    lollipop,
    path_graph,
    ring,
)
from repro.sim import (
    AsyncEngine,
    DelayOneNodeScheduler,
    RandomDelayScheduler,
    ReverseDeliveryScheduler,
    make_schedules,
    run_async,
    run_sync,
)
from repro.sim.schedulers import Schedule


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_random_scheduler_is_seed_deterministic(self):
        a = RandomDelayScheduler(7)
        b = RandomDelayScheduler(7)
        delays_a = [a.delay(0, 0, 1, 0, 1, i) for i in range(50)]
        delays_b = [b.delay(0, 0, 1, 0, 1, i) for i in range(50)]
        assert delays_a == delays_b
        assert all(0.01 <= d <= 10.0 for d in delays_a)

    def test_delay_one_node_slows_only_the_victim(self):
        s = DelayOneNodeScheduler(victim_index=5, seed=1, slowdown=25.0)
        s.bind(3)  # victim 5 % 3 == 2
        to_victim = [s.delay(0, 0, 2, 0, 1, i) for i in range(30)]
        s2 = DelayOneNodeScheduler(victim_index=5, seed=1, slowdown=25.0)
        s2.bind(3)
        to_other = [s2.delay(0, 0, 1, 0, 1, i) for i in range(30)]
        # same seed, same draw sequence: victim traffic is exactly the
        # slowdown multiple of the corresponding non-victim delay
        for victim_delay, other_delay in zip(to_victim, to_other):
            assert victim_delay == pytest.approx(25.0 * other_delay)

    def test_reverse_delivery_reverses_same_instant_sends(self):
        s = ReverseDeliveryScheduler()
        d = [s.delay(0, 0, 1, 0, 1, seq) for seq in range(10)]
        assert d == sorted(d, reverse=True)
        assert all(x > 0 for x in d)

    def test_roster_is_deterministic_and_prefix_stable(self):
        names = [sch.name for sch in make_schedules(7, seed=3)]
        assert names == [sch.name for sch in make_schedules(7, seed=3)]
        assert names[:4] == [sch.name for sch in make_schedules(4, seed=3)]
        # all three adversary kinds appear
        assert any(n.startswith("random") for n in names)
        assert "reverse" in names
        assert any(n.startswith("delay-node") for n in names)

    def test_roster_slots_are_all_distinct(self):
        # no duplicate adversaries (e.g. the second reverse slot widens
        # its horizon instead of repeating the first)
        names = [sch.name for sch in make_schedules(9, seed=0)]
        assert len(set(names)) == 9, names

    def test_roster_schedules_give_identical_async_outputs(self):
        g = cycle_with_leader_gadget(6)
        bundle = compute_advice(g)
        base = run_sync(g, ElectAlgorithm, advice=bundle.bits)
        for schedule in make_schedules(4, seed=1):
            hostile = AsyncEngine(
                g,
                ElectAlgorithm,
                advice=bundle.bits,
                scheduler=schedule.make(),
                max_rounds=100,
            ).run()
            assert hostile.outputs == base.outputs, schedule.name
            assert hostile.output_round == base.output_round, schedule.name

    def test_nonpositive_delay_is_rejected(self):
        class BadScheduler:
            def delay(self, *args):
                return 0.0

        g = ring(4)
        from repro.core.generic import GenericAlgorithm

        with pytest.raises(SimulationError, match="non-positive"):
            AsyncEngine(
                g, lambda: GenericAlgorithm(1), scheduler=BadScheduler()
            ).run()

    def test_async_advice_map_matches_sync(self):
        from repro.baselines import LabelingSchemeAlgorithm, labeling_advice_map

        g = ring(5)  # infeasible, but the labeling scheme does not care
        advice_map = labeling_advice_map(g, leader=0)
        base = run_sync(
            g, LabelingSchemeAlgorithm, advice_map=advice_map, max_rounds=1
        )
        hostile = AsyncEngine(
            g, LabelingSchemeAlgorithm, advice_map=advice_map
        ).run()
        assert hostile.outputs == base.outputs

    def test_async_rejects_both_advice_forms(self):
        from repro.coding import Bits

        with pytest.raises(SimulationError, match="not both"):
            AsyncEngine(
                ring(4),
                ElectAlgorithm,
                advice=Bits("1"),
                advice_map={0: Bits("1")},
            )

    def test_legacy_seed_behavior_unchanged(self):
        # AsyncEngine(seed=s) must still mean RandomDelayScheduler(s)
        g = cycle_with_leader_gadget(6)
        bundle = compute_advice(g)
        by_seed = run_async(g, ElectAlgorithm, advice=bundle.bits, seed=5)
        by_sched = AsyncEngine(
            g,
            ElectAlgorithm,
            advice=bundle.bits,
            scheduler=RandomDelayScheduler(5),
        ).run()
        assert by_seed.outputs == by_sched.outputs
        assert by_seed.total_messages == by_sched.total_messages


# ----------------------------------------------------------------------
# outcome equivalence
# ----------------------------------------------------------------------
class TestLeaderEquivalence:
    def test_ring_nodes_are_all_equivalent(self):
        g = ring(6)
        assert leaders_equivalent(g, 0, 4)

    def test_rigid_graph_distinguishes_nodes(self):
        g = cycle_with_leader_gadget(6)  # feasible => rigid
        assert leaders_equivalent(g, 2, 2)
        assert not leaders_equivalent(g, 0, 1)

    def test_degree_mismatch_is_cheaply_refused(self):
        g = lollipop(4, 2)
        hub = max(g.nodes(), key=g.degree)
        leaf = min(g.nodes(), key=g.degree)
        assert not leaders_equivalent(g, hub, leaf)


# ----------------------------------------------------------------------
# the algorithm registry
# ----------------------------------------------------------------------
class TestAlgorithmRegistry:
    def test_registry_contents(self):
        assert set(ALGORITHMS) == {
            "elect",
            "known-d-phi",
            "map-based",
            "naive-rank",
            "tree-no-advice",
            "labeling-scheme",
        }

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ConformanceError, match="unknown election"):
            get_algorithm("quantum-elect")

    def test_gates(self):
        torus = grid_torus(3, 3)
        profile = profile_graph(torus)
        assert not profile.feasible
        assert get_algorithm("elect").applicable(torus, profile) is not None
        assert (
            get_algorithm("labeling-scheme").applicable(torus, profile) is None
        )
        tree = path_graph(4)  # odd-length path: feasible tree
        tprof = profile_graph(tree)
        assert tprof.is_tree
        if tprof.feasible:
            assert (
                get_algorithm("tree-no-advice").applicable(tree, tprof) is None
            )
        assert get_algorithm("tree-no-advice").applicable(torus, profile)

    def test_profile_matches_views(self):
        g = cycle_with_leader_gadget(6)
        profile = profile_graph(g)
        from repro.views import election_index

        assert profile.feasible
        assert profile.phi == election_index(g)
        assert profile.is_tree is False


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class TestOracle:
    def test_feasible_entry_is_clean_and_grouped(self):
        g = cycle_with_leader_gadget(6)
        records = conformance_entry("gadget6", g, ConformanceConfig(schedules=2))
        summary = records[-1]
        assert summary["name"] == summary["entry"] == "gadget6"
        assert summary["feasible"] is True
        assert summary["total_disagreements"] == 0
        subs = records[:-1]
        assert all(r["entry"] == "gadget6" for r in subs)
        assert all(r["name"].startswith("gadget6/") for r in subs)
        assert set(summary["algorithms"]) == {r["algorithm"] for r in subs}
        # every per-algorithm sub-record covered local, strict, async and
        # strict-async; the orbit-collapse rule compares engines, not sim
        # models, so its model axis is its own
        for r in subs:
            if r["algorithm"] == "orbit-collapse":
                assert "probe[pernode]" in r["models"]
                assert "probe[orbit]" in r["models"]
                assert "elect[orbit]" in r["models"]  # gadget6 is feasible
                continue
            assert "local" in r["models"] and "strict" in r["models"]
            assert any(m.startswith("async[") for m in r["models"])
            assert any(m.startswith("strict-async[") for m in r["models"])

    def test_infeasible_entry_runs_labeling_scheme_only(self):
        records = conformance_entry("torus", grid_torus(3, 3))
        summary = records[-1]
        assert summary["feasible"] is False
        assert summary["algorithms"] == ["labeling-scheme", "orbit-collapse"]
        assert "elect" in summary["skipped"]
        assert summary["total_disagreements"] == 0

    def test_orbit_check_knob_and_subset_filtering(self):
        """The collapsed-vs-full rule is on by default, off under
        ``orbit_check=False``, and — like any algorithm — skipped by a
        subset that omits it and kept by one that names it."""
        g = grid_torus(3, 3)
        on = conformance_entry("t", g, ConformanceConfig(schedules=1))
        off = conformance_entry(
            "t", g, ConformanceConfig(schedules=1, orbit_check=False)
        )
        assert "orbit-collapse" in on[-1]["algorithms"]
        assert "orbit-collapse" not in off[-1]["algorithms"]
        only = conformance_entry(
            "t",
            g,
            ConformanceConfig(schedules=1, algorithms=("orbit-collapse",)),
        )
        assert only[-1]["algorithms"] == ["orbit-collapse"]
        assert only[-1]["total_disagreements"] == 0

    def test_min_view_leaders_coincide(self):
        g = cycle_with_leader_gadget(8)
        records = conformance_entry("gadget8", g, ConformanceConfig(schedules=1))
        leaders = {
            r["algorithm"]: r["leader"]
            for r in records[:-1]
            if r["leader_rule"] == "min-view"
        }
        assert len(set(leaders.values())) == 1

    def test_algorithm_subset_filter(self):
        g = cycle_with_leader_gadget(6)
        records = conformance_entry(
            "gadget6",
            g,
            ConformanceConfig(schedules=1, algorithms=("elect", "map-based")),
        )
        assert records[-1]["algorithms"] == ["elect", "map-based"]

    def test_task_name_is_canonical(self):
        assert conformance_task_name() == "conformance"
        assert (
            conformance_task_name(schedules=5, seed=2)
            == "conformance:schedules=5,seed=2"
        )

    def test_bare_task_name_matches_default_schedules(self):
        """The factory's default roster must be DEFAULT_SCHEDULES — the
        constant conformance_task_name's canonicalization relies on."""
        from repro.conformance.oracle import DEFAULT_SCHEDULES

        records = get_task("conformance")("t", grid_torus(3, 3))
        assert records[-1]["schedules"] == DEFAULT_SCHEDULES

    def test_run_failures_are_recorded_not_raised(self):
        """A model run that blows its round budget (or any ReproError) is
        a recorded disagreement; the sweep must never abort."""
        from repro.conformance.algorithms import (
            AlgorithmSpec,
            Prepared,
            register_algorithm,
        )
        from repro.core.advice import compute_advice

        def bad_prepare(g, profile):
            bundle = compute_advice(g)
            return Prepared(
                factory=ElectAlgorithm,
                advice=bundle.bits,
                advice_bits=bundle.size_bits,
                max_rounds=1,  # < phi: the sync run must overrun
                time_bound=("==", bundle.phi),
            )

        register_algorithm(
            AlgorithmSpec(
                name="zz-bad-budget",
                leader_rule="trie-label",
                applicable=lambda g, p: None,
                prepare=bad_prepare,
            )
        )
        try:
            records = conformance_entry(
                "t",
                cycle_with_leader_gadget(6),
                ConformanceConfig(schedules=1, algorithms=("zz-bad-budget",)),
            )
        finally:
            del ALGORITHMS["zz-bad-budget"]
        kinds = {d["kind"] for d in records[0]["disagreements"]}
        assert "run-failed" in kinds
        assert records[-1]["total_disagreements"] > 0

    def test_prepare_failures_are_recorded_not_raised(self):
        from repro.conformance.algorithms import AlgorithmSpec, register_algorithm

        def broken_prepare(g, profile):
            raise SimulationError("synthetic prepare explosion")

        register_algorithm(
            AlgorithmSpec(
                name="zz-broken",
                leader_rule="pinned",
                applicable=lambda g, p: None,
                prepare=broken_prepare,
            )
        )
        try:
            records = conformance_entry(
                "t",
                cycle_with_leader_gadget(6),
                ConformanceConfig(schedules=1, algorithms=("zz-broken",)),
            )
        finally:
            del ALGORITHMS["zz-broken"]
        assert records[0]["disagreements"][0]["kind"] == "prepare-failed"
        assert records[0]["cells"] == 0


# ----------------------------------------------------------------------
# engine plumbing: parameterized names, multi-record, store groups
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_parameterized_task_resolution(self):
        assert callable(get_task("conformance"))
        assert callable(get_task("conformance:schedules=1,seed=4"))
        with pytest.raises(EngineError, match="no parameters"):
            get_task("elect:schedules=1")
        with pytest.raises(EngineError, match="bad parameters"):
            get_task("conformance:warp=9")
        with pytest.raises(EngineError, match="not an integer"):
            get_task("conformance:schedules=many")
        with pytest.raises(EngineError, match="unknown engine task"):
            get_task("conformal")

    def test_records_carry_the_sweep_task_string(self):
        g = grid_torus(3, 3)
        task = get_task("conformance:seed=0,schedules=1")  # reordered keys
        records = task("t", g)
        assert all(r["task"] == "conformance:seed=0,schedules=1" for r in records)

    def test_multi_record_parallel_equals_serial(self):
        corpus = list(iter_corpus("lifts:4"))
        serial = run_experiments(
            corpus, task="conformance:schedules=1,seed=0", workers=1
        )
        parallel = run_experiments(
            corpus,
            task="conformance:schedules=1,seed=0",
            workers=3,
            chunk_size=1,
        )
        assert records_to_jsonl(serial) == records_to_jsonl(parallel)
        # groups are contiguous: each summary directly follows its subs
        entries = [r["entry"] for r in serial]
        assert entries == sorted(entries, key=entries.index)

    def test_store_resume_is_byte_identical_after_group_tear(self, tmp_path):
        """A store closed before a group's summary record commits only
        the groups before it; the resumed sweep re-runs that entry in
        full and the export equals the uninterrupted records."""
        from repro.analysis.sweep import sweep_to_store

        task = "conformance:schedules=1,seed=0"
        corpus = list(iter_corpus("lifts:3"))
        records = run_experiments(corpus, task)
        first_group = next(
            i + 1 for i, r in enumerate(records) if r["entry"] == r["name"]
        )
        assert records[first_group]["entry"] != records[first_group]["name"]

        path = str(tmp_path / "torn.sqlite")
        with open_result_store(path, dataset="conformance") as store:
            for r in records[: first_group + 1]:  # tear mid-second-group
                store.append(r)
            assert len(store) == first_group
        with open_result_store(path, resume=True, dataset="conformance") as store:
            assert len(store) == first_group
            ran, skipped = sweep_to_store(iter(corpus), task, store)
        assert (ran, skipped) == (len(records) - first_group, 1)
        assert _export(tmp_path, path, "conformance") == records_to_jsonl(
            records
        )

    def test_single_record_stores_unaffected_by_group_logic(self, tmp_path):
        path = str(tmp_path / "plain.sqlite")
        with open_result_store(path) as store:
            for r in run_stream(iter_corpus("lifts:3"), "index", EngineConfig()):
                store.append(r)
                assert (r["name"], "index") in store  # its own group
        data = _export(tmp_path, path, "sweep")
        with open_result_store(path, resume=True) as store:
            assert len(store) == 3
        assert _export(tmp_path, path, "sweep") == data


def _export(tmp_path, path, dataset):
    """A warehouse dataset's JSONL export, as text."""
    from repro.warehouse import Warehouse, export_dataset

    out = tmp_path / f"{dataset}.export.jsonl"
    with Warehouse(path) as wh:
        export_dataset(wh, dataset, str(out))
    return out.read_text(encoding="utf-8")


def _conformance_records(path, dataset="conformance"):
    from repro.warehouse import Warehouse

    with Warehouse(path) as wh:
        return list(wh.iter_records(dataset))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestConformanceCli:
    def test_cli_clean_run_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "c.sqlite")
        rc = cli_main(
            [
                "conformance",
                "--families",
                "lifts",
                "--count",
                "2",
                "--schedules",
                "1",
                "--out",
                out,
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "zero disagreements" in text
        assert len(_conformance_records(out)) > 2

    def test_cli_summary_filters_by_task_parameterization(
        self, tmp_path, capsys
    ):
        """A dataset holding sweeps of two parameterizations must be
        summarized per task string, not double-counted."""
        out = str(tmp_path / "mixed.sqlite")
        base = ["conformance", "--families", "lifts", "--count", "2", "--out", out]
        assert cli_main(base + ["--schedules", "1"]) == 0
        capsys.readouterr()
        assert cli_main(base + ["--schedules", "2", "--resume"]) == 0
        text = capsys.readouterr().out
        # both sweeps' records are in the dataset, but the summary counts
        # only the schedules=2 task: 2 entries, not 4
        assert "\n2 entries (" in text
        # 2 entries x 2 tasks x 3 records (labeling-scheme, orbit-collapse,
        # summary) per group
        assert len(_conformance_records(out)) == 12

    def test_cli_summary_reads_only_its_own_dataset(self, tmp_path, capsys):
        """Two datasets in one warehouse: each run summarizes the dataset
        it wrote, not every result record in the file."""
        out = str(tmp_path / "w.sqlite")
        base = ["conformance", "--families", "tori", "--count", "2",
                "--schedules", "1", "--out", out]
        assert cli_main(base + ["--dataset", "a"]) == 0
        capsys.readouterr()
        assert cli_main(base + ["--dataset", "b"]) == 0
        text = capsys.readouterr().out
        assert "\n2 entries (" in text
        assert len(_conformance_records(out, "a")) == len(
            _conformance_records(out, "b")
        )

    def test_cli_refuses_a_jsonl_out(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        rc = cli_main(["conformance", "--families", "lifts", "--count", "1",
                       "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "repro warehouse import" in captured.err
        assert "task =" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "0"], ["--chunk-size", "0"], ["--schedules", "-1"]],
        ids=["workers-0", "chunk-size-0", "schedules-minus-1"],
    )
    def test_cli_refused_run_leaves_the_store_alone(
        self, tmp_path, capsys, flags
    ):
        """The engine's arguments are checked before the store opens:
        opening without --resume empties the dataset, and opening a
        missing path creates it."""
        from repro.warehouse import Warehouse

        out = str(tmp_path / "c.sqlite")
        base = ["conformance", "--families", "tori", "--count", "2",
                "--schedules", "1"]
        assert cli_main(base + ["--out", out]) == 0
        with Warehouse(out) as wh:
            runs = wh.runs()
            before = list(wh.iter_lines("conformance"))
        assert before
        capsys.readouterr()
        assert cli_main(base + flags + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with Warehouse(out) as wh:
            assert wh.runs() == runs
            assert list(wh.iter_lines("conformance")) == before

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert cli_main(base + flags + ["--out", str(fresh / "c.sqlite")]) == 2
        assert list(fresh.iterdir()) == []

    def test_cli_resume_requires_out(self, capsys):
        rc = cli_main(["conformance", "--resume"])
        assert rc == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_cli_rejects_empty_families(self, capsys):
        rc = cli_main(["conformance", "--families", " , "])
        assert rc == 2

    def test_cli_reports_disagreements_nonzero_exit(self, tmp_path, capsys):
        # forge a store with one disagreement record and summarize it
        from repro.analysis import summarize_conformance

        records = [
            {
                "task": "conformance",
                "name": "x-s0-0/elect",
                "entry": "x-s0-0",
                "algorithm": "elect",
                "cells": 3,
                "disagreements": [{"kind": "outputs", "detail": "boom"}],
            },
            {
                "task": "conformance",
                "name": "x-s0-0",
                "entry": "x-s0-0",
                "feasible": True,
                "cells": 3,
                "disagreements": [],
                "total_disagreements": 1,
            },
        ]
        summary = summarize_conformance(records)
        assert not summary.clean
        assert summary.disagreement_entries == ["x-s0-0"]
        assert summary.by_family["x"]["disagreements"] == 1
