"""The machine-readable perf harness: named scenarios, canonical records.

The ROADMAP's north star is "as fast as the hardware allows", but prose
``.txt`` tables cannot anchor a trajectory: nothing downstream can diff
them, gate on them, or compute a speedup from them.  This module defines

* a registry of named **perf scenarios** (``refinement``, ``sweep``,
  ``strict``, ``elect-orbit``, ``conformance``, ``service``,
  ``service-load``, ``warehouse``) — each runs a fixed, seeded workload
  through the library's hot paths and times it (min over repeats);
* the canonical ``BENCH_<scenario>.json`` record schema (version
  ``repro-bench/1``) with an environment fingerprint; a case that times
  a reference path on the identical workload in the same run carries
  the ratio as ``speedup_vs_<reference>`` (seed codec, per-node engine,
  cold cache, in-process compute, corpus re-stream) — the only speedups
  a record holds, since a ratio against timings from another run, host
  or workload is not evidence;
* ``validate_bench_record`` — the schema gate CI runs on every emitted
  record (``repro bench --check``), so a malformed record fails the build
  instead of silently dropping out of the trajectory.

Entry points: the ``repro bench`` CLI subcommand and the thin
``benchmarks/harness.py`` wrapper.  ``benchmarks/conftest.py`` writes a
``kind="table"`` twin of every historical prose bench through the same
schema, so old and new artifacts feed one trajectory.

Scenario cases are deterministic (fixed generator seeds, fixed corpus
family prefixes), so two runs measure the *identical* workload; timings
are wall-clock ``perf_counter`` minima, with the view caches cleared
before every repeat that touches them.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

if TYPE_CHECKING:  # annotations of warm_from_stores only
    from typing import Iterable, Sequence

    from repro.graphs.port_graph import PortGraph
    from repro.service.cache import ResultCache

BENCH_SCHEMA = "repro-bench/1"

#: A case's in-run ratio against a reference path timed in the same run
#: on the identical workload: ``speedup_vs_seed``, ``speedup_vs_cold``, ...
RATIO_PREFIX = "speedup_vs_"

#: A case is one timed (or tabulated) unit inside a scenario record.
Case = Dict[str, Any]

#: ``fn(quick) -> [case, ...]``; registered under the scenario name.
ScenarioFn = Callable[[bool], List[Case]]

SCENARIOS: Dict[str, ScenarioFn] = {}


def register_scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator: register a perf scenario under ``name``."""

    def deco(fn: ScenarioFn) -> ScenarioFn:
        if name in SCENARIOS:
            raise ValueError(f"scenario '{name}' is already registered")
        SCENARIOS[name] = fn
        return fn

    return deco


def env_fingerprint() -> Dict[str, Any]:
    """Where a record was measured: enough to judge comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _gc_totals() -> Tuple[int, int]:
    """Cumulative ``(collections, collected)`` across all GC generations."""
    stats = gc.get_stats()
    return (
        sum(s.get("collections", 0) for s in stats),
        sum(s.get("collected", 0) for s in stats),
    )


def _peak_rss_kb() -> Optional[int]:
    """The process's high-water resident set in KB (None off POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def _time_case(
    fn: Callable[[], Any], repeats: int, clear_caches: bool = False
) -> Tuple[float, int, Dict[str, Any]]:
    """Min wall-clock over ``repeats`` runs of ``fn``, plus the resource
    counters around the loop: ``peak_rss_kb`` is the process-lifetime
    high-water mark sampled after the case (monotone across a scenario,
    so the first case whose cell jumps is the one that grew the heap),
    and the ``gc_*`` deltas are the collector work the timed loop
    triggered."""
    gc_collections0, gc_collected0 = _gc_totals()
    best = float("inf")
    for _ in range(repeats):
        if clear_caches:
            from repro.views import clear_view_caches

            clear_view_caches()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    gc_collections1, gc_collected1 = _gc_totals()
    resources = {
        "peak_rss_kb": _peak_rss_kb(),
        "gc_collections": gc_collections1 - gc_collections0,
        "gc_collected": gc_collected1 - gc_collected0,
    }
    return best, repeats, resources


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@register_scenario("refinement")
def _scenario_refinement(quick: bool) -> List[Case]:
    """``stable_partition`` on corpus-shaped graphs: the partition-
    refinement hot loop, at four-digit n and (full mode) up to ~50k."""
    from repro.graphs.generators import grid_torus, random_regular, random_tree
    from repro.views.refinement import stable_partition

    if quick:
        specs = [
            ("random-tree-n300", lambda: random_tree(300, seed=1)),
            ("random-regular-n200-d4", lambda: random_regular(200, 4, seed=1)),
            ("torus-10x11", lambda: grid_torus(10, 11)),
        ]
        repeats = 2
    else:
        specs = [
            ("random-tree-n2000", lambda: random_tree(2000, seed=1)),
            ("random-tree-n5000", lambda: random_tree(5000, seed=2)),
            ("random-tree-n9000", lambda: random_tree(9000, seed=3)),
            ("random-regular-n2000-d4", lambda: random_regular(2000, 4, seed=1)),
            ("torus-44x45", lambda: grid_torus(44, 45)),
            ("random-tree-n50000", lambda: random_tree(50000, seed=1)),
        ]
        repeats = 3
    cases: List[Case] = []
    for case_name, build in specs:
        g = build()
        seconds, reps, resources = _time_case(
            lambda: stable_partition(g), repeats
        )
        cases.append(
            {
                "case": case_name,
                "seconds": seconds,
                "repeats": reps,
                "n": g.n,
                **resources,
            }
        )
    return cases


@register_scenario("sweep")
def _scenario_sweep(quick: bool) -> List[Case]:
    """End-to-end ``repro sweep`` of a corpus family through the streaming
    engine: lazy generation -> task -> records, exactly the CLI path."""
    from repro.corpus import get_family
    from repro.engine import EngineConfig, run_stream
    from repro.views.refinement import stable_partition

    if quick:
        index_params = dict(count=6, seed=0, min_n=20, max_n=60)
        elect_params = dict(count=3, seed=0, min_n=10, max_n=30)
        repeats = 1
    else:
        index_params = dict(count=30, seed=0, min_n=400, max_n=1200)
        elect_params = dict(count=10, seed=0, min_n=40, max_n=120)
        repeats = 2

    def run_family(task: str, params: Dict[str, int], feasible_only: bool):
        def one_pass() -> None:
            stream = get_family("random-trees").generate(
                params["count"] * (3 if feasible_only else 1),
                seed=params["seed"],
                min_n=params["min_n"],
                max_n=params["max_n"],
            )
            if feasible_only:
                # deterministic prefix of feasible entries: the elect task
                # rejects infeasible graphs, and "mixed" families may
                # contain them
                def feasible(entries):
                    taken = 0
                    for name, g in entries:
                        if stable_partition(g).discrete:
                            yield name, g
                            taken += 1
                            if taken == params["count"]:
                                return

                stream = feasible(stream)
            records = list(run_stream(stream, task, EngineConfig(workers=1)))
            if not records:
                raise ReproError(f"sweep scenario produced no records ({task})")

        return one_pass

    cases: List[Case] = []
    for case_name, task, params, feasible_only in (
        ("random-trees-index", "index", index_params, False),
        ("random-trees-elect", "elect", elect_params, True),
    ):
        seconds, reps, resources = _time_case(
            run_family(task, params, feasible_only), repeats, clear_caches=True
        )
        cases.append(
            {
                "case": case_name,
                "seconds": seconds,
                "repeats": reps,
                "count": params["count"],
                **resources,
            }
        )
    return cases


@register_scenario("strict")
def _scenario_strict(quick: bool) -> List[Case]:
    """Strict-wire election: every message serialized to bits and decoded
    back — the byte-honest engine plus the coding layer, broken down per
    graph family (trees, caterpillars, lollipops) so a coding-layer
    regression shows *where* it bites.

    Each case is classified ``bound="wire"`` (serialization dominates the
    profile: dense lollipop views recur across many ports and rounds) or
    ``bound="compute"`` (advice decode / trie queries dominate; the codec
    caches cannot help much).  The pre-optimization codec survives as
    ``seed_wire_wrapped``, so every case first asserts the fast path
    byte-identical to it on the full run (outputs, rounds, per-round
    message counts, per-node ``bits_sent``) and then times both on the
    identical workload; the ratio is emitted as ``speedup_vs_seed``, the
    number the CI gate reads (>= 3x on wire-bound cases), alongside the
    shared message plane's dedup hit counters."""
    from repro.core.advice import compute_advice
    from repro.core.elect import ElectAlgorithm
    from repro.graphs.generators import caterpillar, lollipop, random_tree
    from repro.sim import run_sync
    from repro.sim.strict import MessagePlane, seed_wire_wrapped, wire_wrapped
    from repro.views import clear_view_caches

    # parameters chosen so every graph is feasible (asserted below)
    if quick:
        specs = [
            (
                "elect-wire-tree-n24",
                "random-trees",
                "compute",
                lambda: random_tree(24, seed=2),
            ),
            (
                "elect-wire-caterpillar-s8",
                "caterpillars",
                "compute",
                lambda: caterpillar(8, (1, 3, 0, 2, 4, 0, 1, 2)),
            ),
            (
                "elect-wire-lollipop-k8t12",
                "lollipops",
                "wire",
                lambda: lollipop(8, 12),
            ),
        ]
    else:
        specs = [
            (
                "elect-wire-tree-n60",
                "random-trees",
                "compute",
                lambda: random_tree(60, seed=2),
            ),
            (
                "elect-wire-tree-n90",
                "random-trees",
                "compute",
                lambda: random_tree(90, seed=4),
            ),
            (
                "elect-wire-caterpillar-s16",
                "caterpillars",
                "compute",
                lambda: caterpillar(
                    16, (1, 3, 0, 2, 4, 0, 1, 2, 5, 0, 3, 1, 2, 0, 4, 1)
                ),
            ),
            (
                "elect-wire-lollipop-k8t20",
                "lollipops",
                "wire",
                lambda: lollipop(8, 20),
            ),
        ]
    repeats = 2 if quick else 3
    cases: List[Case] = []
    for case_name, family, bound, build in specs:
        g = build()
        bundle = compute_advice(g)  # raises if infeasible: bad spec

        def run_capture(make_factory):
            """One full run capturing per-node wrappers for bits_sent."""
            instances: List[Any] = []

            def factory():
                a = make_factory()
                instances.append(a)
                return a

            result = run_sync(g, factory, advice=bundle.bits)
            if len(result.outputs) != g.n:
                raise ReproError("strict scenario lost node outputs")
            bits = [a.bits_sent for a in instances]
            return result, bits

        # parity first: a fast number from a wrong byte stream is
        # worthless, so refuse to time a path that diverges from the
        # seed codec anywhere in the run
        clear_view_caches()
        plane = MessagePlane()
        fast, fast_bits = run_capture(wire_wrapped(ElectAlgorithm, plane))
        stats = plane.stats()
        clear_view_caches()
        seed, seed_bits = run_capture(seed_wire_wrapped(ElectAlgorithm))
        if (
            fast.outputs != seed.outputs
            or fast.output_round != seed.output_round
            or fast.rounds != seed.rounds
            or fast.per_round_messages != seed.per_round_messages
            or fast_bits != seed_bits
        ):
            raise ReproError(
                f"strict scenario: cached and seed codecs disagree on "
                f"{case_name} — refusing to time a broken path"
            )

        def run() -> None:
            result = run_sync(
                g, wire_wrapped(ElectAlgorithm), advice=bundle.bits
            )
            if len(result.outputs) != g.n:
                raise ReproError("strict scenario lost node outputs")

        def run_seed() -> None:
            result = run_sync(
                g, seed_wire_wrapped(ElectAlgorithm), advice=bundle.bits
            )
            if len(result.outputs) != g.n:
                raise ReproError("strict scenario lost node outputs")

        seconds, reps, resources = _time_case(run, repeats, clear_caches=True)
        seed_seconds, _, _ = _time_case(run_seed, repeats, clear_caches=True)
        case: Case = {
            "case": case_name,
            "seconds": seconds,
            "repeats": reps,
            "n": g.n,
            "family": family,
            "bound": bound,
            "seed_seconds": seed_seconds,
            "speedup_vs_seed": (
                seed_seconds / seconds if seconds > 0 else None
            ),
            **resources,
        }
        case.update(stats)
        cases.append(case)
    return cases


@register_scenario("elect-orbit")
def _scenario_elect_orbit(quick: bool) -> List[Case]:
    """The orbit-collapsed engine against the per-node engine on the
    symmetric families where the collapse pays: each case runs the
    uniform-advice depth-T view probe (the COM core every election
    algorithm starts with) once per behavior class instead of once per
    node.  ``seconds`` times the collapsed path end to end — partition
    *plus* engine, nothing precomputed — and the per-node engine is
    timed in-run on the identical workload; the ratio is emitted as
    ``speedup_vs_pernode``, the number the CI gate reads (>= 3x on the
    ``vertex-transitive`` cases).  The two runs are also compared for
    equality first: a fast number from a wrong path is worthless."""
    from repro.core.orbit_elect import behavior_classes, run_view_probe
    from repro.graphs.generators import (
        cycle_with_leader_gadget,
        grid_torus,
        hypercube,
        lift,
        ring,
    )
    from repro.views import clear_view_caches

    if quick:
        specs = [
            ("probe-ring-n256", "vertex-transitive", lambda: ring(256), 8),
            ("probe-torus-10x11", "vertex-transitive", lambda: grid_torus(10, 11), 8),
            ("probe-hypercube-d6", "vertex-transitive", lambda: hypercube(6), 6),
            (
                "probe-lift-r12x3",
                "lifts",
                lambda: lift(cycle_with_leader_gadget(12), 3, seed=5),
                8,
            ),
        ]
        repeats = 2
    else:
        specs = [
            ("probe-ring-n1024", "vertex-transitive", lambda: ring(1024), 10),
            ("probe-torus-24x25", "vertex-transitive", lambda: grid_torus(24, 25), 10),
            ("probe-hypercube-d8", "vertex-transitive", lambda: hypercube(8), 8),
            (
                "probe-lift-r40x3",
                "lifts",
                lambda: lift(cycle_with_leader_gadget(40), 3, seed=5),
                10,
            ),
        ]
        repeats = 3
    cases: List[Case] = []
    for case_name, family, build, depth in specs:
        g = build()
        part = behavior_classes(g)
        clear_view_caches()
        if run_view_probe(g, depth) != run_view_probe(g, depth, collapsed=False):
            raise ReproError(
                f"elect-orbit scenario: collapsed and per-node probes "
                f"disagree on {case_name} — refusing to time a broken path"
            )
        seconds, reps, resources = _time_case(
            lambda: run_view_probe(g, depth), repeats, clear_caches=True
        )
        pernode_seconds, _, _ = _time_case(
            lambda: run_view_probe(g, depth, collapsed=False),
            repeats,
            clear_caches=True,
        )
        cases.append(
            {
                "case": case_name,
                "seconds": seconds,
                "repeats": reps,
                "n": g.n,
                "family": family,
                "depth": depth,
                "orbits": part.num_orbits,
                "pernode_seconds": pernode_seconds,
                "speedup_vs_pernode": (
                    pernode_seconds / seconds if seconds > 0 else None
                ),
                **resources,
            }
        )
    return cases


@register_scenario("conformance")
def _scenario_conformance(quick: bool) -> List[Case]:
    """Differential-oracle cells: every algorithm x sim model x schedule
    on a small corpus prefix — the conformance engine's unit of work."""
    from repro.conformance.oracle import ConformanceConfig, conformance_entry
    from repro.corpus import get_family

    per_family = 1 if quick else 3
    repeats = 1 if quick else 2
    config = ConformanceConfig(schedules=2, seed=0)
    cases: List[Case] = []
    for family in ("tori", "random-trees"):
        entries = list(get_family(family).generate(per_family, seed=0))

        def run(entries=entries) -> None:
            for name, g in entries:
                records = conformance_entry(name, g, config)
                if not records:
                    raise ReproError("conformance scenario produced no records")

        seconds, reps, resources = _time_case(run, repeats, clear_caches=True)
        cases.append(
            {
                "case": f"{family}-x{per_family}",
                "seconds": seconds,
                "repeats": reps,
                "entries": per_family,
                **resources,
            }
        )
    return cases


@register_scenario("service")
def _scenario_service(quick: bool) -> List[Case]:
    """The query service on a repeated-query mix: corpus-family graphs,
    each queried several times under fresh node relabelings — the
    workload the canonical-form cache exists for.  Cold runs disable the
    cache (capacity 0: every query computes); warm runs pre-answer one
    representative per isomorphism class and then serve the whole mix
    from the cache.  Warm cases carry ``speedup_vs_cold`` against the
    same mode's cold case — the number the acceptance gate reads."""
    import random

    from repro.corpus import get_family
    from repro.graphs.canonical import relabel_nodes
    from repro.service.api import ServiceCore
    from repro.service.cache import ResultCache
    from repro.views.refinement import stable_partition

    if quick:
        per_family, relabelings, repeats = 3, 3, 1
        families = (
            ("random-trees", dict(min_n=16, max_n=40)),
            ("caterpillars", dict(min_spine=4, max_spine=8)),
        )
    else:
        per_family, relabelings, repeats = 6, 5, 2
        families = (
            ("random-trees", dict(min_n=30, max_n=80)),
            ("caterpillars", dict(min_spine=8, max_spine=16)),
        )

    # the mix: feasible graphs (elect is the paper's full pipeline and
    # the service's heaviest task) from two tree-shaped families
    bases = []
    for family, params in families:
        taken = 0
        for name, g in get_family(family).generate(
            per_family * 4, seed=0, **params
        ):
            if stable_partition(g).discrete:
                bases.append(g)
                taken += 1
                if taken == per_family:
                    break
    rng = random.Random(7)
    queries = []
    for _ in range(relabelings):
        for g in bases:
            perm = list(range(g.n))
            rng.shuffle(perm)
            queries.append(relabel_nodes(g, perm))

    def fresh_payloads() -> None:
        # a real client ships a fresh payload per request: drop the
        # derived caches so every timed query pays its canonicalization
        for g in queries:
            g._csr_cache = None
            g._canon_cache = None

    def run_single(core: ServiceCore) -> None:
        fresh_payloads()
        for g in queries:
            core.query("elect", g)

    def run_batch(core: ServiceCore) -> None:
        fresh_payloads()
        core.batch([("elect", g) for g in queries])

    def cold_core() -> ServiceCore:
        return ServiceCore(ResultCache(capacity=0))

    def warm_core() -> ServiceCore:
        core = ServiceCore(ResultCache())
        for g in bases:
            core.query("elect", g)
        return core

    cases: List[Case] = []
    cold_seconds: Dict[str, float] = {}
    for mode, run in (("single", run_single), ("batch", run_batch)):
        for temp, make_core in (("cold", cold_core), ("warm", warm_core)):
            core = make_core()  # built once: cold never caches, warm is
            # pre-populated, so repeats measure a steady state either way
            seconds, reps, resources = _time_case(
                lambda: run(core), repeats, clear_caches=True
            )
            case: Case = {
                "case": f"{temp}-{mode}",
                "seconds": seconds,
                "repeats": reps,
                "queries": len(queries),
                **resources,
            }
            if temp == "cold":
                cold_seconds[mode] = seconds
            elif seconds > 0:
                case["speedup_vs_cold"] = cold_seconds[mode] / seconds
            cases.append(case)
    return cases


@register_scenario("service-load")
def _scenario_service_load(quick: bool) -> List[Case]:
    """The service under concurrent clients: distinct feasible graphs,
    each queried once, driven by 1/8/64 client threads against the
    in-process core (every cold compute serialized on the compute lock)
    and the fingerprint-sharded core (one worker process per shard).
    Cold cases measure compute throughput, warm cases the lookup path.
    Each case carries wall-clock ``seconds``, ``qps`` and per-query
    ``p50_ms``/``p99_ms``; sharded cold cases carry
    ``speedup_vs_inproc`` against the in-process case at the same
    concurrency — the number the CI gate reads (the sharded speedup only
    materializes on a multi-core box; a 1-CPU container measures ~1x).

    Before any timing, both compute modes answer the full query set
    sequentially and the response payloads are compared byte for byte —
    the harness refuses to time a broken path."""
    import threading

    from repro.corpus import get_family
    from repro.engine.engine import available_parallelism
    from repro.service.api import ServiceCore
    from repro.service.cache import ResultCache
    from repro.views.refinement import stable_partition

    if quick:
        num_graphs, repeats = 16, 1
        concurrencies: Tuple[int, ...] = (1, 8)
        params = dict(min_n=14, max_n=28)
    else:
        num_graphs, repeats = 64, 2
        concurrencies = (1, 8, 64)
        params = dict(min_n=30, max_n=60)
    shards = max(2, min(4, available_parallelism()))

    graphs = []
    for _name, g in get_family("random-trees").generate(
        num_graphs * 4, seed=11, **params
    ):
        if stable_partition(g).discrete:  # feasible: elect completes
            graphs.append(g)
            if len(graphs) == num_graphs:
                break

    def fresh_payloads() -> None:
        # a real client ships a fresh payload per request: drop the
        # derived caches so every timed query pays its canonicalization
        for g in graphs:
            g._csr_cache = None
            g._canon_cache = None

    def run_clients(core: ServiceCore, clients: int) -> Tuple[float, List[float]]:
        """One sweep: every graph queried once, the work pre-partitioned
        round-robin across ``clients`` threads (a shared-iterator pop is
        not thread-safe; the partition is deterministic and balanced).
        Returns (wall seconds, per-query latencies)."""
        latencies = [0.0] * len(graphs)
        failures: List[BaseException] = []

        def client(start: int) -> None:
            try:
                for i in range(start, len(graphs), clients):
                    q0 = time.perf_counter()
                    core.query("elect", graphs[i])
                    latencies[i] = time.perf_counter() - q0
            except ReproError as exc:  # pragma: no cover - fails the case
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if failures:  # pragma: no cover - deterministic feasible corpus
            raise failures[0]
        return wall, latencies

    def percentile_ms(latencies: List[float], q: float) -> float:
        ordered = sorted(latencies)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return 1000.0 * ordered[index]

    def payload_bytes(core: ServiceCore) -> List[str]:
        fresh_payloads()
        return [
            json.dumps(core.query("elect", g).payload(), sort_keys=True)
            for g in graphs
        ]

    inproc_cold = ServiceCore(ResultCache(capacity=0))
    shard_cold = ServiceCore(ResultCache(capacity=0), shards=shards)
    cores = [inproc_cold, shard_cold]
    try:
        # refuse to time a broken path: the sharded answers must be
        # byte-identical to the in-process ones before any clock starts
        if payload_bytes(inproc_cold) != payload_bytes(shard_cold):
            raise ReproError(
                "service-load: sharded responses are not byte-identical "
                "to the in-process path; refusing to time a broken path"
            )

        def warm_core(n_shards: int) -> ServiceCore:
            core = ServiceCore(ResultCache(), shards=n_shards)
            cores.append(core)
            for g in graphs:
                core.query("elect", g)
            return core

        modes = (
            ("inproc", 0, inproc_cold, warm_core(0)),
            ("shard", shards, shard_cold, warm_core(shards)),
        )
        cases: List[Case] = []
        inproc_seconds: Dict[Tuple[str, int], float] = {}
        for temp_index, temp in enumerate(("cold", "warm")):
            for mode, n_shards, cold, warm in modes:
                core = (cold, warm)[temp_index]
                for clients in concurrencies:
                    gc_collections0, gc_collected0 = _gc_totals()
                    best: Optional[Tuple[float, List[float]]] = None
                    for _ in range(repeats):
                        fresh_payloads()
                        result = run_clients(core, clients)
                        if best is None or result[0] < best[0]:
                            best = result
                    assert best is not None
                    gc_collections1, gc_collected1 = _gc_totals()
                    wall, latencies = best
                    case: Case = {
                        "case": f"{temp}-{mode}-c{clients}",
                        "seconds": wall,
                        "repeats": repeats,
                        "clients": clients,
                        "queries": len(graphs),
                        "shards": n_shards,
                        "qps": len(graphs) / wall if wall > 0 else 0.0,
                        "p50_ms": percentile_ms(latencies, 0.50),
                        "p99_ms": percentile_ms(latencies, 0.99),
                        "peak_rss_kb": _peak_rss_kb(),
                        "gc_collections": gc_collections1 - gc_collections0,
                        "gc_collected": gc_collected1 - gc_collected0,
                    }
                    if mode == "inproc":
                        inproc_seconds[(temp, clients)] = wall
                    elif wall > 0:
                        case["speedup_vs_inproc"] = (
                            inproc_seconds[(temp, clients)] / wall
                        )
                    cases.append(case)
        return cases
    finally:
        for core in cores:
            core.close()


def warm_from_stores(
    cache: "ResultCache",
    store_paths: Sequence[str],
    corpus: Iterable[Tuple[str, "PortGraph"]],
    tasks: Optional[Sequence[str]] = None,
) -> Tuple[int, int]:
    """Pre-populate ``cache`` from JSONL result stores (``repro warehouse
    export`` files) by re-streaming their corpus: the reference that the
    ``warehouse`` scenario below and ``tests/test_warehouse.py`` check
    and time :func:`~repro.service.cache.warm_from_warehouse`'s join
    against.

    ``corpus`` supplies the ``(name, graph)`` entries the stores were
    swept over (a corpus family stream, or a ``corpus emit`` file); only
    names that appear in some store are fingerprinted, so re-opening a
    large family to warm a small store stays cheap.

    Returns ``(warmed, skipped)``: entries inserted, and store records
    skipped (non-warmable task, sub-record of a group, or no graph with
    that name in ``corpus``).  ``tasks`` defaults to
    :data:`~repro.service.cache.WARMABLE_TASKS`.
    """
    from repro.graphs.canonical import canonical_form
    from repro.service.cache import WARMABLE_TASKS, canonicalize_record

    wanted = set(WARMABLE_TASKS if tasks is None else tasks)
    by_name: Dict[str, Dict[str, Any]] = {}
    skipped = 0
    for path in store_paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                task = record.get("task")
                name = record.get("name")
                if (
                    task not in wanted
                    or not isinstance(name, str)
                    or record.get("entry", name) != name
                ):
                    skipped += 1
                    continue
                by_name.setdefault(name, {})[task] = record
    warmed = 0
    for name, graph in corpus:
        records = by_name.pop(name, None)
        if not records:
            continue
        form = canonical_form(graph)
        for task, record in records.items():
            cache.put(
                (form.fingerprint, task),
                canonicalize_record(
                    record, task, form.to_canonical, form.fingerprint
                ),
            )
            warmed += 1
        if not by_name:
            break  # every store record matched; stop paying the stream
    skipped += sum(len(records) for records in by_name.values())
    return warmed, skipped


@register_scenario("warehouse")
def _scenario_warehouse(quick: bool) -> List[Case]:
    """Service warm-up from past sweep output: the legacy corpus
    re-stream (``warm_from_stores`` regenerates every graph and
    recomputes its canonical certificate) against the warehouse join
    (``warm_from_warehouse``: one indexed query over the content
    addresses a warehouse-backed sweep stored as it ran).  The sweep
    itself is untimed setup; both paths are checked to produce an
    identical cache before either is timed, and the join case carries
    ``speedup_vs_restream`` — the number the acceptance gate reads."""
    import shutil
    import tempfile

    from repro.analysis.sweep import sweep_to_store
    from repro.corpus import get_family
    from repro.engine import open_result_store
    from repro.service.cache import ResultCache, warm_from_warehouse
    from repro.warehouse import Warehouse, export_dataset

    count = 150 if quick else 1000
    repeats = 2 if quick else 3
    params = dict(min_n=10, max_n=24)

    def corpus():
        return get_family("random-trees").generate(count, seed=0, **params)

    tmp = tempfile.mkdtemp(prefix="repro-bench-warehouse-")
    try:
        wh_path = os.path.join(tmp, "results.sqlite")
        store_path = os.path.join(tmp, "sweep.jsonl")
        with open_result_store(wh_path, dataset="sweep") as store:
            sweep_to_store(corpus(), "index", store)
        with Warehouse(wh_path) as wh:
            export_dataset(wh, "sweep", store_path)

        def restream() -> ResultCache:
            cache = ResultCache(capacity=count)
            warmed, _skipped = warm_from_stores(
                cache, [store_path], corpus()
            )
            if warmed != count:
                raise ReproError(
                    f"warehouse scenario: re-stream warmed {warmed}/{count}"
                )
            return cache

        def join() -> ResultCache:
            cache = ResultCache(capacity=count)
            warmed = warm_from_warehouse(cache, wh_path)
            if warmed != count:
                raise ReproError(
                    f"warehouse scenario: join warmed {warmed}/{count}"
                )
            return cache

        # a fast number from a wrong path is worthless: both warmers
        # must fill an identical cache before either is timed
        if restream()._entries != join()._entries:
            raise ReproError(
                "warehouse scenario: join-warmed cache differs from "
                "re-stream-warmed cache — refusing to time a broken path"
            )

        restream_seconds, reps, restream_res = _time_case(restream, repeats)
        join_seconds, _, join_res = _time_case(join, repeats)
        return [
            {
                "case": f"warm-restream-n{count}",
                "seconds": restream_seconds,
                "repeats": reps,
                "entries": count,
                **restream_res,
            },
            {
                "case": f"warm-warehouse-n{count}",
                "seconds": join_seconds,
                "repeats": reps,
                "entries": count,
                "restream_seconds": restream_seconds,
                "speedup_vs_restream": (
                    restream_seconds / join_seconds
                    if join_seconds > 0
                    else None
                ),
                **join_res,
            },
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# records and validation
# ----------------------------------------------------------------------
def make_bench_record(
    scenario: str, cases: List[Case], quick: bool
) -> Dict[str, Any]:
    """Assemble the canonical ``BENCH_<scenario>.json`` record."""
    return {
        "schema": BENCH_SCHEMA,
        "kind": "timing",
        "scenario": scenario,
        "quick": quick,
        "env": env_fingerprint(),
        "cases": cases,
    }


def make_table_record(scenario: str, title: str, body: str) -> Dict[str, Any]:
    """The ``kind="table"`` twin for historical prose benches: same schema
    envelope, one case carrying the table text."""
    return {
        "schema": BENCH_SCHEMA,
        "kind": "table",
        "scenario": scenario,
        "quick": False,
        "env": env_fingerprint(),
        "cases": [{"case": scenario, "title": title, "text": body}],
    }


def _is_number(value: Any) -> bool:
    """A finite JSON number: ``bool`` is an ``int`` subclass and
    ``json.loads`` reads ``NaN`` and ``Infinity``, so neither check is
    implied by ``isinstance``."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_bench_record(record: Any) -> None:
    """Raise :class:`ReproError` unless ``record`` is a well-formed
    ``repro-bench/1`` record (the CI schema gate)."""

    def fail(msg: str) -> None:
        raise ReproError(f"malformed bench record: {msg}")

    if not isinstance(record, dict):
        fail(f"expected an object, got {type(record).__name__}")
    if record.get("schema") != BENCH_SCHEMA:
        fail(f"schema must be '{BENCH_SCHEMA}', got {record.get('schema')!r}")
    kind = record.get("kind")
    if kind not in ("timing", "table"):
        fail(f"kind must be 'timing' or 'table', got {kind!r}")
    scenario = record.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        fail("scenario must be a non-empty string")
    if not isinstance(record.get("quick"), bool):
        fail("quick must be a boolean")
    env = record.get("env")
    if not isinstance(env, dict) or not env.get("python") or not env.get("platform"):
        fail("env must carry at least python and platform")
    # records written before the in-run ratios carry a recorded-baseline
    # envelope and per-case baseline_seconds/speedup; they stay valid
    baseline = record.get("baseline")
    if baseline is not None and not isinstance(baseline, dict):
        fail("baseline must be null or an object")
    cases = record.get("cases")
    if not isinstance(cases, list) or not cases:
        fail("cases must be a non-empty list")
    for i, case in enumerate(cases):
        if not isinstance(case, dict) or not isinstance(case.get("case"), str):
            fail(f"cases[{i}] must be an object with a string 'case'")
        if kind == "timing":
            seconds = case.get("seconds")
            if not _is_number(seconds) or seconds < 0:
                fail(f"cases[{i}].seconds must be a non-negative number")
            repeats = case.get("repeats")
            if type(repeats) is not int or repeats < 1:  # not a bool
                fail(f"cases[{i}].repeats must be a positive integer")
            ratios = [key for key in case if key.startswith(RATIO_PREFIX)]
            for key in ("baseline_seconds", "speedup", *ratios):
                value = case.get(key)
                if value is not None and not _is_number(value):
                    fail(f"cases[{i}].{key} must be null or a number")
        else:
            if not isinstance(case.get("text"), str):
                fail(f"cases[{i}].text must be a string (kind=table)")


def _in_run_ratio(case: Case) -> str:
    """The case's ``speedup_vs_<reference>`` as ``'29.22x seed'``, or
    ``'-'`` when the case times no reference path."""
    for key, value in case.items():
        if key.startswith(RATIO_PREFIX) and value is not None:
            return f"{value:.2f}x {key[len(RATIO_PREFIX):]}"
    return "-"


def bench_table(record: Dict[str, Any]) -> Tuple[List[str], List[Tuple]]:
    """``(columns, rows)`` for :func:`repro.analysis.format_table`."""
    columns = ["case", "seconds", "in-run ratio"]
    rows = []
    for case in record["cases"]:
        if record["kind"] == "table":
            rows.append((case["case"], "-", "-"))
            continue
        rows.append(
            (case["case"], f"{case['seconds']:.4f}", _in_run_ratio(case))
        )
    return columns, rows


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_bench(
    scenarios: List[str],
    quick: bool,
    out_dir: str,
    progress: Callable[[str], None] = lambda _msg: None,
    warehouse_path: Optional[str] = None,
    label: Optional[str] = None,
) -> List[str]:
    """Run the named scenarios, write one validated ``BENCH_*.json`` per
    scenario under ``out_dir``, and return the written paths.

    With ``warehouse_path``, the records are additionally stored in the
    results warehouse under one ``bench`` provenance run (labeled
    ``label``) — the rows ``repro report --trend`` renders as a
    cross-run perf trajectory.  The BENCH files stay the wire format:
    ``repro warehouse export --bench`` writes them back byte-identical.
    """
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    records: List[Dict[str, Any]] = []
    for scenario in scenarios:
        progress(f"scenario {scenario} ({'quick' if quick else 'full'}) ...")
        cases = SCENARIOS[scenario](quick)
        record = make_bench_record(scenario, cases, quick)
        validate_bench_record(record)
        path = os.path.join(out_dir, f"BENCH_{scenario}.json")
        write_json(path, record)
        written.append(path)
        records.append(record)
    if warehouse_path is not None:
        from repro.warehouse import Warehouse

        with Warehouse(warehouse_path) as wh:
            run_id = wh.begin_run("bench", label)
            for record in records:
                wh.append_bench(record, run_id)
            wh.finish_run(run_id)
        progress(
            f"{len(records)} record(s) stored in {warehouse_path} "
            f"(run {run_id})"
        )
    return written


def check_bench_dir(out_dir: str) -> List[str]:
    """Validate every ``BENCH_*.json`` under ``out_dir``; raise
    :class:`ReproError` on a malformed record or if none exist."""
    if not os.path.isdir(out_dir):
        raise ReproError(f"bench output directory '{out_dir}' does not exist")
    paths = sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not paths:
        raise ReproError(f"no BENCH_*.json records under '{out_dir}'")
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}: not valid JSON ({exc})") from None
        try:
            validate_bench_record(record)
        except ReproError as exc:
            raise ReproError(f"{path}: {exc}") from None
    return paths


def run_from_args(args) -> int:
    """Execute a parsed ``repro bench`` invocation (flags defined on the
    CLI subparser in :mod:`repro.cli`)."""
    if args.check is not None:
        paths = check_bench_dir(args.check)
        print(f"{len(paths)} bench record(s) valid under {args.check}")
        return 0

    names = (
        [s.strip() for s in args.scenario.split(",") if s.strip()]
        if args.scenario
        else sorted(SCENARIOS)
    )

    from repro.analysis.tables import format_table

    written = run_bench(
        names,
        args.quick,
        args.out_dir,
        progress=lambda msg: print(msg, flush=True),
        warehouse_path=getattr(args, "warehouse", None),
        label=getattr(args, "label", None),
    )
    for path in written:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        columns, rows = bench_table(record)
        print(f"\n== {record['scenario']} ==")
        print(format_table(columns, rows))
    print(f"\n{len(written)} record(s) written to {args.out_dir}")
    return 0
