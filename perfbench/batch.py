"""One run of a batch workload, in a fresh interpreter.

    python3 perfbench/batch.py --workload batch-elect --seed 1 --seconds 20 \
        --trace 0 --workdir DIR --result FILE [--probe]

Prints ``READY`` once set-up is done (imports and the results store
open); with ``--probe`` it exits there.  Otherwise it runs one untimed
warm-up entry, then repeats whole passes of the seeded corpus (elect: each
into a fresh results store) until ``--seconds`` of measured time and at
least ``MIN_OPS`` entries are done, timing each entry around its own call.
After every entry it times the host-speed reference loop.  Then it checks
every output against the offline engine and writes its samples to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from common import MIN_OPS, reference_s, use_program_source, write_json


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("batch-elect", "batch-conformance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    use_program_source()

    elect = args.workload == "batch-elect"
    store_paths = []
    if elect:
        from repro.analysis.sweep import sweep_to_store
        from repro.engine import open_result_store

        def open_store():
            store_paths.append(os.path.join(
                args.workdir, f"results-{os.getpid()}-{len(store_paths)}.sqlite"))
            return open_result_store(store_paths[-1])

        store = open_store()

        def run_entry(name, graph):
            sweep_to_store(iter([(name, graph)]), "elect", store)
    else:
        from repro.conformance.oracle import ConformanceConfig, conformance_entry
        from repro.views.view import clear_view_caches

        def run_entry(name, graph):
            records = conformance_entry(name, graph, config)
            clear_view_caches()  # the engine's per-chunk cache lifetime
            return records[-1]

    print("READY", flush=True)
    if args.probe:
        if elect:
            store.close()
        return

    import workloads
    from repro.graphs.generators import cycle_with_leader_gadget

    if not elect:
        config = ConformanceConfig(
            schedules=workloads.CONFORMANCE_SCHEDULES, seed=args.seed)
    entries = workloads.batch_pass(args.workload, args.seed)  # untimed
    run_entry("warm-up", cycle_with_leader_gadget(5))  # lazy imports, untimed

    wrappers = totals = ref_totals = None
    if args.trace:
        from repro import obs
        from tracing import Totals, check_complete, install

        wrappers, totals, ref_totals = install(), Totals(), Totals()
        obs.enable()
    latencies, failures, ref_samples = [], {}, []
    plane_stats = {"encode_calls": 0, "encode_hits": 0,
                   "decode_calls": 0, "decode_hits": 0}
    cells = disagreements = 0
    measured = 0.0
    passes = 0
    while measured < args.seconds or passes * len(entries) < MIN_OPS:
        if elect and passes:
            store.close()
            store = open_store()
        for i, (name, graph) in enumerate(entries):
            op = passes * len(entries) + i
            t0 = time.perf_counter()
            try:
                if wrappers is None:
                    summary = run_entry(name, graph)
                else:
                    with obs.span("op", layer=True, op=op):
                        summary = run_entry(name, graph)
            except Exception as exc:  # counted, reported, and fails the run
                measured += time.perf_counter() - t0
                failures[f"pass {passes}: {name}"] = f"{type(exc).__name__}: {exc}"
                continue
            latency = time.perf_counter() - t0
            measured += latency
            latencies.append(1000 * latency)
            if summary is not None:
                if summary["name"] != name or summary["total_disagreements"]:
                    failures[f"pass {passes}: {name}"] = (
                        f"{summary['total_disagreements']} conformance "
                        f"disagreements")
                if passes == 0:
                    cells += summary["cells"]
                    disagreements += summary["total_disagreements"]
            if wrappers is not None:
                events = obs.drain_events()
                check_complete(events)
                totals.add(events)
                planes = wrappers.take_planes()
                if passes == 0:
                    ref_totals.add(events)
                    for plane in planes:
                        for key, count in plane.stats().items():
                            plane_stats[key] += count
            ref_samples.append(reference_s())
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ops": passes * len(entries),
        "measured_s": measured,
        "latencies_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": ref_samples,
    }
    if wrappers is not None:
        from tracing import layer_metrics, self_time_table

        obs.disable()
        wrappers.uninstall()
        ops = passes * len(entries)
        layers = layer_metrics(totals, ref_totals, ops, plane_stats)
        layers["conformance.cells"] = cells
        layers["conformance.disagreements"] = disagreements
        result["layers"] = layers
        result["self_time"] = self_time_table(totals, ops)

    if elect:
        store.close()
        # the checks may use every CPU the benchmark was given
        os.sched_setaffinity(0, os.sched_getaffinity(os.getppid()))
        failures.update(check_elect_records(store_paths, entries, failures))
    result["failures"] = failures
    write_json(args.result, result)


def check_elect_records(store_paths, entries, failures):
    """Every stored record must be byte-equal to the offline engine's
    ``elect`` record for the same graph."""
    from repro.engine import record_to_json, run_experiments
    from repro.warehouse.db import Warehouse

    expected = [record_to_json(r)
                for r in run_experiments(entries, "elect", workers=2)]
    mismatches = {}
    for number, path in enumerate(store_paths):
        wh = Warehouse(path)
        try:
            stored = {json.loads(line)["name"]: line
                      for line in wh.iter_lines("sweep")}
        finally:
            wh.close()
        for (name, _graph), record in zip(entries, expected):
            key = f"pass {number}: {name}"
            if key not in failures and stored.get(name) != record:
                mismatches[key] = "stored record differs from the offline elect record"
    return mismatches


if __name__ == "__main__":
    main()
