"""The benchmark's one command.

    python3 perfbench/run.py --workload batch-elect --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --repeat 10       # steadiness table

Run from anywhere; it measures the program in this checkout's ``src/``.
Untraced runs (``--trace 0``) report the end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace 1``) report its per-layer
metrics.  The end-to-end latencies (and a closed loop's throughput) are
scaled to the reference host speed (``common.REFERENCE_S``), all but a
reply's wait on the delayed-ACK timer; the raw value is printed beside
each.  Each workload prints every metric with
its unit, then, as its last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  A failed correctness check prints
that line with ``"correct": false`` and exits 1.  A run that cannot be measured (its
load generator fell behind, or a p90 would rest on too few samples)
prints an error instead of a result and exits 1.  See README.md for what
each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from common import (
    BENCH_DIR,
    MEASURE_CPU,
    ROOT,
    TMP_ROOT,
    finish_child,
    host_scale,
    median,
    nearest_rank,
    program_present,
    read_json,
    setup_samples,
    spread,
    start_child,
    use_program_source,
    wait_ready,
)

WORKLOADS = ("batch-elect", "batch-conformance", "serve-mix")
#: Set-ups timed before an untraced run and as many after it, each
#: scaled by reference spawns around it (``common.setup_samples``); the
#: reported setup_s is their median.  One more, untimed, comes first so a
#: cold page cache or bytecode compile lands in no sample.
SETUPS_AROUND = 3


class RunFailed(Exception):
    """The run could not be measured (no result line is printed)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# batch workloads: each run in a fresh interpreter (perfbench/batch.py)
# ----------------------------------------------------------------------
def _batch_child(workload, seed, seconds, workdir, trace=0, probe=False):
    """Returns ``(set-up seconds, result or None)``."""
    result = workdir / f"result-{time.monotonic_ns()}.json"
    args = [str(BENCH_DIR / "batch.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--workdir", str(workdir), "--result", str(result)]
    if probe:
        args.append("--probe")
    started = time.perf_counter()
    proc = start_child(args)
    try:
        setup_s = wait_ready(proc, started)
    finally:
        # measurement, the warm-up and the offline check
        finish_child(proc, 3 * seconds + 60)
    return setup_s, None if probe else read_json(result)


def _batch_throughput(result) -> float:
    """Entries per second, at the reference host speed."""
    return (len(result["latencies_ms"]) / result["measured_s"]
            / host_scale(result["reference_s"]))


def _halves(plain, traced) -> dict:
    """Failures of a traced run's two halves, each counted on its own."""
    return {f"{half}: {op}": why
            for half, result in (("untraced", plain), ("traced", traced))
            for op, why in result["failures"].items()}


def run_batch(workload, seed, seconds, trace, workdir) -> dict:
    if trace:
        # the same seed untraced, then traced, half the time each: the
        # pair gives the tracing overhead
        _, plain = _batch_child(workload, seed, seconds / 2, workdir)
        _, traced = _batch_child(workload, seed, seconds / 2, workdir, trace=1)
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (
            _batch_throughput(traced) / _batch_throughput(plain))
        return {
            "attempted": plain["ops"] + traced["ops"],
            "failures": _halves(plain, traced),
            "layers": layers,
            "reference_s": traced["reference_s"],
            "self_time": traced["self_time"],
        }
    def probe():
        return _batch_child(workload, seed, seconds, workdir, probe=True)[0]

    probe()  # untimed
    setups = setup_samples(probe, {MEASURE_CPU}, SETUPS_AROUND)
    _, result = _batch_child(workload, seed, seconds, workdir)
    setups += setup_samples(probe, {MEASURE_CPU}, SETUPS_AROUND)
    return {
        "attempted": result["ops"],
        "failures": result["failures"],
        "latencies_ms": result["latencies_ms"],
        "ack_wait_ms": [0.0] * len(result["latencies_ms"]),
        "throughput_per_s": _batch_throughput(result),
        "throughput_note": (
            f"raw {len(result['latencies_ms']) / result['measured_s']:.4g}: "
            f"{len(result['latencies_ms'])} entries in "
            f"{result['measured_s']:.2f} s measured"),
        "peak_rss_mb": result["peak_rss_mb"],
        "setups": setups,
        "reference_s": result["reference_s"],
    }


# ----------------------------------------------------------------------
# serve-mix: the server in a subprocess, the load from this process
# ----------------------------------------------------------------------
def run_serve(seed, seconds, trace, workdir) -> dict:
    use_program_source()
    import serve
    import workloads

    def checked(result):
        late = result["late_p90_ms"]
        if late is None or late["value"] > serve.MAX_LATE_P90_MS:
            raise RunFailed(
                f"invalid run: the load generator sent late (p90 "
                f"{late and round(late['value'], 2)} ms > "
                f"{serve.MAX_LATE_P90_MS} ms); the client, not the server, "
                f"would set the latencies")
        if not result["reference_s"]:
            raise RunFailed("invalid run: the load never went quiet long "
                            "enough to sample the host's speed")
        return result

    if trace:
        plain = checked(serve.run(seed, seconds / 2, workdir, traced=False))
        traced = checked(serve.run(seed, seconds / 2, workdir, traced=True))
        layers = dict(traced["layers"])
        layers.update(traced["counters"])
        layers["loadgen.late_p90_ms"] = plain["late_p90_ms"]["value"]
        for kind in ("warm", "cold", "symmetric"):
            layers[f"loadgen.{kind}.latency_p50_ms"] = plain["kind_p50_ms"][kind]
        layers["trace.overhead_ratio"] = (
            traced["throughput_per_s"] / plain["throughput_per_s"])
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failures": _halves(plain, traced),
            "layers": layers,
            "reference_s": traced["reference_s"],
            "self_time": traced["self_time"],
        }
    def probe():
        server = serve.Server(workdir)
        server.stop()
        return server.setup_s

    probe()  # untimed
    setups = setup_samples(probe, serve.PARENT_CPUS, SETUPS_AROUND)
    result = checked(serve.run(seed, seconds, workdir, traced=False))
    setups += setup_samples(probe, serve.PARENT_CPUS, SETUPS_AROUND)
    return {
        "attempted": result["attempted"],
        "failures": result["failures"],
        "latencies_ms": result["latencies_ms"],
        "ack_wait_ms": result["ack_wait_ms"],
        "throughput_per_s": result["throughput_per_s"],
        # an open loop's rate is its schedule's: not scaled
        "throughput_note": (f"{len(result['latencies_ms'])} answered at "
                            f"{workloads.SERVE_RATE:g}/s offered"),
        "peak_rss_mb": result["peak_rss_mb"],
        "setups": setups,
        "reference_s": result["reference_s"],
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def end_to_end(outcome, scale) -> tuple:
    """``(metrics, notes)`` of an untraced run; each latency is multiplied
    by the host factor ``scale``, except the part it spent waiting on the
    kernel's delayed-ACK timer, which no CPU speed changes (the throughput
    already is at the reference speed).  Set-up times come scaled by
    reference spawns instead: they are mostly process start and imports,
    which the reference loop does not track."""
    raw = outcome["latencies_ms"]
    latencies = [(total - wait) * scale + wait
                 for total, wait in zip(raw, outcome["ack_wait_ms"])]
    p50, p90 = nearest_rank(latencies, 0.5), nearest_rank(latencies, 0.9)
    if p90 is None:
        raise RunFailed(f"refusing to report latency_p90_ms: only "
                        f"{len(latencies)} samples, fewer than 10 beyond it")
    setups = outcome["setups"]
    metrics = {
        "throughput_per_s": outcome["throughput_per_s"],
        "latency_p50_ms": p50["value"],
        "latency_p90_ms": p90["value"],
        "peak_rss_mb": outcome["peak_rss_mb"],
        "setup_s": median([s["value"] for s in setups]),
    }
    notes = {
        "throughput_per_s": outcome["throughput_note"],
        "latency_p50_ms": (f"raw {nearest_rank(raw, 0.5)['value']:.4g}; p50 of "
                           f"{p50['samples']} samples, {p50['beyond']} beyond"),
        "latency_p90_ms": (f"raw {nearest_rank(raw, 0.9)['value']:.4g}; p90 of "
                           f"{p90['samples']} samples, {p90['beyond']} beyond"),
        "setup_s": (f"median of {len(setups)}; raw "
                    + ", ".join(f"{s['raw']:.3f}" for s in setups)),
    }
    return metrics, notes


def run_one(spec, workload, seed, seconds, trace) -> int:
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={trace}", flush=True)
    workdir = TMP_ROOT / f"run-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        if workload == "serve-mix":
            outcome = run_serve(seed, seconds, trace, workdir)
        else:
            outcome = run_batch(workload, seed, seconds, trace, workdir)
        samples = outcome["reference_s"]
        open_loop = workload == "serve-mix"
        scale = host_scale(samples, trimmed=open_loop)
        if trace:
            listed = spec["per_layer"]
            values = {m["name"]: outcome["layers"].get(m["name"], 0) for m in listed}
            notes = {}
        else:
            listed = spec["end_to_end"]
            values, notes = end_to_end(outcome, scale)
    except (RunFailed, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"  host speed: reference loop at {1 / scale:.3f}x its reference "
          f"time ({'trimmed mean' if open_loop else 'mean'} of {len(samples)} "
          f"samples); " +
          ("per-layer metrics are as measured" if trace
           else "times scaled to the reference host"))
    for metric in listed:
        note = notes.get(metric["name"])
        print(f"  {metric['name']:<34} {values[metric['name']]:>14.6g} "
              f"{metric['unit']:<6}" + (f"  ({note})" if note else ""))
    failures = outcome["failures"]
    print(f"  {'failed_ratio':<34} {len(failures) / outcome['attempted']:>14.6g}"
          f"         ({len(failures)} of {outcome['attempted']} operations failed)")
    if trace:
        print("  self time per operation, by span:")
        print("\n".join(outcome["self_time"]))
    for op, why in list(failures.items())[:5]:
        print(f"  FAILED {op}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }), flush=True)
    return 1 if failures else 0


def steadiness(spec, workloads, seed, seconds, repeat) -> int:
    """Run each workload ``repeat`` times on seeds ``seed, seed + 1, ...``
    (each run a fresh ``run.py`` process) and print every end-to-end
    metric's median, quartiles and spread next to its bound."""
    status = 0
    for workload in workloads:
        values = defaultdict(list)
        for s in range(seed, seed + repeat):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(s), "--seconds", str(seconds)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                status = 1
                print(f"{workload} seed {s}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stderr[-2000:]}", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {s}: " + "  ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(values['setup_s'])} runs")
        print(f"  {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = spread(vals)
            bound = metric["bound"]
            verdict = ("steady" if share < bound / 3
                       else "within bound" if share <= bound else "TOO NOISY")
            print(f"  {metric['name']:<18} {median(vals):>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {share:>7.1%} {bound:>6.0%}  {verdict}")
        print(flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many untraced runs per "
                        "workload, seeds SEED, SEED+1, ...")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        return steadiness(spec, workloads, args.seed, seconds, args.repeat)
    status = 0
    for workload in workloads:
        status |= run_one(spec, workload, args.seed, seconds, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
