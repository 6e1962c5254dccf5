"""Helpers shared by the benchmark's processes: paths, percentiles, the
host-speed reference and the child-process plumbing.  Importing this
module touches nothing on disk."""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, cache files and traces; one subdirectory per
#: run, removed when the run ends.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Every run measures at least this many operations, so its p90 has at
#: least ten samples beyond it.
MIN_OPS = 100

#: The CPU the measured compute runs on (a batch run, the service's shard
#: worker).  Pinned, because the scheduler would otherwise place it on
#: whichever CPU is free, and CPUs of one virtual machine differ in speed.
MEASURE_CPU = max(os.sched_getaffinity(0))

#: Seconds :func:`reference_s` takes on the reference host.  End-to-end
#: latencies and a closed loop's throughput are scaled to that host by
#: :func:`host_scale` (see README.md, "Host speed").
REFERENCE_S = 0.010


def reference_s() -> float:
    """Seconds a fixed pure-Python workload takes now, on this thread's
    CPU: the host's current speed for interpreter-bound code like the
    program's (tuple and string building, dict inserts, list appends).
    The collector is off, so the program's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, sizes = {}, []
        for i in range(20_000):
            key = (i % 13, str(i & 255))
            table[key] = (i, key)
            if i % 3 == 0:
                sizes.append(len(table))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def host_scale(samples: Sequence[float], trimmed: bool = False) -> float:
    """Factor that turns a time measured alongside ``samples`` into the
    time on the reference host.  By default the mean, because a batch
    run's total time is the sum of its parts at whatever speed the host
    had then.  ``trimmed`` drops the fastest and slowest fifth first, for
    an open loop sampled in its idle gaps: there the samples are fewer,
    the host flips between a fast and a slow speed (a median jumps
    between the two), and a preempted sample reads several times slower
    (it would move a mean)."""
    if trimmed:
        cut = len(samples) // 5
        samples = sorted(samples)[cut:len(samples) - cut]
    return REFERENCE_S / statistics.fmean(samples)


#: A fresh interpreter importing standard modules the program uses too:
#: its wall time follows how fast the host starts a process and imports
#: code, which the reference loop does not.
REFERENCE_SPAWN = [sys.executable, "-c",
                   "import argparse, dataclasses, decimal, email.parser, "
                   "fractions, http.client, json, sqlite3, statistics, typing"]
#: Seconds :data:`REFERENCE_SPAWN` takes on the reference host.
REFERENCE_SPAWN_S = 0.100


def reference_spawn_s(cpus) -> float:
    """Seconds :data:`REFERENCE_SPAWN` takes now on ``cpus``."""
    started = time.perf_counter()
    subprocess.run(REFERENCE_SPAWN, check=True,
                   preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    return time.perf_counter() - started


def setup_samples(probe, cpus, count: int) -> List[Dict[str, float]]:
    """``count`` set-up times from ``probe()`` (seconds), each with its
    time at the reference host's speed: times :data:`REFERENCE_SPAWN_S`
    over the mean of the reference spawns timed on ``cpus`` just before
    and just after it.  Set-ups a second apart agree closely but runs a
    minute apart differ by a third as the host changes speed; the spawns
    follow that drift (on sixteen groups of set-ups over four minutes:
    spread 19.7% raw, 5.4% scaled), the reference loop does not."""
    samples = []
    before = reference_spawn_s(cpus)
    for _ in range(count):
        raw = probe()
        after = reference_spawn_s(cpus)
        samples.append({"raw": raw,
                        "value": raw * REFERENCE_SPAWN_S / ((before + after) / 2)})
        before = after
    return samples


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: the program from
    this checkout, and a fixed hash seed so set and dict orders repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def nearest_rank(values: Sequence[float], q: float,
                 min_beyond: int = MIN_BEYOND) -> Optional[Dict[str, float]]:
    """The nearest-rank ``q`` quantile (0 < q < 1) with its sample counts,
    or None when fewer than ``min_beyond`` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    index = max(0, math.ceil(q * len(ordered)) - 1)
    beyond = len(ordered) - index - 1
    if beyond < min_beyond:
        return None
    return {"value": ordered[index], "samples": len(ordered), "beyond": beyond}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance (``statistics.quantiles``) as a share of
    the median: the run-to-run spread a metric's bound is held against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def start_child(args: List[str]) -> subprocess.Popen:
    """Start a benchmark child script, pinned to :data:`MEASURE_CPU`, with
    the program on its path; its stdout is a pipe the caller reads the
    ``READY`` line from."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {MEASURE_CPU}),
    )


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from ``started`` until the child printed ``READY``."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not become ready (got {line!r})")
    return time.perf_counter() - started


def finish_child(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child overran {timeout:.0f} s and was killed")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
