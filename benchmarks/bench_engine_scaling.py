"""E-engine — engine throughput, on both engines of the repository:

* simulator throughput: rounds/second and messages/second of the
  synchronous LOCAL engine under COM workloads, across topologies;
* experiment-engine scaling: wall clock of the same Theorem 3.1 sweep at
  1, 2 and 4 worker processes through the engine's entry point
  (``run_stream``, whose parallel path keeps a bounded in-flight window)
  — with the determinism contract (parallel records byte-identical to
  serial) asserted on every run.

Not a paper table; this is the substrate-health bench that keeps the
simulators honest as the library grows (the per-round cost must stay
O(m) thanks to view interning, and the sweep must scale with cores)."""

import time

import pytest

from repro.analysis import format_table
from repro.analysis.sweep import corpus_with_phi
from repro.engine import (
    EngineConfig,
    available_parallelism,
    records_to_jsonl,
    run_stream,
)
from repro.graphs import grid_torus, random_regular, ring
from repro.sim import ViewAccumulator, run_sync

from benchmarks.conftest import emit


class ComRounds:
    def __init__(self, rounds):
        self._rounds = rounds
        self._acc = None

    def setup(self, ctx):
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx):
        return self._acc.outgoing()

    def deliver(self, ctx, inbox):
        self._acc.absorb(inbox)
        if self._acc.depth == self._rounds and not ctx.has_output:
            ctx.output(())


TOPOLOGIES = {
    "ring-200": lambda: ring(200),
    "torus-10x10": lambda: grid_torus(10, 10),
    "random-regular-100-4": lambda: random_regular(100, 4, seed=3),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_engine_com_rounds(benchmark, name):
    g = TOPOLOGIES[name]()
    rounds = 10
    result = benchmark(lambda: run_sync(g, lambda: ComRounds(rounds)))
    assert result.rounds == rounds


def test_engine_summary_table(benchmark):
    rows = []
    for name in sorted(TOPOLOGIES):
        g = TOPOLOGIES[name]()
        result = run_sync(g, lambda: ComRounds(10))
        rows.append((name, g.n, g.num_edges, result.rounds, result.total_messages))
    emit(
        "engine_scaling",
        "Engine: COM workload sizes (10 rounds to full output)",
        format_table(["topology", "n", "m", "rounds", "messages"], rows),
    )
    benchmark(lambda: run_sync(ring(60), lambda: ComRounds(5)).rounds)


# ----------------------------------------------------------------------
# experiment-engine scaling: the parallel sweep
# ----------------------------------------------------------------------
def _large_corpus():
    """The heaviest phi-controlled corpus the bench budget allows: the full
    Theorem 3.1 pipeline takes seconds per entry at these sizes."""
    return (
        corpus_with_phi(1, sizes=(10, 12, 14, 16))
        + corpus_with_phi(2, sizes=(6, 8, 10))
        + corpus_with_phi(3, sizes=(6, 8))
    )


def test_experiment_engine_scaling(benchmark):
    corpus = _large_corpus()
    timings = {}
    baseline = None
    rows = []
    for workers in (1, 2, 4):
        start = time.perf_counter()
        # chunk_size=1 keeps the chunks maximally balanced: the speedup
        # bound is the heaviest single graph, not a lumpy chunk.  The
        # timing covers the bounded in-flight window of the parallel
        # path.
        records = list(
            run_stream(
                iter(corpus), "elect",
                EngineConfig(workers=workers, chunk_size=1),
            )
        )
        elapsed = time.perf_counter() - start
        timings[workers] = elapsed
        if baseline is None:
            baseline = records
        else:
            # the determinism contract, asserted at bench scale
            assert records_to_jsonl(records) == records_to_jsonl(baseline)
        rows.append(
            (workers, len(corpus), round(elapsed, 2),
             round(timings[1] / elapsed, 2))
        )
    emit(
        "experiment_engine_scaling",
        f"Experiment engine: streamed Theorem 3.1 sweep wall clock "
        f"({len(corpus)} graphs, {available_parallelism()} CPUs available)",
        format_table(["workers", "graphs", "seconds", "speedup vs serial"], rows),
    )
    if available_parallelism() >= 4:
        assert timings[1] / timings[4] >= 2.0, (
            f"4-worker sweep only {timings[1] / timings[4]:.2f}x faster than "
            f"serial on {available_parallelism()} CPUs"
        )

    small = corpus_with_phi(1, sizes=(6, 8))
    benchmark(
        lambda: sum(
            1
            for _ in run_stream(
                iter(small), "elect", EngineConfig(workers=2)
            )
        )
    )
