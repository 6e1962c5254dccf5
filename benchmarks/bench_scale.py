"""E-scale — the Theorem 3.1 pipeline at four-digit n.

The small-n corpus establishes correctness; this bench establishes that
the O(n log n) envelope and the oracle's near-linear running time hold as
n grows by two orders of magnitude, and that the end-to-end simulation
(n nodes exchanging views) stays tractable.  The normalized constant
bits/(n lg n) must be non-increasing with n (convergence toward the
asymptotic constant).

Both sweeps run through the engine's *streaming* path
(:func:`repro.engine.run_stream`): graphs are generated lazily and
records consumed as they arrive, so the per-chunk view-cache lifecycle
bounds memory even at the largest instances, and extra workers can be
thrown at the corpus without changing a single record.  The registry
sweep at the bottom drives a four-digit-entry corpus family through a
persistent store — the "sweep service" configuration of ``repro sweep
--out``."""

import os

from repro.analysis import format_table
from repro.analysis.sweep import sweep_to_store
from repro.corpus import iter_corpus
from repro.core import run_elect
from repro.engine import EngineConfig, open_result_store, run_stream
from repro.lowerbounds import hk_graph, necklace

from benchmarks.conftest import OUT_DIR, emit


def test_scale_advice(benchmark):
    def corpus_stream():
        # built lazily: at these sizes even holding all five graphs at
        # once is measurable, and the stream path only ever holds a chunk
        for k in (16, 64, 256):
            yield f"hk-{k}", hk_graph(k)
        for k, phi in ((32, 2), (64, 3)):
            yield f"necklace-{k}-phi{phi}", necklace(k, phi, x=4)

    records = list(
        run_stream(corpus_stream(), "advice", EngineConfig(chunk_size=1))
    )
    rows = [
        (r["name"], r["n"], r["m"], r["advice_bits"],
         round(r["bits_per_n_bitlength"], 2))
        for r in records
    ]
    emit(
        "scale_advice",
        "Scale: ComputeAdvice at four-digit n (envelope constant must not "
        "grow)",
        format_table(["graph", "n", "m", "advice bits", "bits/(n lg n)"], rows),
    )
    ratios = [r["bits_per_n_bitlength"] for r in records[:3]]
    assert ratios == sorted(ratios, reverse=True)

    benchmark(
        lambda: next(
            run_stream(iter([("hk-64", hk_graph(64))]), "advice",
                       EngineConfig())
        )["advice_bits"]
    )


def test_scale_end_to_end(benchmark):
    """Full oracle + n-node simulation + verification at n ≈ 500."""
    g = hk_graph(100)
    rec = next(
        run_stream(iter([("hk-100", g)]), "elect", EngineConfig(chunk_size=1))
    )
    assert rec["n"] == g.n and rec["election_time"] == rec["phi"]
    emit(
        "scale_end_to_end",
        "Scale: full Elect pipeline",
        format_table(
            ["n", "phi", "advice bits", "time", "messages"],
            [(rec["n"], rec["phi"], rec["advice_bits"], rec["election_time"],
              rec["total_messages"])],
        ),
    )

    small = hk_graph(24)
    benchmark(lambda: run_elect(small).leader)


def test_scale_streamed_registry_sweep(benchmark):
    """A 1000-entry registry corpus through the resumable store path —
    the configuration a long `repro sweep --out` run uses, at bench scale.
    Peak corpus residency is one chunk; the store ends with one record
    per entry and resuming it is a no-op."""
    spec = "vertex-transitive:1000,seed=11"
    path = os.fspath(OUT_DIR / "scale_streamed_registry.sqlite")
    OUT_DIR.mkdir(exist_ok=True)
    with open_result_store(path) as store:
        ran, skipped = sweep_to_store(
            iter_corpus(spec), "index", store, workers=2
        )
    assert (ran, skipped) == (1000, 0)
    with open_result_store(path, resume=True) as store:
        ran, skipped = sweep_to_store(iter_corpus(spec), "index", store)
    assert (ran, skipped) == (0, 1000)
    emit(
        "scale_streamed_registry",
        "Scale: streamed 1000-graph registry sweep (index task, resumable "
        "store)",
        f"spec = {spec}\nrecords = 1000 (resume is a no-op)\n"
        f"store = {path}",
    )

    benchmark(
        lambda: sum(
            1
            for _ in run_stream(
                iter_corpus("vertex-transitive:50,seed=11"), "index",
                EngineConfig(),
            )
        )
    )
