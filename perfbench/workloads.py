"""Seeded inputs of the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same graphs, relabelings and send schedule.  Sizes come in fixed ladders
(one tree of every size per cycle) so that two seeds differ only in tree
shapes and relabelings, never in the mix of sizes a percentile is drawn
from.  Requires ``repro`` on the path (see ``common.use_program_source``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from common import MIN_OPS
from repro.corpus import get_family
from repro.graphs.canonical import relabel_nodes
from repro.graphs.generators import circulant, grid_torus, hypercube
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import to_dict
from repro.views.refinement import stable_partition

Entry = Tuple[str, PortGraph]

#: batch-elect: one feasible tree of each size per cycle.  Per-entry cost
#: grows about as n^2 (per-node advice decode); at these sizes a 25 s run
#: holds some 240 entries, so its p90 has twenty samples beyond it.
ELECT_SIZES = (30, 40, 50, 60, 70)
#: A batch run repeats one pass of this many cycles, so every run of a
#: seed covers the same graphs whatever the program's speed, and a
#: percentile picks the same graphs each time.  Sixteen trees of a size
#: keep a percentile's graph from one seed to the next alike.
PASS_CYCLES = 16

#: batch-conformance: one feasible tree of each size, plus one infeasible
#: tree (n in CONFORMANCE_INFEASIBLE_N) per cycle, so every cycle runs the
#: labeling-scheme-only path and a non-trivial orbit collapse once.
CONFORMANCE_SIZES = (8, 10, 12, 14, 16, 18)
CONFORMANCE_INFEASIBLE_N = (5, 8)
CONFORMANCE_SCHEDULES = 2

#: serve-mix: offered load, in queries per second.  At this rate the
#: shard worker computes about a third of the time (see README.md).
SERVE_RATE = 12.0
#: Cold ``elect`` queries ask feasible trees of one size, so the slow
#: tail a p90 falls in is one population, not a boundary between sizes.
SERVE_COLD_N = 60
#: Trees queried (closed loop, untimed) before the schedule starts, so
#: warm repeats are possible from its first second.
SERVE_PRIMED = 8
#: A warm repeat only names a tree whose cold query was due at least this
#: long before it, so it is always a memory-tier hit.
WARM_LAG_S = 2.0
#: The schedule comes in blocks of this many sends: 16 warm, 3 cold and 1
#: symmetric (80 / 15 / 5 %), the symmetric one at a seeded slot.  The
#: p50 falls among the warm hits and the p90 among the cold computes,
#: each well inside its population.  Symmetric queries are kept to 5%: a
#: warm hit that overlaps one's canonical form waits for the GIL, and
#: with more of them a slow host pushed enough warm hits past the p50 to
#: make it jump.
SERVE_BLOCK = 20
#: Where a block's cold queries go: one every 6 or 7 sends (0.5 s or
#: more apart), so a cold compute never waits at the shard worker for the
#: one before it.  Shuffled, about one in six did, which put a
#: seed-dependent share of queueing into the p90.
SERVE_COLD_SLOTS = (0, 7, 14)
#: Vertex-transitive graphs (n = 156-300) for the symmetric queries;
#: fixed shapes, so a seed changes only their relabelings.
SYMMETRIC_GRAPHS = {
    "torus12x13": lambda: grid_torus(12, 13),
    "circ200o1+7": lambda: circulant(200, [1, 7]),
    "torus16x17": lambda: grid_torus(16, 17),
    "cube8": lambda: hypercube(8),
    "circ300o1+11+29": lambda: circulant(300, [1, 11, 29]),
}
#: The symmetric queries cycle through these (graph, task) slots.  A
#: slot's second visit comes some 17 s after its first, so it is a
#: cache hit that still pays the fingerprint.
SYMMETRIC_SLOTS = (
    ("torus12x13", "index"), ("circ200o1+7", "quotient"),
    ("torus16x17", "index"), ("cube8", "quotient"),
    ("circ300o1+11+29", "index"), ("torus12x13", "quotient"),
    ("circ200o1+7", "index"), ("torus16x17", "quotient"),
    ("cube8", "index"), ("circ300o1+11+29", "quotient"),
)


def _trees(seed: int, salt: int, min_n: int, max_n: int) -> Iterator[Entry]:
    family = get_family("random-trees")
    return family.generate(10**9, seed=seed * 1000 + salt,
                           min_n=min_n, max_n=max_n)


def _feasible(entries: Iterator[Entry], wanted: bool) -> Iterator[Entry]:
    return (e for e in entries if stable_partition(e[1]).discrete == wanted)


def tree_cycles(seed: int, sizes, infeasible_n=None) -> Iterator[List[Entry]]:
    """Endless cycles: for each size, the next feasible tree of that size's
    seeded ``random-trees`` stream; plus, when ``infeasible_n`` is given,
    the next infeasible tree with n in that range."""
    streams = [_feasible(_trees(seed, n, n, n), True) for n in sizes]
    extra = (
        _feasible(_trees(seed, 999, *infeasible_n), False)
        if infeasible_n
        else None
    )
    while True:
        cycle = [next(stream) for stream in streams]
        if extra is not None:
            cycle.append(next(extra))
        yield cycle


def batch_pass(workload: str, seed: int) -> List[Entry]:
    """The entries of one pass of a batch workload, in run order."""
    if workload == "batch-elect":
        cycles = tree_cycles(seed, ELECT_SIZES)
    else:
        cycles = tree_cycles(seed, CONFORMANCE_SIZES, CONFORMANCE_INFEASIBLE_N)
    return [entry for _ in range(PASS_CYCLES) for entry in next(cycles)]


@dataclass
class Query:
    """One serve-mix request, serialized before the run."""

    index: int
    due: float  # seconds after the schedule starts
    kind: str  # "primed" | "warm" | "cold" | "symmetric"
    task: str
    key: str  # the base graph this query is a relabeling of
    graph: PortGraph  # the submitted (relabeled) graph
    body: bytes


def _relabeled(rng: random.Random, g: PortGraph) -> PortGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel_nodes(g, perm)


def _body(g: PortGraph) -> bytes:
    return json.dumps({"graph": to_dict(g)}, separators=(",", ":")).encode()


def serve_plan(seed: int, seconds: float) -> Tuple[List[Query], List[Query]]:
    """``(primed, schedule)``: the untimed priming queries, then the open
    loop's sends, :data:`SERVE_RATE` per second for ``seconds`` but at
    least ``MIN_OPS`` of them."""
    rng = random.Random(seed)
    cold = (cycle[0] for cycle in tree_cycles(seed, (SERVE_COLD_N,)))
    symmetric = {name: build() for name, build in SYMMETRIC_GRAPHS.items()}
    trees = {}

    def query(index, due, kind, task, key, base):
        g = _relabeled(rng, base)
        return Query(index, due, kind, task, key, g, _body(g))

    primed = []
    warm_pool: List[Tuple[float, str]] = []  # (due of its cold query, key)
    for i in range(SERVE_PRIMED):
        key, g = next(cold)
        trees[key] = g
        warm_pool.append((float("-inf"), key))
        primed.append(query(-1 - i, 0.0, "primed", "elect", key, g))

    schedule: List[Query] = []
    symmetric_sent = 0
    for index in range(max(int(seconds * SERVE_RATE), MIN_OPS)):
        slot = index % SERVE_BLOCK
        if slot == 0:
            symmetric_slot = rng.choice(
                [s for s in range(SERVE_BLOCK) if s not in SERVE_COLD_SLOTS])
        kind = ("cold" if slot in SERVE_COLD_SLOTS
                else "symmetric" if slot == symmetric_slot else "warm")
        due = index / SERVE_RATE
        if kind == "warm":
            eligible = [k for d, k in warm_pool if d <= due - WARM_LAG_S]
            key = rng.choice(eligible)
            schedule.append(query(index, due, kind, "elect", key, trees[key]))
        elif kind == "cold":
            key, g = next(cold)
            trees[key] = g
            warm_pool.append((due, key))
            schedule.append(query(index, due, kind, "elect", key, g))
        else:
            key, task = SYMMETRIC_SLOTS[symmetric_sent % len(SYMMETRIC_SLOTS)]
            schedule.append(query(index, due, kind, task, key, symmetric[key]))
            symmetric_sent += 1
    return primed, schedule
