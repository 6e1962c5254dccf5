"""Orbit-collapsed election: simulate once per orbit, replicate to members.

Nodes in the same orbit of the port-automorphism group are
*indistinguishable* to every deterministic anonymous algorithm run with
identical advice: a port-preserving automorphism maps a node's entire
local history (degree, advice, per-port message sequence) onto its
image's, so same-orbit nodes hold equal states, compose equal outboxes
and commit equal outputs in every round.  :class:`OrbitEngine` exploits
this: it runs :class:`~repro.sim.local_model.SyncEngine`'s round loop
over a collapsed partition, one algorithm per block representative,
with its results replicated to all members — producing a
:class:`~repro.sim.local_model.RunResult` equal, field for field, to the
per-node run, which is the same loop over the discrete partition.  What
checks the shared loop is independent of it: on every sweep entry the
conformance oracle (:mod:`repro.conformance.oracle`) compares per-node
runs with the asynchronous engine and the per-node view probe with
``views_of_graph``, and ``tests/test_orbit_elect.py`` compares collapsed
with per-node exhaustively on all small graphs.

Two valid collapse partitions, exact and fast:

:func:`node_orbits`
    The true automorphism orbits, decided exactly by
    :func:`repro.graphs.canonical.rooted_certificate` (equal rooted
    certificates iff an automorphism maps one root to the other).  Same
    orbit implies equal views at every depth, so orbits always *refine*
    the stable view partition — the certificate split only needs to run
    inside non-singleton refinement classes.  On feasible graphs the
    stable partition is discrete, so every orbit is a free singleton
    (Yamashita–Kameda: electable means all views distinct means rigid);
    the worst case is a vertex-transitive graph, where every node's
    certificate is computed — O(n * m), the price of full symmetry.

:func:`behavior_classes`
    The stable view-refinement partition itself
    (:func:`repro.views.refinement.stable_partition`), O(m * depth) with
    no certificates.  A node's state after r rounds of a deterministic
    uniform-advice algorithm is a function of its depth-r view, so nodes
    with equal views at *every* depth — same stable class — behave
    identically forever: the class partition is a coarser (never finer)
    valid collapse than the orbit partition, and the one the fast paths
    (service, bench) use.  The conformance rule runs the engine under
    *both* partitions and demands equality with the full run.

The collapse pays off exactly where election itself cannot run: on
graphs with nontrivial symmetry (vertex-transitive families, lifts) no
advice enables election, so the collapsed *election* path degenerates to
per-node.  What does run everywhere is the uniform-advice COM workload —
:class:`ViewProbeAlgorithm`, each node acquiring its depth-T view — and
there the collapsed engine does O(orbits/n) of the per-node work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.errors import AlgorithmError, SimulationError
from repro.graphs.canonical import rooted_certificate
from repro.graphs.port_graph import PortGraph
from repro.obs import core as obs
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import (
    NodeAlgorithm,
    NodeContext,
    RunResult,
    SyncEngine,
)
from repro.views.refinement import StablePartition, stable_partition


@dataclass(frozen=True)
class OrbitPartition:
    """A behavior-uniform partition of a graph's nodes.

    Attributes
    ----------
    orbit_of:
        ``orbit_of[v]`` is the index of node ``v``'s block; blocks are
        numbered by first occurrence in node order (``orbit_of[0] == 0``).
    orbits:
        ``orbits[i]`` is block ``i``'s members in increasing node order,
        so ``orbits[i][0]`` is the block's representative.
    """

    orbit_of: Tuple[int, ...]
    orbits: Tuple[Tuple[int, ...], ...]

    @property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(members[0] for members in self.orbits)

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)

    @property
    def max_orbit_size(self) -> int:
        return max(len(members) for members in self.orbits)

    @property
    def discrete(self) -> bool:
        """True iff every node is alone in its block."""
        return len(self.orbits) == len(self.orbit_of)

    def same_orbit(self, a: int, b: int) -> bool:
        return self.orbit_of[a] == self.orbit_of[b]


def _group_by_key(n: int, key_of: Callable[[int], Any]) -> OrbitPartition:
    """Blocks of equal keys, first-occurrence numbered."""
    index: Dict[Any, int] = {}
    members: List[List[int]] = []
    orbit_of: List[int] = []
    for v in range(n):
        key = key_of(v)
        i = index.get(key)
        if i is None:
            i = index[key] = len(members)
            members.append([])
        members[i].append(v)
        orbit_of.append(i)
    return OrbitPartition(
        orbit_of=tuple(orbit_of),
        orbits=tuple(tuple(block) for block in members),
    )


def node_orbits(
    g: PortGraph, stable: Optional[StablePartition] = None
) -> OrbitPartition:
    """The exact node orbits of ``g``'s port-automorphism group.

    Same orbit implies equal views at every depth, so the orbit
    partition refines the stable refinement partition: singleton
    refinement classes are singleton orbits for free, and only the
    members of non-singleton classes need the
    :func:`~repro.graphs.canonical.rooted_certificate` split (exact in
    both directions — equal certificates iff an automorphism maps one
    root to the other)."""
    if stable is None:
        stable = stable_partition(g)
    sig = stable.signature
    class_size: Dict[int, int] = {}
    for c in sig:
        class_size[c] = class_size.get(c, 0) + 1

    def key_of(v: int):
        c = sig[v]
        if class_size[c] == 1:
            # a singleton class is a singleton orbit; its node id is a
            # key no other node can share
            return v
        # certificates are globally exact, but prefixing the class keeps
        # the key's meaning local: orbits never cross classes
        return (c, rooted_certificate(g, v))

    return _group_by_key(g.n, key_of)


def behavior_classes(
    g: PortGraph, stable: Optional[StablePartition] = None
) -> OrbitPartition:
    """The stable view-refinement partition as an :class:`OrbitPartition`
    — the coarsest collapse valid for deterministic uniform-advice
    algorithms (equal views at every depth means equal behavior), and
    O(m * depth) with no certificate work.  Coarser than (or equal to)
    :func:`node_orbits`; never finer."""
    if stable is None:
        stable = stable_partition(g)
    sig = stable.signature
    # the dense signature is already first-occurrence numbered: reuse it
    members: List[List[int]] = [[] for _ in range(stable.num_classes)]
    for v, c in enumerate(sig):
        members[c].append(v)
    return OrbitPartition(
        orbit_of=tuple(sig),
        orbits=tuple(tuple(block) for block in members),
    )


class OrbitEngine(SyncEngine):
    """:class:`~repro.sim.local_model.SyncEngine`'s round loop over a
    collapsed partition, ``orbits`` (default :func:`behavior_classes`).
    Valid only for the collapse's hypotheses: identical advice at every
    node (``advice_map`` is refused) and no per-node tracer.
    """

    def __init__(
        self,
        graph: PortGraph,
        algorithm_factory: Callable[[], NodeAlgorithm],
        advice: Optional[Bits] = None,
        max_rounds: int = 10_000,
        paranoid: bool = False,
        orbits: Optional[OrbitPartition] = None,
        advice_map: Optional[Dict[int, Bits]] = None,
        tracer: Optional[Any] = None,
    ):
        if advice_map is not None:
            raise SimulationError(
                "orbit collapse requires identical advice at every node; "
                "per-node advice_map distinguishes orbit members"
            )
        if tracer is not None:
            raise SimulationError(
                "orbit collapse cannot drive a per-node tracer; use the "
                "per-node SyncEngine for traced runs"
            )
        super().__init__(
            graph, algorithm_factory, advice, max_rounds, paranoid
        )
        self._orbits = orbits

    def run(self) -> RunResult:
        # an entry point of its own that never calls SyncEngine.run, so a
        # wrapper around either run (perfbench's sim.orbit and sim.sync
        # spans) never nests inside the other and counts a run twice
        orbits = self._orbits or behavior_classes(self._g)
        return self._run_impl(None, orbits.orbit_of, orbits.representatives)


def run_orbit(
    graph: PortGraph,
    algorithm_factory: Callable[[], NodeAlgorithm],
    advice: Optional[Bits] = None,
    max_rounds: int = 10_000,
    paranoid: bool = False,
    orbits: Optional[OrbitPartition] = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`OrbitEngine`."""
    return OrbitEngine(
        graph,
        algorithm_factory,
        advice,
        max_rounds=max_rounds,
        paranoid=paranoid,
        orbits=orbits,
    ).run()


# ----------------------------------------------------------------------
# the uniform-advice probe workload
# ----------------------------------------------------------------------
class ViewProbeAlgorithm:
    """COM for a fixed number of rounds; the output is the node's
    interned depth-``depth`` view.

    This is the advice-free core every election algorithm starts with
    (Algorithm 1), and — unlike election itself — it runs on *any*
    graph, which makes it the executable spec the collapsed-vs-full
    conformance rule and the ``elect-orbit`` bench exercise on the
    symmetric families where orbits are large."""

    def __init__(self, depth: int):
        if depth < 0:
            raise AlgorithmError(f"probe depth must be >= 0, got {depth}")
        self._depth = depth
        self._acc: Optional[ViewAccumulator] = None

    def setup(self, ctx: NodeContext) -> None:
        self._acc = ViewAccumulator(ctx.degree)
        # a degree-0 node (n = 1) never receives, so its view never
        # deepens; its depth-0 view is its final answer at any depth
        if self._depth == 0 or ctx.degree == 0:
            ctx.output(self._acc.view)

    def compose(self, ctx: NodeContext):
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        if ctx.has_output:
            return
        self._acc.absorb(inbox)
        if self._acc.depth == self._depth:
            ctx.output(self._acc.view)


def view_probe_factory(depth: int) -> Callable[[], ViewProbeAlgorithm]:
    """Factory for :class:`ViewProbeAlgorithm` at a fixed depth."""
    return lambda: ViewProbeAlgorithm(depth)


def run_view_probe(
    g: PortGraph,
    depth: int,
    orbits: Optional[OrbitPartition] = None,
    collapsed: bool = True,
) -> RunResult:
    """Run the depth-``depth`` probe, collapsed (default) or per-node."""
    factory = view_probe_factory(depth)
    max_rounds = depth + 2
    if collapsed:
        return run_orbit(g, factory, max_rounds=max_rounds, orbits=orbits)
    from repro.sim.local_model import run_sync

    return run_sync(g, factory, max_rounds=max_rounds)


# ----------------------------------------------------------------------
# the collapsed Theorem 3.1 pipeline
# ----------------------------------------------------------------------
def run_elect_orbit(
    g: PortGraph,
    bundle: Optional["AdviceBundle"] = None,
    paranoid: bool = False,
    orbits: Optional[OrbitPartition] = None,
) -> "ElectRunRecord":
    """:func:`repro.core.elect.run_elect` through the collapsed engine:
    ComputeAdvice -> simulate Elect once per orbit -> verify, with the
    same verify-and-assert tail (:func:`~repro.core.elect.verified_record`)
    and the same record type — the service's ``elect`` fast path computes
    through this and stays byte-identical to the per-node record.  (On
    feasible graphs — the only graphs election admits — every orbit is a
    singleton, so the collapse is the identity; the value here is one
    engine contract for both regimes, proven equal by the conformance
    rule.)"""
    from repro.core.advice import compute_advice
    from repro.core.elect import ElectAlgorithm, verified_record

    with obs.span("elect.orbit", nodes=g.n) as sp:
        if bundle is None:
            with obs.span("elect.advice"):
                bundle = compute_advice(g)
        with obs.span("elect.simulate") as sim_sp:
            result = run_orbit(
                g,
                ElectAlgorithm,
                advice=bundle.bits,
                max_rounds=bundle.phi + 2,
                paranoid=paranoid,
                orbits=orbits,
            )
            if sim_sp.recording:
                sim_sp.set("rounds", result.rounds)
                sim_sp.set("total_messages", result.total_messages)
                sim_sp.set(
                    "per_round_messages", list(result.per_round_messages)
                )
                if orbits is not None:
                    sim_sp.set("num_orbits", orbits.num_orbits)
        return verified_record(sp, g, bundle, result)
