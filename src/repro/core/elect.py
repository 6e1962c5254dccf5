"""Algorithm 6 (Elect): leader election in minimum time phi.

Node side of Theorem 3.1.  Each node decodes (phi, E1, E2, A2) from the
advice, runs COM for phi rounds to acquire B^phi(u), computes its unique
label x = RetrieveLabel(B^phi(u), E1, E2), locates itself in the decoded
BFS tree through x, and outputs the port sequence of the tree path from x
to the root (label 1).

The advice is the same string at every node, so the decode is done once
per run (:meth:`~repro.sim.local_model.NodeContext.decoded`): all nodes
share one labeling context, whose RetrieveLabel memo then labels each
distinct view once per run, and one root-path index of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.trees import RootPathIndex
from repro.core.advice import (
    AdviceBundle,
    compute_advice,
    decode_advice,
    labeling_context_from_advice,
)
from repro.core.labels import LabelingContext, retrieve_label
from repro.core.verify import ElectionOutcome, verify_election
from repro.errors import AdviceError
from repro.graphs.port_graph import PortGraph
from repro.obs import core as obs
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import NodeAlgorithm, NodeContext, RunResult, run_sync


def decode_elect_advice(
    advice: Bits,
) -> Tuple[int, LabelingContext, RootPathIndex]:
    """The node-side decode of the advice: phi, the labeling context built
    from E1 and E2, and the root-path index of the tree T.  Pure in
    ``advice``; every node of a run shares the result."""
    phi, e1, e2, tree = decode_advice(advice)
    return phi, labeling_context_from_advice(e1, e2), RootPathIndex(tree)


class ElectAlgorithm:
    """Per-node algorithm; requires ``ctx.advice`` from ComputeAdvice."""

    def __init__(self):
        self._acc: Optional[ViewAccumulator] = None
        self._phi: Optional[int] = None
        self._labeling: Optional[LabelingContext] = None
        self._tree: Optional[RootPathIndex] = None

    def setup(self, ctx: NodeContext) -> None:
        if ctx.advice is None:
            raise AdviceError("Elect requires the oracle's advice string")
        self._phi, self._labeling, self._tree = ctx.decoded(decode_elect_advice)
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx: NodeContext):
        # COM(i): keep exchanging views every round (harmlessly also after
        # the output is committed; see the engine's round semantics).
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        self._acc.absorb(inbox)
        if self._acc.depth == self._phi and not ctx.has_output:
            label = retrieve_label(self._acc.view, self._labeling)
            pairs = self._tree.path_to_root_ports(label)
            flat: Tuple[int, ...] = tuple(x for pair in pairs for x in pair)
            ctx.output(flat)


@dataclass
class ElectRunRecord:
    """End-to-end record of one Elect run (oracle + simulation + verify)."""

    n: int
    phi: int
    advice_bits: int
    election_time: int
    leader: int
    total_messages: int

    @classmethod
    def from_run(
        cls, g: PortGraph, bundle: AdviceBundle, result: RunResult, outcome: ElectionOutcome
    ) -> "ElectRunRecord":
        return cls(
            n=g.n,
            phi=bundle.phi,
            advice_bits=bundle.size_bits,
            election_time=result.election_time,
            leader=outcome.leader,
            total_messages=result.total_messages,
        )


def run_elect(
    g: PortGraph, bundle: Optional[AdviceBundle] = None, paranoid: bool = False
) -> ElectRunRecord:
    """Full Theorem 3.1 pipeline: ComputeAdvice -> simulate Elect -> verify.

    Asserts the two properties of the theorem that are checkable per run:
    the leader is the oracle's label-1 node and the election time is
    exactly phi.
    """
    with obs.span("elect.run", nodes=g.n) as sp:
        if bundle is None:
            with obs.span("elect.advice"):
                bundle = compute_advice(g)
        # run_sync opens its own child span (sim.run) carrying the
        # per-round message/DAG accounting
        result = run_sync(
            g,
            ElectAlgorithm,
            advice=bundle.bits,
            max_rounds=bundle.phi + 2,
            paranoid=paranoid,
        )
        with obs.span("elect.verify"):
            outcome = verify_election(g, result.outputs)
        if sp.recording:
            sp.set("phi", bundle.phi)
            sp.set("advice_bits", bundle.size_bits)
        if outcome.leader != bundle.root:
            raise AdviceError(
                f"elected node {outcome.leader} differs from the oracle's "
                f"root {bundle.root}"
            )
        if result.election_time != bundle.phi:
            raise AdviceError(
                f"election time {result.election_time} != phi = {bundle.phi}"
            )
        return ElectRunRecord.from_run(g, bundle, result, outcome)
