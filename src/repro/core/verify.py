"""Election-output verification.

The task specification (Section 1): every node v outputs a sequence
``P(v) = (p1, q1, ..., pk, qk)`` of port numbers; ``P*(v)`` is the path
from v whose i-th edge leaves through port ``p_i`` and arrives through
``q_i``.  Election is correct iff every ``P*(v)`` is a *simple* path in
the graph and all paths end at a common node — the leader.

This verifier is the ground truth for every test and benchmark: it never
trusts algorithm internals, only the outputs and the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ElectionFailure, GraphError
from repro.graphs.port_graph import PortGraph


@dataclass
class ElectionOutcome:
    """A verified election: the leader and each node's path to it."""

    leader: int
    paths: Dict[int, List[int]]  # node -> list of visited nodes (incl. both ends)

    def path_length(self, v: int) -> int:
        return len(self.paths[v]) - 1


def _as_port_pairs(output: Sequence[int]) -> List[Tuple[int, int]]:
    if len(output) % 2 != 0:
        raise ElectionFailure(
            f"output {tuple(output)} has odd length; must be (p1,q1,...,pk,qk)"
        )
    if any((not isinstance(x, int)) or x < 0 for x in output):
        raise ElectionFailure(
            f"output {tuple(output)} must consist of non-negative integers"
        )
    return [(output[i], output[i + 1]) for i in range(0, len(output), 2)]


def verify_election(g: PortGraph, outputs: Dict[int, Sequence[int]]) -> ElectionOutcome:
    """Verify outputs of all nodes; return the leader or raise
    :class:`ElectionFailure` with a precise diagnosis."""
    missing = [v for v in g.nodes() if v not in outputs]
    if missing:
        raise ElectionFailure(f"nodes {missing[:5]} produced no output")

    leader = None
    paths: Dict[int, List[int]] = {}
    for v in g.nodes():
        pairs = _as_port_pairs(outputs[v])
        try:
            visited = g.follow_port_path(v, pairs)
        except GraphError as exc:
            # GraphStructureError: a remote port mismatches; PortNumberingError:
            # the output names a port the node does not have.  Either way the
            # coded path does not exist in the graph — a verification failure,
            # never a crash.
            raise ElectionFailure(
                f"output of node {v} is not a path in the graph: {exc}"
            ) from exc
        if len(set(visited)) != len(visited):
            raise ElectionFailure(
                f"output of node {v} is not a simple path: visits {visited}"
            )
        end = visited[-1]
        if leader is None:
            leader = end
        elif end != leader:
            raise ElectionFailure(
                f"paths disagree: node {v} reaches {end} but an earlier node "
                f"reached {leader}"
            )
        paths[v] = visited
    assert leader is not None
    return ElectionOutcome(leader=leader, paths=paths)


def leaders_equivalent(g: PortGraph, leader_a: int, leader_b: int) -> bool:
    """Whether two elected leaders are the same node *up to port-graph
    automorphism* — the strongest equality an anonymous observer can ask
    for.  On feasible graphs the automorphism group is trivial, so this
    degenerates to equality; the general form is what the conformance
    oracle checks across execution models, so the check stays meaningful
    on every input.
    """
    if leader_a == leader_b:
        return True
    # An automorphism mapping a to b exists iff the rooted BFS encodings
    # from a and from b coincide — individualizing the root makes the
    # port-deterministic relabeling discrete, so the O(m) comparison
    # decides exactly what the anchored VF2 search
    # (:func:`repro.graphs.isomorphism.port_automorphism_maps`) decides.
    # The records are the relabeled graph, so they decide what
    # ``rooted_certificate`` bytes decide without sorting and encoding
    # the edges.  Parity with VF2: ``tests/test_graphs_canonical.py``.
    from repro.graphs.canonical import _rooted_encoding
    from repro.graphs.csr import csr_of

    for leader in (leader_a, leader_b):
        if not (0 <= leader < g.n):
            raise GraphError(f"leader {leader} must be in 0..{g.n - 1}")
    csr = csr_of(g)
    records_a, _labels = _rooted_encoding(csr, leader_a)
    records_b, _labels = _rooted_encoding(csr, leader_b)
    return records_a == records_b


def outcomes_equivalent(
    g: PortGraph, a: ElectionOutcome, b: ElectionOutcome
) -> bool:
    """Whether two verified election outcomes agree up to port-graph
    automorphism (see :func:`leaders_equivalent`)."""
    return leaders_equivalent(g, a.leader, b.leader)
