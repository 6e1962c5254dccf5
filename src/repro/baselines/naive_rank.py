"""The naive rank-label advice of Section 3's discussion.

"A naive way ... nodes could list all possible augmented truncated views
at depth phi, order them lexicographically, and adopt the rank as label
... these labels would be of size Ω(n log n) [and] item A2 would have to
give the tree with all these labels, thus potentially requiring at least
Ω(n^2 log n) bits."

We implement the realizable variant: the oracle ships the sorted list of
the *present* view encodings plus the BFS tree labeled by rank.  The
advice is dominated by the n view encodings of Θ(n log n) bits each at
phi = 1 — the quadratic blowup the trie construction exists to avoid,
measured head-to-head in the ablation bench.

View encodings use ``bin(B^1)`` at depth 1 and the nested canonical code
at larger depths; the latter grows exponentially with phi, so this
baseline is honest only for small phi (the regime the paper's remark is
about is phi = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import concat_bits, decode_concat
from repro.coding.integers import decode_uint, encode_uint
from repro.coding.trees import RootPathIndex, decode_tree, encode_tree
from repro.core.advice import canonical_bfs_tree
from repro.core.verify import verify_election
from repro.errors import AdviceError, AlgorithmError
from repro.graphs.port_graph import PortGraph
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import NodeContext, run_sync
from repro.views.election_index import election_index
from repro.views.encoding import encode_b1
from repro.views.view import View, views_of_graph


def encode_view_nested(view: View) -> Bits:
    """Canonical self-contained code of a view: ``bin(B^1)`` at depth 1,
    otherwise Concat(bin(deg), Concat(bin(q_i), code(child_i)) ...).
    Exponential in depth — by design, this is the naive baseline."""
    if view.depth == 1:
        return encode_b1(view)
    parts = [encode_uint(view.degree)]
    for q, child in view.children:
        parts.append(concat_bits([encode_uint(q), encode_view_nested(child)]))
    return concat_bits(parts)


def naive_rank_advice(g: PortGraph, phi: Optional[int] = None) -> Bits:
    """Concat(bin(phi), Concat(sorted view codes), bin(rank-labeled BFS
    tree)).  Rank r (1-based, sorted ascending) plays the role of
    RetrieveLabel; the leader is the rank-1 node."""
    if phi is None:
        phi = election_index(g)
    views = views_of_graph(g, phi)
    codes = {v: encode_view_nested(views[v]) for v in g.nodes()}
    ordered = sorted(codes.values(), key=lambda bits: (len(bits), bits.as_str()))
    rank_of_code = {bits.as_str(): i + 1 for i, bits in enumerate(ordered)}
    labels = {v: rank_of_code[codes[v].as_str()] for v in g.nodes()}
    if sorted(labels.values()) != list(range(1, g.n + 1)):
        raise AdviceError("view codes are not distinct at depth phi")
    root = next(v for v in g.nodes() if labels[v] == 1)
    tree = canonical_bfs_tree(g, root, labels)
    return concat_bits(
        [encode_uint(phi), concat_bits(ordered), encode_tree(tree)]
    )


def decode_naive_rank_advice(
    advice: Bits,
) -> Tuple[int, Dict[str, int], RootPathIndex]:
    """The node-side decode of :func:`naive_rank_advice`: phi, the rank of
    every listed view code, and the root-path index of the tree."""
    parts = decode_concat(advice)
    if len(parts) != 3:
        raise AdviceError("naive advice must have (phi, codes, tree)")
    phi = decode_uint(parts[0])
    codes = decode_concat(parts[1])
    ranks = {bits.as_str(): i + 1 for i, bits in enumerate(codes)}
    return phi, ranks, RootPathIndex(decode_tree(parts[2]))


class NaiveRankAlgorithm:
    """Per-node algorithm for the naive advice."""

    def __init__(self):
        self._acc: Optional[ViewAccumulator] = None
        self._phi: Optional[int] = None
        self._ranks: Optional[Dict[str, int]] = None
        self._tree: Optional[RootPathIndex] = None

    def setup(self, ctx: NodeContext) -> None:
        if ctx.advice is None:
            raise AdviceError("naive-rank election requires advice")
        self._phi, self._ranks, self._tree = ctx.decoded(decode_naive_rank_advice)
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx: NodeContext):
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        self._acc.absorb(inbox)
        if ctx.has_output or self._acc.depth < self._phi:
            return
        my_code = encode_view_nested(self._acc.view).as_str()
        rank = self._ranks.get(my_code)
        if rank is None:
            raise AlgorithmError("own view code missing from the advice list")
        pairs = self._tree.path_to_root_ports(rank)
        ctx.output(tuple(x for pair in pairs for x in pair))


@dataclass
class NaiveRankRecord:
    n: int
    phi: int
    advice_bits: int
    election_time: int
    leader: int


def run_naive_rank(g: PortGraph, phi: Optional[int] = None) -> NaiveRankRecord:
    """Pipeline: naive advice -> simulate -> verify -> assert time phi."""
    if phi is None:
        phi = election_index(g)
    advice = naive_rank_advice(g, phi)
    result = run_sync(g, NaiveRankAlgorithm, advice=advice, max_rounds=phi + 1)
    outcome = verify_election(g, result.outputs)
    if result.election_time != phi:
        raise AlgorithmError(
            f"naive-rank election took {result.election_time} != phi = {phi}"
        )
    return NaiveRankRecord(
        n=g.n,
        phi=phi,
        advice_bits=len(advice),
        election_time=result.election_time,
        leader=outcome.leader,
    )
