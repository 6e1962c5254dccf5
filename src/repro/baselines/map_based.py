"""Full-map advice: elect in time phi with Theta(m log n) bits.

The oracle ships ``Concat(bin(phi), bits(map))``.  A node acquires
B^phi(u) in phi rounds, recomputes the depth-phi views of every map node,
locates itself (views are distinct at depth phi), and outputs the
lexicographically-smallest shortest path to the map node with the
canonically smallest view — the procedure in Proposition 2.1's proof.

This is the baseline ComputeAdvice beats: same minimum election time,
advice a factor ~average-degree larger (measured by the ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import concat_bits, decode_concat
from repro.coding.integers import decode_uint, encode_uint
from repro.core.verify import verify_election
from repro.errors import AdviceError, AlgorithmError
from repro.graphs.port_graph import PortGraph
from repro.graphs.serialization import from_json, to_json
from repro.sim.com import ViewAccumulator
from repro.sim.local_model import NodeContext, run_sync
from repro.views.election_index import election_index
from repro.views.order import view_min
from repro.views.view import View, views_of_graph


def _text_to_bits(text: str) -> Bits:
    return Bits("".join(format(b, "08b") for b in text.encode("utf-8")))


def _bits_to_text(bits: Bits) -> str:
    s = bits.as_str()
    if len(s) % 8 != 0:
        raise AdviceError("map payload is not byte-aligned")
    data = bytes(int(s[i : i + 8], 2) for i in range(0, len(s), 8))
    return data.decode("utf-8")


def map_advice(g: PortGraph, phi: Optional[int] = None) -> Bits:
    """Concat(bin(phi), utf8-bits of the canonical JSON of the map)."""
    if phi is None:
        phi = election_index(g)
    return concat_bits([encode_uint(phi), _text_to_bits(to_json(g))])


class DecodedMap:
    """The decoded map advice, shared by every node of a run.

    The map's depth-phi views and its leader are a pure function of the
    advice; they are computed on the first node's request, when it has
    acquired its own depth-phi view (not at decode time, so a corrupt phi
    costs nothing before a node reaches it), and then shared.
    """

    __slots__ = ("phi", "graph", "_nodes_by_view", "_leader")

    def __init__(self, phi: int, graph: PortGraph):
        self.phi = phi
        self.graph = graph
        self._nodes_by_view: Optional[Dict[View, List[int]]] = None
        self._leader: Optional[int] = None

    def locate(self, view: View) -> Tuple[List[int], int]:
        """(the map nodes whose depth-phi view is ``view``, the leader)."""
        if self._nodes_by_view is None:
            g = self.graph
            map_views = views_of_graph(g, self.phi)
            nodes_by_view: Dict[View, List[int]] = {}
            for v in g.nodes():
                nodes_by_view.setdefault(map_views[v], []).append(v)
            self._leader = nodes_by_view[view_min(map_views)][0]
            self._nodes_by_view = nodes_by_view
        return self._nodes_by_view.get(view, []), self._leader


def decode_map_advice(advice: Bits) -> DecodedMap:
    """The node-side decode of :func:`map_advice`."""
    parts = decode_concat(advice)
    if len(parts) != 2:
        raise AdviceError("map advice must be Concat(bin(phi), map)")
    return DecodedMap(decode_uint(parts[0]), from_json(_bits_to_text(parts[1])))


class MapBasedAlgorithm:
    """Per-node algorithm: decode the map, COM for phi rounds, locate
    yourself, walk to the canonical leader."""

    def __init__(self):
        self._acc: Optional[ViewAccumulator] = None
        self._map: Optional[DecodedMap] = None

    def setup(self, ctx: NodeContext) -> None:
        if ctx.advice is None:
            raise AdviceError("map-based election requires the map advice")
        self._map = ctx.decoded(decode_map_advice)
        self._acc = ViewAccumulator(ctx.degree)

    def compose(self, ctx: NodeContext):
        return self._acc.outgoing()

    def deliver(self, ctx: NodeContext, inbox) -> None:
        self._acc.absorb(inbox)
        if ctx.has_output or self._acc.depth < self._map.phi:
            return
        matches, leader = self._map.locate(self._acc.view)
        if len(matches) != 1:
            raise AlgorithmError(
                f"self-localization found {len(matches)} map nodes with my "
                "view; the map or phi in the advice is wrong"
            )
        ctx.output(_lex_shortest_port_path(self._map.graph, matches[0], leader))


def _lex_shortest_port_path(g: PortGraph, start: int, goal: int) -> Tuple[int, ...]:
    """Lexicographically smallest among shortest port-pair paths."""
    best: Dict[int, Tuple[int, ...]] = {start: ()}
    frontier = {start: ()}
    while frontier:
        if goal in frontier:
            return frontier[goal]
        nxt: Dict[int, Tuple[int, ...]] = {}
        for u, path in frontier.items():
            for p in range(g.degree(u)):
                v, q = g.neighbor(u, p)
                if v in best:
                    continue
                candidate = path + (p, q)
                if v not in nxt or candidate < nxt[v]:
                    nxt[v] = candidate
        best.update(nxt)
        frontier = nxt
    raise AlgorithmError(f"no path from {start} to {goal} in the map")


@dataclass
class MapBasedRecord:
    n: int
    phi: int
    advice_bits: int
    election_time: int
    leader: int


def run_map_based(g: PortGraph, phi: Optional[int] = None) -> MapBasedRecord:
    """Pipeline: map advice -> simulate -> verify -> assert time == phi."""
    if phi is None:
        phi = election_index(g)
    advice = map_advice(g, phi)
    result = run_sync(g, MapBasedAlgorithm, advice=advice, max_rounds=phi + 1)
    outcome = verify_election(g, result.outputs)
    if result.election_time != phi:
        raise AlgorithmError(
            f"map-based election took {result.election_time} != phi = {phi}"
        )
    return MapBasedRecord(
        n=g.n,
        phi=phi,
        advice_bits=len(advice),
        election_time=result.election_time,
        leader=outcome.leader,
    )
