"""Serialization of port graphs and the networkx bridge.

The canonical interchange form is a plain dict::

    {"n": 4, "edges": [[0, 0, 1, 1], [1, 0, 2, 1], ...]}

where each edge entry is ``[u, port_u, v, port_v]`` with ``u < v``.  This
round-trips exactly (including port numbers) and is JSON-stable because the
edge list is emitted in sorted order.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import networkx as nx

from repro.errors import CodingError
from repro.graphs.port_graph import PortGraph, PortGraphBuilder
from repro.util.rng import RngLike, make_rng


def to_dict(g: PortGraph) -> Dict[str, Any]:
    """Canonical dict form of a port graph."""
    return {
        "n": g.n,
        "edges": sorted([u, p, v, q] for (u, p, v, q) in g.edges()),
    }


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_dict(data: Dict[str, Any], require_connected: bool = True) -> PortGraph:
    """Rebuild a port graph from its canonical dict form.  ``n`` and every
    edge field must be an ``int``: a bool, float or string is refused,
    never truncated into a different graph."""
    try:
        n = data["n"]
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise CodingError(f"malformed port-graph dict: {exc}") from exc
    if not _is_int(n):
        raise CodingError(
            f"malformed port-graph dict: n must be an integer, got {n!r}"
        )
    b = PortGraphBuilder(n)
    try:
        for i, entry in enumerate(edges):
            if len(entry) != 4 or not all(map(_is_int, entry)):
                raise CodingError(
                    f"edge entry {i} must be 4 integers [u, p, v, q], "
                    f"got {entry!r}"
                )
            u, p, v, q = entry
            b.add_edge(u, p, v, q)
    except (TypeError, ValueError) as exc:
        # "edges": 5, or an entry 7
        raise CodingError(f"malformed port-graph edges: {exc}") from exc
    return b.build(require_connected=require_connected)


def is_graph_envelope(data: Any) -> bool:
    """Whether ``data`` is the ``{"name": ..., "graph": {...}}`` envelope
    shape of a ``repro corpus emit`` line (rather than a bare graph
    dict).  The single authority for envelope detection — the CLI's spec
    loaders and the service's request parser all defer to it."""
    return isinstance(data, dict) and isinstance(data.get("graph"), dict)


def from_payload(data: Any, require_connected: bool = True) -> PortGraph:
    """A graph from either accepted payload shape: the canonical dict of
    :func:`to_dict`, or a corpus-emit envelope carrying it under
    ``"graph"``.  Raises :class:`CodingError` on anything else."""
    if is_graph_envelope(data):
        data = data["graph"]
    if not isinstance(data, dict) or "edges" not in data:
        raise CodingError(
            'expected the canonical graph dict {"n": ..., "edges": '
            '[[u, p, v, q], ...]} or a corpus-emit envelope carrying it '
            'under "graph"'
        )
    return from_dict(data, require_connected=require_connected)


def to_json(g: PortGraph) -> str:
    """JSON text of the canonical dict form (stable ordering)."""
    return json.dumps(to_dict(g), sort_keys=True, separators=(",", ":"))


def from_json(text: str, require_connected: bool = True) -> PortGraph:
    """Inverse of :func:`to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodingError(f"invalid JSON for port graph: {exc}") from exc
    return from_dict(data, require_connected=require_connected)


def to_networkx(g: PortGraph) -> "nx.Graph":
    """Undirected networkx graph; edge attribute ``ports`` maps each endpoint
    node id to its port number for that edge."""
    nxg = nx.Graph()
    nxg.add_nodes_from(g.nodes())
    for (u, p, v, q) in g.edges():
        nxg.add_edge(u, v, ports={u: p, v: q})
    return nxg


def from_networkx(
    nxg: "nx.Graph",
    seed: RngLike = None,
    require_connected: bool = True,
) -> PortGraph:
    """Turn an (unlabelled) networkx graph into a port graph.

    If edges carry a ``ports`` attribute (as produced by
    :func:`to_networkx`), those ports are used verbatim.  Otherwise ports
    are assigned: deterministically by sorted-neighbor order when ``seed``
    is None, or by a seeded random legal assignment.

    Node labels must be hashable; they are relabelled to ``0..n-1`` in
    sorted order (falling back to insertion order if unsortable).
    """
    nodes = list(nxg.nodes())
    try:
        nodes.sort()
    except TypeError:
        pass
    index = {v: i for i, v in enumerate(nodes)}
    b = PortGraphBuilder(len(nodes))

    has_ports = all("ports" in d for _, _, d in nxg.edges(data=True)) and nxg.number_of_edges() > 0
    if has_ports:
        for u, v, d in nxg.edges(data=True):
            ports = d["ports"]
            b.add_edge(index[u], ports[u], index[v], ports[v])
        return b.build(require_connected=require_connected)

    if seed is None:
        for u in nodes:
            for v in sorted(nxg.neighbors(u), key=lambda w: index[w]):
                if index[u] < index[v] and not b.has_edge(index[u], index[v]):
                    b.add_edge_auto(index[u], index[v])
        # second pass not needed: auto assignment handles both endpoints
        return b.build(require_connected=require_connected)

    rng = make_rng(seed)
    # random legal assignment: per node, a shuffled list of its ports,
    # consumed in a global random edge order.
    edge_list = list(nxg.edges())
    rng.shuffle(edge_list)
    free: Dict[int, list] = {}
    for v in nodes:
        ports = list(range(nxg.degree(v)))
        rng.shuffle(ports)
        free[index[v]] = ports
    for u, v in edge_list:
        pu = free[index[u]].pop()
        pv = free[index[v]].pop()
        b.add_edge(index[u], pu, index[v], pv)
    return b.build(require_connected=require_connected)
