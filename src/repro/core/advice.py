"""ComputeAdvice (Algorithm 5) — the oracle — and the advice codec.

The advice is the single binary string

    Adv = Concat(bin(phi), A1, A2)
    A1  = Concat(bin(E1), bin(E2))
    A2  = bin(T)

where E1 is the depth-1 trie, E2 the nested list of per-depth trie layers,
and T the canonical BFS tree of G rooted at the node labeled 1, with every
node labeled by RetrieveLabel(B^phi(u)).  Theorem 3.1: |Adv| = O(n log n)
and Algorithm Elect using Adv elects in time exactly phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import decode_concat, nesting_levels, uint_at
from repro.coding.integers import decode_uint, encode_uint
from repro.coding.nested import (
    E2Type,
    decode_e2,
    e2_as_maps,
    encode_e2,
    write_e2,
)
from repro.coding.trees import (
    LabeledRootedTree,
    decode_tree,
    encode_tree,
    write_tree,
)
from repro.coding.tries import Trie, decode_trie, encode_trie, write_trie
from repro.core.labels import LabelingContext, retrieve_label
from repro.core.trie_builder import build_trie
from repro.errors import AdviceError
from repro.graphs.port_graph import PortGraph
from repro.views.election_index import election_index
from repro.views.order import sort_views
from repro.views.view import View, view_levels


@dataclass
class AdviceBundle:
    """Oracle-side record of everything ComputeAdvice built (for analysis
    and white-box tests; nodes only ever see ``bits``)."""

    bits: Bits
    phi: int
    e1: Trie
    e2: E2Type
    tree: LabeledRootedTree
    labels: Dict[int, int]  # graph node -> RetrieveLabel(B^phi)
    root: int  # graph node elected (label 1)

    @property
    def size_bits(self) -> int:
        return len(self.bits)


def canonical_bfs_tree(
    g: PortGraph, root: int, labels: Dict[int, int]
) -> LabeledRootedTree:
    """The paper's canonical BFS tree: the parent of a node u at BFS level
    i+1 is the level-i neighbor reachable through the *smallest port number
    at u*; edges carry the graph's port numbers at both endpoints."""
    dist = g.bfs_distances(root)
    tree_nodes: Dict[int, LabeledRootedTree] = {
        u: LabeledRootedTree(labels[u]) for u in g.nodes()
    }
    for u in g.nodes():
        if u == root:
            continue
        parent_port = None
        for p in range(g.degree(u)):
            v, _ = g.neighbor(u, p)
            if dist[v] == dist[u] - 1:
                parent_port = p
                break
        if parent_port is None:
            raise AdviceError(f"BFS tree: node {u} has no parent (disconnected?)")
        parent, q = g.neighbor(u, parent_port)
        # at the tree edge: port q at the parent, port parent_port at u
        tree_nodes[parent].add_child(q, parent_port, tree_nodes[u])
    return tree_nodes[root]


def compute_advice(g: PortGraph, phi: Optional[int] = None) -> AdviceBundle:
    """Algorithm 5 (ComputeAdvice).

    ``phi`` may be passed if already known (it is recomputed otherwise).
    Raises :class:`~repro.errors.InfeasibleGraphError` on infeasible graphs,
    and :class:`~repro.errors.AdviceError` on the one-node graph (phi = 0).
    """
    if phi is None:
        phi = election_index(g)
    if phi == 0:
        # the advice starts with E1, the trie of depth-1 views, and
        # RetrieveLabel needs depth >= 1: neither exists when phi = 0
        raise AdviceError(
            "the advice is undefined at phi = 0 (the one-node graph): "
            "E1 and RetrieveLabel need depth >= 1"
        )

    levels: List[List[View]] = []
    for depth, level in enumerate(view_levels(g, max_depth=phi)):
        levels.append(level)
        if depth == phi:
            break

    ctx = LabelingContext()
    s1 = sort_views(set(levels[1]))
    ctx.e1 = build_trie(s1, ctx)
    e2: E2Type = []

    for i in range(2, phi + 1):
        # group nodes by the label of their depth-(i-1) view
        groups: Dict[int, List[int]] = {}
        for u in g.nodes():
            j = retrieve_label(levels[i - 1][u], ctx)
            groups.setdefault(j, []).append(u)
        layer_list: List[Tuple[int, Trie]] = []
        for j in sorted(groups):
            distinct = set(levels[i][u] for u in groups[j])
            if len(distinct) > 1:
                trie = build_trie(sort_views(distinct), ctx)
                layer_list.append((j, trie))
        e2.append((i, layer_list))
        ctx.add_layer(i, dict(layer_list))

    labels = {u: retrieve_label(levels[phi][u], ctx) for u in g.nodes()}
    if sorted(labels.values()) != list(range(1, g.n + 1)):
        raise AdviceError(
            "RetrieveLabel did not assign the labels 1..n bijectively: "
            f"got {sorted(labels.values())[:10]}..."
        )
    root = next(u for u, lab in labels.items() if lab == 1)
    tree = canonical_bfs_tree(g, root, labels)

    # Adv = Concat(bin(phi), Concat(bin(E1), bin(E2)), bin(T)), every code
    # written once at its Concat level (E2's trie records sit deepest, at
    # level 4, their digits at level 6) and joined once
    levels = nesting_levels(7)
    sep = levels[0][0]
    a1_sep, phi_table = levels[1]
    out = [uint_at(phi, phi_table), sep]
    write_trie(ctx.e1, 2, levels, out)
    out.append(a1_sep)
    write_e2(e2, 2, levels, out)
    out.append(sep)
    write_tree(tree, 1, levels, out)
    bits = Bits._unsafe("".join(out))

    return AdviceBundle(
        bits=bits, phi=phi, e1=ctx.e1, e2=e2, tree=tree, labels=labels, root=root
    )


def decode_advice(
    bits: Bits,
) -> Tuple[int, Trie, E2Type, LabeledRootedTree]:
    """Node-side decoding of the oracle's advice string."""
    parts = decode_concat(bits)
    if len(parts) != 3:
        raise AdviceError(
            f"advice must have 3 top-level parts (phi, A1, A2), got {len(parts)}"
        )
    phi = decode_uint(parts[0])
    a1_parts = decode_concat(parts[1])
    if len(a1_parts) != 2:
        raise AdviceError("advice item A1 must contain (bin(E1), bin(E2))")
    e1 = decode_trie(a1_parts[0])
    e2 = decode_e2(a1_parts[1])
    tree = decode_tree(parts[2])
    return phi, e1, e2, tree


def labeling_context_from_advice(e1: Trie, e2: E2Type) -> LabelingContext:
    """Assemble a node-side labeling context from decoded advice."""
    ctx = LabelingContext(e1=e1)
    for depth, layer in e2_as_maps(e2).items():
        ctx.add_layer(depth, layer)
    return ctx


def advice_breakdown(bundle: AdviceBundle) -> Dict[str, int]:
    """Bits per advice component: bin(phi), bin(E1), bin(E2), bin(T).

    The paper's Section 3 narrative quantified: E1+E2 (item A1, the trie
    machinery) is what makes O(n log n) possible — the naive alternative
    inflates item A2 instead.  Components are re-encoded here, so the sum
    differs from ``bundle.size_bits`` only by the outer Concat framing
    (doubling + separators).
    """
    parts = {
        "phi": len(encode_uint(bundle.phi)),
        "E1_trie": len(encode_trie(bundle.e1)),
        "E2_nested_tries": len(encode_e2(bundle.e2)),
        "A2_bfs_tree": len(encode_tree(bundle.tree)),
    }
    parts["total_with_framing"] = bundle.size_bits
    return parts
