"""Canonical forms of port-numbered graphs: certificates and fingerprints.

Two port-numbered graphs are "the same network" for every anonymous
algorithm iff they are port-preservingly isomorphic
(:mod:`repro.graphs.isomorphism`).  This module produces a **certificate**
of that equivalence class: :func:`canonical_form` returns bytes such that

    ``canonical_form(g1) == canonical_form(g2)``
    iff ``g1`` and ``g2`` are port-isomorphic,

and :func:`graph_fingerprint` is its sha256 — the content-address under
which the query service (:mod:`repro.service`) deduplicates isomorphic
requests.

The algorithm is individualization-refinement collapsed to its port-graph
special case.  In a connected port-numbered graph, *individualizing a
single node makes the refinement discrete in one sweep*: starting from a
fixed root, the breadth-first traversal that expands local ports in order
``0..d-1`` visits nodes in an order determined entirely by the port
structure, so the root alone induces a complete canonical relabeling
(a port-isomorphism is determined by the image of one node).  The
certificate is therefore

    ``min over candidate roots r of encode(relabel(g, bfs_order(r)))``

under the lexicographic order of the flattened adjacency encoding.  The
refinement layer (:mod:`repro.views.refinement`) supplies the pruning:
the encoding's lexicographic prefix is exactly the level-1 refinement key
``(degree(r), remote ports of r)`` — the static half that
:mod:`repro.graphs.csr` folds into ``port_keys`` — so only nodes of the
lexicographically minimal level-1 class can win, and every other class is
skipped without running its BFS.

The candidate class can still hold most nodes: about a quarter of a
random tree's nodes are leaves sharing one level-1 key, and on a
vertex-transitive graph every node is a candidate.  The min over the
candidates is therefore searched with the two standard prunings of
individualization-refinement (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comp. 2014):

* **Early exit.**  Expanding the k-th BFS node completes the k-th record
  of the encoding: the node's degree, then ``(label(nbr), remote port)``
  per local port.  Each record is compared, as it completes, with the
  same record of the best encoding so far.  A larger record drops the
  root at once; a smaller one makes it the new best, whose BFS then runs
  to the end without comparing.  A record starts with its degree, which
  fixes its length, so the first unequal record orders two encodings
  exactly as the comparison of the flat lists (``n + 4m`` ints each)
  does.
* **Automorphism pruning.**  A root whose whole encoding ties the best
  gives a port automorphism: the best root's k-th BFS node maps to this
  root's k-th.  A union-find joins its cycles.  A candidate whose class
  holds a root already tried, dropped or not, is skipped: its encoding
  equals that root's, which was never below the best, so it cannot beat
  the best.  Only ties add unions, and port automorphisms of a connected
  port graph act freely (one node's image fixes the rest), so every class
  lies inside one orbit.  A tied root was outside the best root's class,
  so each automorphism found lies outside the group the earlier ones
  generate and at least doubles it: a search has at most log2(n) ties.

Neither changes a byte.  Candidates are tried in node order and a tie
never replaces the best, so the winner is still the first candidate with
the minimal encoding: it is never dropped, and never skipped, since a
tried root in its class would be an earlier candidate with that same
encoding.  ``tests/test_canonical_search.py`` keeps the unpruned search
as the executable spec.  On random trees, tori, hypercubes and
circulants the search expands a small multiple of n BFS nodes over all
roots, where the unpruned one expanded n per candidate.  What stays
super-linear is a large candidate class with no automorphism and long
shared prefixes: the "twisted torus", a torus with two far-apart edges
of the same port pair crossed, keeps every node's level-1 key and has no
automorphism to prune with, so each root runs long before it differs.

:func:`rooted_certificate` is the same encoding *without* the min over
roots: it canonicalizes the pair ``(g, r)``, so

    ``rooted_certificate(g, a) == rooted_certificate(g, b)``
    iff some port-preserving automorphism of ``g`` maps ``a`` to ``b``

— an exact O(m) replacement for the anchored VF2 search (parity with
VF2 is locked in by ``tests/test_graphs_canonical.py``).  The orbit
check of :func:`repro.core.verify.leaders_equivalent` compares the
rooted encodings themselves, and the same encodings and union-find split
a refinement class into its orbits in
:func:`repro.core.orbit_elect.node_orbits`.

Certificate bytes are the canonical JSON of the relabeled graph
(:func:`repro.graphs.serialization.to_dict` layout), so a certificate is
also a *constructive* witness: :func:`canonical_graph` rebuilds the
canonical representative, and equal certificates yield an explicit
isomorphism through the two relabelings (used by
:func:`repro.graphs.isomorphism.port_isomorphism` to bypass VF2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.csr import csr_of
from repro.graphs.port_graph import PortGraph, PortGraphBuilder


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of one port graph.

    Attributes
    ----------
    certificate:
        Canonical JSON bytes of the relabeled graph — equal across all
        port-isomorphic graphs, different otherwise.
    fingerprint:
        ``sha256(certificate)`` hex digest: the content address.
    to_canonical:
        The winning relabeling: node ``u`` of the original graph is node
        ``to_canonical[u]`` of the canonical graph.
    """

    certificate: bytes
    fingerprint: str
    to_canonical: Tuple[int, ...]


def _bfs_records(csr, root: int, labels: List[int]) -> Iterator[List[int]]:
    """The port-deterministic BFS from ``root``, one encoding record at a
    time.

    FIFO over discovery order, neighbors expanded in local port order;
    ``labels`` (all ``-1`` on entry) receives each node's new id as the
    node is discovered, root -> 0.  Expanding the k-th node labels every
    neighbor it names, so the k-th record is complete when it is yielded:
    ``degree`` then ``(label(nbr), remote port)`` per local port.  The
    records concatenated are the encoding the canonical root minimizes;
    the first is ``(degree(root), remote ports of root)`` interleaved with
    labels ``1..d``, since the root's neighbors are labeled in port order.
    A consumer may stop early; one that reads to the end gets a complete
    ``labels`` or a :class:`GraphError` for a disconnected graph."""
    nbrs = csr.neighbor_tuples
    rports = csr.remote_port_tuples
    degrees = csr.degrees
    labels[root] = 0
    order = [root]
    next_label = 1
    for u in order:  # `order` grows while iterating: the BFS queue
        record = [degrees[u]]
        for v, q in zip(nbrs[u], rports[u]):
            label = labels[v]
            if label < 0:
                label = labels[v] = next_label
                next_label += 1
                order.append(v)
            record.append(label)
            record.append(q)
        yield record
    if next_label != csr.n:
        raise GraphError("canonical form requires a connected graph")


def _rooted_encoding(csr, root: int) -> Tuple[List[List[int]], List[int]]:
    """The whole encoding from ``root`` as its records, with the BFS
    relabeling that produced it."""
    labels = [-1] * csr.n
    records = list(_bfs_records(csr, root, labels))
    return records, labels


class _AutomorphismClasses:
    """A union-find over the nodes whose classes are joined only along
    port automorphisms, so every class lies inside one automorphism
    orbit.  A class also remembers whether it holds a root already
    encoded: every node of such a class has that root's rooted encoding,
    so encoding it again can tell nothing new."""

    __slots__ = ("_parent", "_seen")

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._seen = [False] * n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def seen(self, x: int) -> bool:
        return self._seen[self.find(x)]

    def see(self, x: int) -> None:
        self._seen[self.find(x)] = True

    def join(self, labels_a: Sequence[int], labels_b: Sequence[int]) -> None:
        """Join the cycles of the automorphism that two equal rooted
        encodings give: node ``u`` with ``labels_a[u] == i`` maps to the
        node with ``labels_b`` label ``i``.  Sound only for equal
        encodings, where the two relabeled graphs coincide."""
        order_a = [0] * len(labels_a)
        for u, i in enumerate(labels_a):
            order_a[i] = u
        parent, seen = self._parent, self._seen
        for v, i in enumerate(labels_b):
            a, b = self.find(order_a[i]), self.find(v)
            if a != b:
                parent[b] = a
                seen[a] = seen[a] or seen[b]


def _certificate_bytes(g: PortGraph, labels: Sequence[int]) -> bytes:
    """Serialize the relabeled graph in the canonical dict layout of
    :mod:`repro.graphs.serialization` (sorted ``[u, p, v, q]`` edge list,
    compact JSON) — byte-stable, and reconstructible via ``from_json``."""
    edges = []
    for (u, p, v, q) in g.edges():
        a, b = labels[u], labels[v]
        edges.append([a, p, b, q] if a < b else [b, q, a, p])
    edges.sort()
    return json.dumps(
        {"edges": edges, "n": g.n}, sort_keys=True, separators=(",", ":")
    ).encode("ascii")


def rooted_certificate(g: PortGraph, root: int) -> bytes:
    """Canonical bytes of the *rooted* graph ``(g, root)``.

    Exactness (both directions): the port-deterministic BFS relabeling
    from a root is mirrored step-by-step by any port-isomorphism, so
    ``rooted_certificate(g1, r1) == rooted_certificate(g2, r2)`` iff some
    port-preserving isomorphism ``g1 -> g2`` maps ``r1`` to ``r2``.  With
    ``g1 is g2`` this decides anchored automorphism (node-orbit
    membership) in O(m), replacing the VF2 search.
    """
    if not (0 <= root < g.n):
        raise GraphError(f"root {root} must be in 0..{g.n - 1}")
    return _certificate_bytes(g, _rooted_encoding(csr_of(g), root)[1])


def canonical_form(g: PortGraph) -> CanonicalForm:
    """The graph's canonical form, cached on the instance (PortGraphs are
    frozen, so the cache can never go stale)."""
    cached = g._canon_cache
    if cached is None:
        cached = _compute_canonical_form(g)
        g._canon_cache = cached
    return cached


def _compute_canonical_form(g: PortGraph) -> CanonicalForm:
    csr = csr_of(g)
    # Candidate roots: only the lexicographically minimal level-1
    # refinement class (degree, remote-port tuple) can produce the
    # minimal encoding, because that pair is the encoding's prefix.
    # Tuple comparison covers the degree: a shorter remote-port tuple
    # sorts by its (shorter) length first via the explicit degree field.
    best_key: Optional[Tuple[int, Tuple[int, ...]]] = None
    candidates: List[int] = []
    for v in range(csr.n):
        key = (csr.degrees[v], csr.remote_port_tuples[v])
        if best_key is None or key < best_key:
            best_key = key
            candidates = [v]
        elif key == best_key:
            candidates.append(v)
    # Early exit and automorphism pruning: see the module docstring.
    classes = _AutomorphismClasses(csr.n)
    classes.see(candidates[0])  # n >= 1: there is always a candidate
    best, best_labels = _rooted_encoding(csr, candidates[0])
    for root in candidates[1:]:
        if classes.seen(root):
            continue
        classes.see(root)
        labels = [-1] * csr.n
        records = _bfs_records(csr, root, labels)
        for k, record in enumerate(records):
            if record != best[k]:
                if record < best[k]:
                    best = best[:k]
                    best.append(record)
                    best.extend(records)
                    best_labels = labels
                break
        else:  # a tie: a port automorphism maps the best root to this one
            classes.join(best_labels, labels)
    certificate = _certificate_bytes(g, best_labels)
    return CanonicalForm(
        certificate=certificate,
        fingerprint=hashlib.sha256(certificate).hexdigest(),
        to_canonical=tuple(best_labels),
    )


def graph_fingerprint(g: PortGraph) -> str:
    """sha256 hex digest of :func:`canonical_form` — equal exactly for
    port-isomorphic graphs (up to hash collision); the content address of
    the service's result cache."""
    return canonical_form(g).fingerprint


def canonical_graph(g: PortGraph) -> PortGraph:
    """The canonical representative of ``g``'s isomorphism class: the
    relabeled graph the certificate serializes.  Port-isomorphic inputs
    yield structurally *equal* (``==``) canonical graphs."""
    return relabel_nodes(g, canonical_form(g).to_canonical)


def relabel_nodes(g: PortGraph, perm: Sequence[int]) -> PortGraph:
    """The graph with node ``u`` renamed ``perm[u]`` (ports untouched) —
    a port-isomorphic copy by construction.  ``perm`` must be a
    permutation of ``0..n-1``."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise GraphError(
            f"perm must be a permutation of 0..{g.n - 1}, got {list(perm)!r}"
        )
    b = PortGraphBuilder(g.n)
    for (u, p, v, q) in g.edges():
        b.add_edge(perm[u], p, perm[v], q)
    return b.build()
