"""The pruned canonical search against the unpruned one it replaced.

``_compute_canonical_form`` searches the minimal level-1 class for the
lex-min BFS encoding with early exit and automorphism pruning, and
``node_orbits`` splits refinement classes with the same rooted encodings
and union-find.  Both must return exactly what the searches they
replaced returned, which this module keeps as executable specs:

* ``spec_canonical_form``: every candidate root's full BFS encoding,
  the first minimal one winning.  The pruned search must return an
  ``==`` :class:`CanonicalForm` (certificate, fingerprint and
  ``to_canonical``) on all connected 2..6-node atlas graphs under two
  port maps and three relabelings each, on relabeled 40-entry prefixes
  of every corpus family, on large symmetric families and twisted tori,
  and on the rigid lower-bound graphs.
* ``spec_node_orbits``: one ``rooted_certificate`` per member of each
  non-singleton refinement class.  ``node_orbits`` must return an ``==``
  :class:`OrbitPartition`.

The search's work is bounded by a count, not a clock: BFS nodes expanded
over all roots, counted by wrapping the per-root BFS helper.  And every
entry point refuses a disconnected graph.
"""

import hashlib
import math
import random

import networkx as nx
import pytest

from repro.core.orbit_elect import _group_by_key, node_orbits
from repro.corpus import list_families
from repro.errors import GraphError
from repro.graphs import (
    PortGraphBuilder,
    canonical_form,
    circulant,
    from_networkx,
    grid_torus,
    hypercube,
    random_tree,
    relabel_nodes,
    rooted_certificate,
)
from repro.graphs import canonical
from repro.graphs.canonical import (
    CanonicalForm,
    _certificate_bytes,
    _compute_canonical_form,
)
from repro.graphs.csr import csr_of
from repro.lowerbounds import hk_graph, necklace
from repro.views.refinement import stable_partition


# ----------------------------------------------------------------------
# the specs
# ----------------------------------------------------------------------
def spec_bfs_labels(csr, root):
    labels = [-1] * csr.n
    labels[root] = 0
    order = [root]
    nbrs = csr.neighbor_tuples
    next_label = 1
    for u in order:
        for v in nbrs[u]:
            if labels[v] < 0:
                labels[v] = next_label
                next_label += 1
                order.append(v)
    if next_label != csr.n:
        raise GraphError("canonical form requires a connected graph")
    return labels


def spec_encoding(csr, labels):
    by_label = [0] * csr.n
    for u, lab in enumerate(labels):
        by_label[lab] = u
    nbrs = csr.neighbor_tuples
    rports = csr.remote_port_tuples
    enc = []
    for u in by_label:
        enc.append(csr.degrees[u])
        for v, q in zip(nbrs[u], rports[u]):
            enc.append(labels[v])
            enc.append(q)
    return enc


def spec_canonical_form(g):
    """Every candidate's full encoding; a tie never replaces the best."""
    csr = csr_of(g)
    best_key = None
    candidates = []
    for v in range(csr.n):
        key = (csr.degrees[v], csr.remote_port_tuples[v])
        if best_key is None or key < best_key:
            best_key = key
            candidates = [v]
        elif key == best_key:
            candidates.append(v)
    best_enc = None
    best_labels = None
    for root in candidates:
        labels = spec_bfs_labels(csr, root)
        enc = spec_encoding(csr, labels)
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_labels = labels
    certificate = _certificate_bytes(g, best_labels)
    return CanonicalForm(
        certificate=certificate,
        fingerprint=hashlib.sha256(certificate).hexdigest(),
        to_canonical=tuple(best_labels),
    )


def spec_node_orbits(g):
    """One rooted certificate per member of a non-singleton class."""
    sig = stable_partition(g).signature
    class_size = {}
    for c in sig:
        class_size[c] = class_size.get(c, 0) + 1

    def key_of(v):
        c = sig[v]
        if class_size[c] == 1:
            return v
        return (c, rooted_certificate(g, v))

    return _group_by_key(g.n, key_of)


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def twisted_torus(rows, cols):
    """A torus with two far-apart east edges crossed: ``a -> a + east``
    and ``b -> b + east`` become ``a -> b + east`` and ``b -> a + east``,
    on the same ports.  Every node keeps its level-1 key and its views,
    and ``b`` is not antipodal to ``a``, so no translation survives."""

    def node(r, c):
        return (r % rows) * cols + (c % cols)

    a, b = node(0, 0), node(rows // 2, cols // 2 + 1)
    east_of = {a: node(rows // 2, cols // 2 + 2), b: node(0, 1)}
    builder = PortGraphBuilder(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = node(r, c)
            builder.add_edge(u, 0, east_of.get(u, node(r, c + 1)), 1)
            builder.add_edge(u, 2, node(r + 1, c), 3)
    return builder.build()


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel_nodes(g, perm)


def _atlas():
    out = []
    for atlas_graph in nx.graph_atlas_g():
        if not 2 <= atlas_graph.number_of_nodes() <= 6:
            continue
        if not nx.is_connected(atlas_graph):
            continue
        name = atlas_graph.name
        out.append((f"{name}-canonical", from_networkx(atlas_graph)))
        out.append((f"{name}-seeded", from_networkx(atlas_graph, seed=7)))
    return out


def _corpus_prefixes():
    rng = random.Random(11)
    return [
        (name, _relabeled(g, rng))
        for family in list_families()
        for name, g in family.generate(40, seed=1)
    ]


ATLAS = _atlas()
CORPUS = _corpus_prefixes()
SYMMETRIC = {
    "torus-20x20": lambda: grid_torus(20, 20),
    "hypercube-d7": lambda: hypercube(7),
    "circulant-300-1-7-31": lambda: circulant(300, [1, 7, 31]),
    "twisted-torus-10x10": lambda: twisted_torus(10, 10),
    "twisted-torus-20x20": lambda: twisted_torus(20, 20),
}
RIGID = {
    **{
        f"necklace-{k}-{phi}": (lambda k=k, phi=phi: necklace(k, phi))
        for k in (4, 5)
        for phi in (2, 3)
    },
    **{f"hk-{k}": (lambda k=k: hk_graph(k)) for k in (3, 4, 5)},
}
FAMILIES = {
    **SYMMETRIC,
    "random-tree-1000": lambda: random_tree(1000, seed=5),
    **RIGID,
}


def test_the_inputs_are_substantial():
    # connected shapes: 1 (n=2) + 2 (n=3) + 6 + 21 + 112, x2 port maps
    assert len(ATLAS) == 2 * (1 + 2 + 6 + 21 + 112)
    assert len(CORPUS) == 40 * len(list_families())
    for build in RIGID.values():
        assert stable_partition(build()).discrete


# ----------------------------------------------------------------------
# the canonical search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", ATLAS, ids=lambda p: p[0])
def test_atlas_graph_under_three_relabelings(name_g):
    name, g = name_g
    rng = random.Random(name)
    for _ in range(3):
        h = _relabeled(g, rng)
        assert _compute_canonical_form(h) == spec_canonical_form(h)


@pytest.mark.parametrize("name_g", CORPUS, ids=lambda p: p[0])
def test_relabeled_corpus_entry(name_g):
    _, g = name_g
    assert _compute_canonical_form(g) == spec_canonical_form(g)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_large_and_rigid_families(name):
    g = FAMILIES[name]()
    for h in (g, _relabeled(g, random.Random(name))):
        assert _compute_canonical_form(h) == spec_canonical_form(h)


# ----------------------------------------------------------------------
# node orbits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", ATLAS, ids=lambda p: p[0])
def test_node_orbits_on_atlas_graph(name_g):
    _, g = name_g
    assert node_orbits(g) == spec_node_orbits(g)


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_node_orbits_on_symmetric_family(name):
    g = _relabeled(SYMMETRIC[name](), random.Random(name))
    assert node_orbits(g) == spec_node_orbits(g)


# ----------------------------------------------------------------------
# work, counted
# ----------------------------------------------------------------------
WORK = {
    "torus-60x60": lambda: grid_torus(60, 60),
    "hypercube-d10": lambda: hypercube(10),
    "circulant-1000-1-7-31": lambda: circulant(1000, [1, 7, 31]),
    **{
        f"random-tree-3000-s{s}": (lambda s=s: random_tree(3000, seed=s))
        for s in range(4)
    },
}


@pytest.fixture
def expanded(monkeypatch):
    """Counts the BFS nodes expanded over all roots, dropped ones
    included: one per record the per-root helper yields."""
    count = [0]
    inner = canonical._bfs_records

    def counting(csr, root, labels):
        for record in inner(csr, root, labels):
            count[0] += 1
            yield record

    monkeypatch.setattr(canonical, "_bfs_records", counting)
    return count


@pytest.mark.parametrize("name", list(WORK))
def test_search_expands_at_most_20n_bfs_nodes(name, expanded):
    g = _relabeled(WORK[name](), random.Random(0))
    canonical_form(g)
    # the first candidate always runs to the end; the unpruned search
    # expanded n per candidate, and there are n candidates on the
    # vertex-transitive graphs and about n / 4 on the trees
    assert g.n <= expanded[0] <= 20 * g.n


@pytest.mark.parametrize("name", list(WORK)[:3])
def test_node_orbits_encodes_a_few_roots_on_vertex_transitive_graphs(
    name, expanded
):
    g = _relabeled(WORK[name](), random.Random(0))
    assert node_orbits(g).num_orbits == 1
    # one encoding for the orbit, two per automorphism found, and each
    # automorphism at least doubles the group the earlier ones generate,
    # whose order is at most n
    assert expanded[0] <= (1 + 2 * math.log2(g.n)) * g.n


# ----------------------------------------------------------------------
# the disconnected-graph guard
# ----------------------------------------------------------------------
def _two_edges():
    """Two disjoint edges: one refinement class of four nodes."""
    builder = PortGraphBuilder(4)
    builder.add_edge(0, 0, 1, 0)
    builder.add_edge(2, 0, 3, 0)
    return builder.build(require_connected=False)


@pytest.mark.parametrize(
    "entry",
    [canonical_form, lambda g: rooted_certificate(g, 0), node_orbits],
    ids=["canonical_form", "rooted_certificate", "node_orbits"],
)
def test_disconnected_graph_is_refused(entry):
    with pytest.raises(GraphError, match="connected"):
        entry(_two_edges())
