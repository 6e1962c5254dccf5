"""Canonical forms: invariance, exactness, and parity with VF2.

The certificate's contract is sharp in both directions — equal exactly
for port-isomorphic graphs — so the tests are oracle-style: on every
connected graph up to 5 nodes (two port assignments each), certificate
equality must coincide with the VF2 decision, pairwise; and the rooted
certificate must decide anchored automorphism exactly as the anchored
VF2 search does, for every node pair of every instance.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.graphs import (
    PortGraphBuilder,
    canonical_form,
    canonical_graph,
    clique,
    cycle_with_leader_gadget,
    from_json,
    from_networkx,
    graph_fingerprint,
    grid_torus,
    hypercube,
    lollipop,
    random_connected_graph,
    random_tree,
    relabel_nodes,
    ring,
    rooted_certificate,
)
from repro.graphs.isomorphism import (
    _as_labeled_digraph,
    _port_isomorphism_vf2,
    port_automorphism_maps,
    port_isomorphism,
)
from repro.errors import GraphError


def _small_instances():
    """All connected atlas graphs on 3..5 nodes, two port assignments."""
    out = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not (3 <= n <= 5):
            continue
        if atlas_graph.number_of_edges() == 0 or not nx.is_connected(atlas_graph):
            continue
        out.append(from_networkx(atlas_graph))
        out.append(from_networkx(atlas_graph, seed=7))
    return out


SMALL = _small_instances()

SHAPES = [
    ring(7),
    random_tree(20, seed=3),
    hypercube(3),
    grid_torus(3, 4),
    lollipop(4, 3),
    cycle_with_leader_gadget(6),
    random_connected_graph(14, extra_edges=6, seed=9),
    clique(5),
]


def _random_perm(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class TestInvariance:
    @pytest.mark.parametrize("g", SHAPES, ids=lambda g: f"n{g.n}m{g.num_edges}")
    def test_certificate_invariant_under_relabeling(self, g):
        rng = random.Random(0)
        fp = graph_fingerprint(g)
        cert = canonical_form(g).certificate
        for _ in range(6):
            h = relabel_nodes(g, _random_perm(g.n, rng))
            assert canonical_form(h).certificate == cert
            assert graph_fingerprint(h) == fp

    @pytest.mark.parametrize("g", [ring(6), clique(4), hypercube(3)])
    def test_certificate_invariant_under_every_automorphism(self, g):
        """Relabeling by any port automorphism (enumerated exactly by
        VF2) leaves the certificate — trivially, the labeled graph —
        unchanged."""
        cert = canonical_form(g).certificate
        dg = _as_labeled_digraph(g)
        from networkx.algorithms import isomorphism as nxiso

        matcher = nxiso.DiGraphMatcher(
            dg,
            dg,
            node_match=lambda a, b: a["degree"] == b["degree"],
            edge_match=lambda a, b: a["port"] == b["port"],
        )
        count = 0
        for mapping in matcher.isomorphisms_iter():
            perm = [mapping[u] for u in range(g.n)]
            h = relabel_nodes(g, perm)
            assert h == g  # an automorphism fixes the labeled graph
            assert canonical_form(h).certificate == cert
            count += 1
            if count == 24:
                break  # the orbit check below covers the rest
        assert count > 1  # these graphs are symmetric: several found

    def test_canonical_graph_is_fixed_point(self):
        for g in SHAPES:
            cg = canonical_graph(g)
            assert canonical_graph(cg) == cg
            assert graph_fingerprint(cg) == graph_fingerprint(g)
            assert canonical_form(cg).to_canonical == tuple(range(g.n))

    def test_certificate_reconstructs_canonical_graph(self):
        g = random_tree(15, seed=5)
        cert = canonical_form(g).certificate
        assert from_json(cert.decode("ascii")) == canonical_graph(g)


class TestExactnessOracle:
    def test_pairwise_equality_matches_vf2(self):
        """On all connected <= 5-node instances: equal certificates iff
        VF2 finds a port-isomorphism — both directions, every pair."""
        forms = [canonical_form(g) for g in SMALL]
        for (g1, f1), (g2, f2) in itertools.combinations(
            zip(SMALL, forms), 2
        ):
            vf2 = _port_isomorphism_vf2(g1, g2)
            assert (f1.certificate == f2.certificate) == (vf2 is not None)

    def test_port_isomorphism_mapping_is_witness(self):
        """The certificate-derived mapping of port_isomorphism is a real
        port-isomorphism whenever VF2 says one exists."""
        rng = random.Random(1)
        for g in SMALL[::3]:
            h = relabel_nodes(g, _random_perm(g.n, rng))
            mapping = port_isomorphism(g, h)
            assert mapping is not None
            for u in g.nodes():
                for p in range(g.degree(u)):
                    v, q = g.neighbor(u, p)
                    assert h.neighbor(mapping[u], p) == (mapping[v], q)

    def test_unequal_certificate_means_no_isomorphism(self):
        seen = {}
        for g in SMALL:
            seen.setdefault(canonical_form(g).certificate, g)
        certs = list(seen.items())
        for (c1, g1), (c2, g2) in itertools.combinations(certs, 2):
            assert c1 != c2
            assert port_isomorphism(g1, g2) is None

    def test_corpus_prefix_fingerprints(self):
        from repro.corpus import get_family

        rng = random.Random(3)
        for family in ("random-trees", "tori", "lifts"):
            for _name, g in get_family(family).generate(3, seed=1):
                h = relabel_nodes(g, _random_perm(g.n, rng))
                assert graph_fingerprint(h) == graph_fingerprint(g)


class TestRootedCertificate:
    @pytest.mark.parametrize(
        "g",
        [grid_torus(3, 4), ring(6), clique(4), cycle_with_leader_gadget(5)],
        ids=["torus", "ring", "clique", "gadget"],
    )
    def test_orbit_parity_with_anchored_vf2(self, g):
        from repro.core.verify import leaders_equivalent

        certs = [rooted_certificate(g, v) for v in g.nodes()]
        for a in g.nodes():
            for b in g.nodes():
                maps = port_automorphism_maps(g, a, b)
                assert (certs[a] == certs[b]) == maps
                assert leaders_equivalent(g, a, b) == maps

    def test_orbit_parity_exhaustive_small(self):
        from repro.core.verify import leaders_equivalent

        for g in SMALL[::5]:
            certs = [rooted_certificate(g, v) for v in g.nodes()]
            for a, b in itertools.combinations(g.nodes(), 2):
                maps = port_automorphism_maps(g, a, b)
                assert (certs[a] == certs[b]) == maps
                assert leaders_equivalent(g, a, b) == maps

    def test_leaders_equivalent_uses_orbits(self):
        from repro.core.verify import leaders_equivalent

        g = ring(6)
        assert leaders_equivalent(g, 0, 0)
        assert leaders_equivalent(g, 0, 3)  # vertex-transitive
        h = cycle_with_leader_gadget(5)  # rigid
        assert not leaders_equivalent(h, 0, 1)

    def test_root_range_checked(self):
        from repro.core.verify import leaders_equivalent

        with pytest.raises(GraphError):
            rooted_certificate(ring(5), 5)
        for bad in (5, -1):
            with pytest.raises(GraphError):
                leaders_equivalent(ring(5), 0, bad)


class TestOrbitPartition:
    """The collapse partitions of :mod:`repro.core.orbit_elect` are graph
    properties: label-independent, and — for :func:`node_orbits` — exact
    against brute-force automorphism enumeration."""

    @staticmethod
    def _blocks(part):
        return {frozenset(block) for block in part.orbits}

    def test_invariant_under_random_relabelings(self):
        from repro.core.orbit_elect import behavior_classes, node_orbits

        rng = random.Random(5)
        for g in SHAPES:
            for compute in (node_orbits, behavior_classes):
                blocks = self._blocks(compute(g))
                for _ in range(4):
                    perm = _random_perm(g.n, rng)
                    h = relabel_nodes(g, perm)
                    mapped = {
                        frozenset(perm[v] for v in block) for block in blocks
                    }
                    assert self._blocks(compute(h)) == mapped

    def test_node_orbits_match_every_vf2_automorphism(self):
        """On all connected <= 5-node instances: ``same_orbit(a, b)`` iff
        some VF2-enumerated port automorphism maps ``a`` to ``b`` — the
        partition is exactly the automorphism group's node orbits."""
        from networkx.algorithms import isomorphism as nxiso

        from repro.core.orbit_elect import node_orbits

        for g in SMALL:
            dg = _as_labeled_digraph(g)
            matcher = nxiso.DiGraphMatcher(
                dg,
                dg,
                node_match=lambda a, b: a["degree"] == b["degree"],
                edge_match=lambda a, b: a["port"] == b["port"],
            )
            images = {v: set() for v in g.nodes()}
            for mapping in matcher.isomorphisms_iter():
                for v, w in mapping.items():
                    images[v].add(w)
            part = node_orbits(g)
            for a in g.nodes():
                for b in g.nodes():
                    assert part.same_orbit(a, b) == (b in images[a])

    def test_refines_stable_classes(self):
        from repro.core.orbit_elect import behavior_classes, node_orbits

        for g in SHAPES:
            classes = behavior_classes(g)
            for block in node_orbits(g).orbits:
                assert len({classes.orbit_of[v] for v in block}) == 1


class TestRelabelNodes:
    def test_identity(self):
        g = lollipop(4, 2)
        assert relabel_nodes(g, list(range(g.n))) == g

    def test_rejects_non_permutation(self):
        g = ring(4)
        with pytest.raises(GraphError):
            relabel_nodes(g, [0, 1, 2])
        with pytest.raises(GraphError):
            relabel_nodes(g, [0, 1, 2, 2])

    def test_composition(self):
        g = random_tree(12, seed=2)
        rng = random.Random(4)
        p1 = _random_perm(g.n, rng)
        p2 = _random_perm(g.n, rng)
        composed = [p2[p1[u]] for u in range(g.n)]
        assert relabel_nodes(relabel_nodes(g, p1), p2) == relabel_nodes(
            g, composed
        )


class TestCaching:
    def test_form_cached_on_instance(self):
        g = ring(9)
        assert g._canon_cache is None
        f1 = canonical_form(g)
        assert g._canon_cache is f1
        assert canonical_form(g) is f1

    def test_engine_serial_path_drops_canon_cache(self):
        from repro.engine import run_experiments

        g = random_tree(10, seed=1)
        canonical_form(g)
        run_experiments([("t", g)], task="index", workers=1, chunk_size=1)
        assert g._canon_cache is None
