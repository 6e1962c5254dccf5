"""Theorem 3.1 end to end: ComputeAdvice size/shape, advice decoding,
Algorithm Elect's correctness and exact time phi."""

import math

import pytest

from repro.core import compute_advice, run_elect, verify_election
from repro.core.advice import canonical_bfs_tree, decode_advice
from repro.core.elect import ElectAlgorithm
from repro.errors import AdviceError, ElectionFailure, InfeasibleGraphError
from repro.graphs import cycle_with_leader_gadget, from_dict, lollipop, ring
from repro.lowerbounds import hk_graph, necklace
from repro.sim import run_sync

from tests.conftest import feasible_corpus


class TestComputeAdvice:
    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_advice_size_envelope(self, name_g):
        """|Adv| = O(n log n): generous concrete constant on the corpus."""
        _, g = name_g
        bundle = compute_advice(g)
        assert bundle.size_bits <= 220 * g.n * max(1.0, math.log2(g.n))

    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_decode_round_trip(self, name_g):
        _, g = name_g
        bundle = compute_advice(g)
        phi, e1, e2, tree = decode_advice(bundle.bits)
        assert phi == bundle.phi
        assert e1 == bundle.e1
        assert e2 == bundle.e2
        assert tree == bundle.tree

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleGraphError):
            compute_advice(ring(6))

    def test_one_node_graph_is_an_advice_error(self):
        """phi = 0 has no depth-1 trie to build: a domain error, not the
        IndexError it used to be (regression)."""
        g = from_dict({"n": 1, "edges": []})
        with pytest.raises(AdviceError, match="phi = 0"):
            compute_advice(g)
        with pytest.raises(AdviceError, match="phi = 0"):
            run_elect(g)

    def test_root_has_label_one(self):
        g = cycle_with_leader_gadget(7)
        bundle = compute_advice(g)
        assert bundle.labels[bundle.root] == 1

    def test_tree_contains_all_labels(self):
        g = lollipop(5, 3)
        bundle = compute_advice(g)
        assert sorted(bundle.tree.labels()) == list(range(1, g.n + 1))

    def test_e2_layers_cover_depths(self):
        g = necklace(4, 3)
        bundle = compute_advice(g)
        assert [depth for depth, _ in bundle.e2] == list(range(2, bundle.phi + 1))

    def test_e2_empty_when_phi_one(self):
        g = hk_graph(4)
        bundle = compute_advice(g)
        assert bundle.phi == 1
        assert bundle.e2 == []


class TestCanonicalBfsTree:
    def test_parent_is_smallest_port(self):
        g = cycle_with_leader_gadget(6)
        labels = {v: v + 1 for v in g.nodes()}
        tree = canonical_bfs_tree(g, 0, labels)
        assert tree.size() == g.n
        # root label
        assert tree.label == 1

    def test_tree_edges_exist_in_graph(self):
        g = lollipop(4, 3)
        labels = {v: v + 1 for v in g.nodes()}
        tree = canonical_bfs_tree(g, 2, labels)

        def check(node, graph_node):
            for q, p, child in node.children:
                # q = port at parent, p = port at child
                v, back = g.neighbor(graph_node, q)
                assert back == p
                check(child, v)

        check(tree, 2)


class TestElect:
    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_end_to_end(self, name_g):
        """run_elect already asserts: valid election, leader == oracle's
        root, time exactly phi."""
        _, g = name_g
        record = run_elect(g)
        assert record.n == g.n
        assert record.advice_bits > 0

    def test_paranoid_mode(self, gadget6):
        run_elect(gadget6, paranoid=True)

    def test_on_lower_bound_families(self):
        for g in (hk_graph(4), necklace(4, 2), necklace(4, 3)):
            run_elect(g)

    def test_elect_requires_advice(self, gadget6):
        with pytest.raises(AdviceError):
            run_sync(gadget6, ElectAlgorithm, advice=None)

    def test_corrupted_advice_detected(self, gadget6):
        from repro.coding import Bits
        from repro.errors import CodingError, ReproError

        bundle = compute_advice(gadget6)
        corrupted = Bits(bundle.bits.as_str()[:-2])
        with pytest.raises(ReproError):
            run_sync(gadget6, ElectAlgorithm, advice=corrupted)


class TestVerifyElection:
    def test_accepts_valid(self, gadget6):
        bundle = compute_advice(gadget6)
        result = run_sync(gadget6, ElectAlgorithm, advice=bundle.bits)
        outcome = verify_election(gadget6, result.outputs)
        assert outcome.leader == bundle.root
        assert outcome.paths[bundle.root] == [bundle.root]

    def test_rejects_missing_output(self, gadget6):
        with pytest.raises(ElectionFailure):
            verify_election(gadget6, {0: ()})

    def test_rejects_odd_length(self, gadget6):
        outputs = {v: (0,) for v in gadget6.nodes()}
        with pytest.raises(ElectionFailure):
            verify_election(gadget6, outputs)

    def test_rejects_disagreeing_leaders(self, gadget6):
        # everyone claims themselves: empty paths ending at different nodes
        outputs = {v: () for v in gadget6.nodes()}
        with pytest.raises(ElectionFailure):
            verify_election(gadget6, outputs)

    def test_rejects_non_simple_path(self):
        g = ring(4)
        # walk around the whole ring back to start: revisits the start node
        outputs = {v: (0, 1, 0, 1, 0, 1, 0, 1) for v in g.nodes()}
        with pytest.raises(ElectionFailure):
            verify_election(g, outputs)

    def test_rejects_invalid_port_pair(self, gadget6):
        outputs = {v: (0, 9) for v in gadget6.nodes()}
        with pytest.raises(ElectionFailure):
            verify_election(gadget6, outputs)
