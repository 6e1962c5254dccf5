"""RetrieveLabel/LocalLabel/BuildTrie: the label uniqueness claims
(Claims 3.2, 3.4, 3.7) verified directly on graph corpora."""

import pytest

from repro.core.advice import compute_advice
from repro.core.labels import LabelingContext, local_label, retrieve_label
from repro.core.trie_builder import build_trie
from repro.errors import AdviceError
from repro.graphs import lollipop, random_connected_graph
from repro.views import election_index, is_feasible, views_of_graph
from repro.views.order import sort_views

from tests.conftest import feasible_corpus


def _depth1_context(g):
    ctx = LabelingContext()
    s1 = sort_views(set(views_of_graph(g, 1)))
    ctx.e1 = build_trie(s1, ctx)
    return ctx, s1


class TestDepth1Tries:
    """Claims 3.1 / 3.2: the depth-1 trie has 2|S|-1 nodes and routes
    distinct views to distinct labels in {1..|S|}."""

    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_trie_shape(self, name_g):
        _, g = name_g
        ctx, s1 = _depth1_context(g)
        assert ctx.e1.num_leaves() == len(s1)
        assert ctx.e1.size() == 2 * len(s1) - 1

    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_labels_bijective(self, name_g):
        _, g = name_g
        ctx, s1 = _depth1_context(g)
        labels = {local_label(b, (), ctx.e1) for b in s1}
        assert labels == set(range(1, len(s1) + 1))

    def test_single_view_label_one(self):
        from repro.graphs import ring

        g = ring(6)  # all depth-1 views identical
        ctx, s1 = _depth1_context(g)
        assert len(s1) == 1
        assert local_label(s1[0], (), ctx.e1) == 1


class TestRetrieveLabelFullDepth:
    """Claim 3.7 at depth phi: RetrieveLabel is a bijection onto {1..n}."""

    @pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
    def test_bijection(self, name_g):
        _, g = name_g
        bundle = compute_advice(g)
        assert sorted(bundle.labels.values()) == list(range(1, g.n + 1))

    @pytest.mark.parametrize("name_g", feasible_corpus()[:4], ids=lambda p: p[0])
    def test_intermediate_depths_injective(self, name_g):
        """Distinct views at every depth d <= phi get distinct labels in
        {1..|S_d|} under the final advice context."""
        _, g = name_g
        bundle = compute_advice(g)
        ctx = LabelingContext(e1=bundle.e1)
        for depth, layer in bundle.e2:
            ctx.add_layer(depth, dict(layer))
        for d in range(1, bundle.phi + 1):
            distinct = sort_views(set(views_of_graph(g, d)))
            labels = [retrieve_label(b, ctx) for b in distinct]
            assert len(set(labels)) == len(distinct)
            assert all(1 <= lab <= len(distinct) for lab in labels)

    def test_depth_zero_rejected(self):
        from repro.views.view import View

        ctx = LabelingContext()
        with pytest.raises(AdviceError):
            retrieve_label(View.make(2, ()), ctx)


class TestBuildTrieValidation:
    def test_rejects_empty(self):
        with pytest.raises(AdviceError):
            build_trie([], LabelingContext())

    def test_rejects_duplicates(self):
        g = lollipop(4, 2)
        v = views_of_graph(g, 1)[0]
        with pytest.raises(AdviceError):
            build_trie([v, v], LabelingContext())

    def test_rejects_mixed_depths(self):
        g = lollipop(4, 2)
        v1 = views_of_graph(g, 1)[0]
        v2 = views_of_graph(g, 2)[0]
        with pytest.raises(AdviceError):
            build_trie([v1, v2], LabelingContext())


class TestDeepTries:
    """Deep-mode tries (Claim 3.6): built per label group at each depth,
    with queries whose integers stay O(n)."""

    @pytest.mark.parametrize("seed", [5, 12])
    def test_queries_bounded(self, seed):
        g = random_connected_graph(14, extra_edges=7, seed=seed)
        if not is_feasible(g) or election_index(g) < 2:
            pytest.skip("need a feasible graph with phi >= 2")
        bundle = compute_advice(g)
        for depth, layer in bundle.e2:
            for label, trie in layer:
                for (a, b) in trie.queries():
                    assert 0 <= a < g.max_degree()
                    assert 1 <= b <= g.n
