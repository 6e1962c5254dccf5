"""The oracle's codes against the implementations they replaced.

The depth-1 BuildTrie (``core/trie_builder.py``) builds the compact binary
trie of the sorted codes ``bin(B^1)`` in one pass, and the advice codes
(``encode_trie``, ``encode_e2``, ``encode_tree``, ``encode_b1`` and the
top of ``compute_advice``) write every integer code once, at its
``Concat`` nesting level.  Both must give exactly what the earlier
implementations gave: a split-by-split recursion over the codes, and
nested :func:`concat_bits` calls.  Those implementations are kept below,
verbatim, as the executable specification; nothing in ``src/`` calls
them.

* **Depth-1 tries.**  Every level-1 view set, random subsets of it, and
  the union of the atlas's sets: ``Trie``-equal to the spec.
* **Codes.**  Every code, on the bundles of those graphs and on random
  tries, E2 lists and labeled trees with multi-digit ports and labels:
  bit-equal to the spec.
* **Advice.**  ``compute_advice(g).bits`` equals the spec's top-level
  ``Concat`` over a bundle built with the spec trie builder, and the two
  bundles agree field by field.
* **Negative integers** raise :class:`CodingError` from every writer, as
  ``encode_uint`` does.

The graphs: all connected atlas graphs on 2..6 nodes under two port maps
(the instances ``test_exhaustive_small.py`` sweeps), corpus prefixes, and
``lollipop(4, 100)``.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.bitstring import Bits
from repro.coding.concat import concat_bits
from repro.coding.integers import encode_uint
from repro.coding.nested import encode_e2
from repro.coding.trees import LabeledRootedTree, _port_order, encode_tree
from repro.coding.tries import Trie, encode_trie, trie_leaf, trie_node
from repro.core import trie_builder
from repro.core.advice import compute_advice
from repro.core.labels import LabelingContext
from repro.core.trie_builder import build_trie
from repro.corpus import iter_corpus
from repro.errors import AdviceError, CodingError
from repro.graphs import from_networkx, lollipop
from repro.views import is_feasible
from repro.views.encoding import encode_b1
from repro.views.order import sort_views
from repro.views.view import views_of_graph
from tests.conftest import feasible_corpus


# ----------------------------------------------------------------------
# the specification: the implementations the one-pass code replaced
# ----------------------------------------------------------------------
def spec_encode_b1(view) -> Bits:
    triples = []
    for j, (remote_port, child) in enumerate(view.children):
        triples.append(
            concat_bits(
                [encode_uint(j), encode_uint(remote_port), encode_uint(child.degree)]
            )
        )
    return concat_bits(triples)


def spec_build_depth1(views) -> Trie:
    if len(views) == 1:
        return trie_leaf()
    encodings = {v: spec_encode_b1(v) for v in views}
    lengths = {len(bits) for bits in encodings.values()}
    if len(lengths) > 1:
        longest = max(lengths)
        left_set = [v for v in views if len(encodings[v]) < longest]
        query = (0, longest)
    else:
        (common_len,) = lengths
        split_pos = None
        for j in range(1, common_len + 1):
            bits_at_j = {encodings[v].bit(j) for v in views}
            if len(bits_at_j) > 1:
                split_pos = j
                break
        if split_pos is None:
            raise AdviceError(
                "distinct depth-1 views share one encoding: codec is broken"
            )
        left_set = [v for v in views if encodings[v].bit(split_pos) == 0]
        query = (1, split_pos)
    left = set(left_set)
    right_set = [v for v in views if v not in left]
    if not left_set or not right_set:
        raise AdviceError("depth-1 trie split produced an empty side")
    return trie_node(query, spec_build_depth1(left_set), spec_build_depth1(right_set))


def spec_encode_trie(trie: Trie) -> Bits:
    records = []

    def dfs(node: Trie) -> None:
        if node.is_leaf:
            records.append(concat_bits([encode_uint(0)]))
        else:
            a, b = node.query
            records.append(
                concat_bits([encode_uint(1), encode_uint(a), encode_uint(b)])
            )
            dfs(node.left)
            dfs(node.right)

    dfs(trie)
    return concat_bits(records)


def spec_encode_e2(e2) -> Bits:
    parts = []
    for depth, inner in e2:
        parts.append(encode_uint(depth))
        inner_parts = []
        for label, trie in inner:
            inner_parts.append(encode_uint(label))
            inner_parts.append(spec_encode_trie(trie))
        parts.append(concat_bits(inner_parts))
    return concat_bits(parts)


def spec_encode_tree(tree: LabeledRootedTree) -> Bits:
    ascent = concat_bits([encode_uint(1)])
    steps = []
    labels = [encode_uint(tree.label)]
    stack = [iter(_port_order(tree))]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if stack:
                steps.append(ascent)
            continue
        port_parent, port_child, child = edge
        steps.append(
            concat_bits(
                [encode_uint(0), encode_uint(port_parent), encode_uint(port_child)]
            )
        )
        labels.append(encode_uint(child.label))
        stack.append(iter(_port_order(child)))
    return concat_bits([concat_bits(steps), concat_bits(labels)])


def spec_advice_bits(bundle) -> Bits:
    a1 = concat_bits([spec_encode_trie(bundle.e1), spec_encode_e2(bundle.e2)])
    a2 = spec_encode_tree(bundle.tree)
    return concat_bits([encode_uint(bundle.phi), a1, a2])


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def _atlas_instances():
    """Connected atlas graphs on 2..6 nodes, canonical and seeded ports."""
    out = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not (2 <= n <= 6):
            continue
        if not nx.is_connected(atlas_graph):
            continue
        gid = f"atlas-{atlas_graph.name or id(atlas_graph)}"
        out.append((f"{gid}-canonical", from_networkx(atlas_graph)))
        out.append((f"{gid}-seeded", from_networkx(atlas_graph, seed=7)))
    return out


def _corpus_instances():
    out = list(feasible_corpus())
    for family in (
        "random-trees:12,seed=1",
        "caterpillars:12,seed=1",
        "random-regular:12,seed=1",
        "circulants:8,seed=1,max_n=40",
    ):
        out.extend(iter_corpus(family))
    out.append(("lollipop-4-100", lollipop(4, 100)))
    return out


ATLAS = _atlas_instances()
GRAPHS = ATLAS + _corpus_instances()
FEASIBLE = [(name, g) for name, g in GRAPHS if is_feasible(g)]


def test_the_sweep_is_substantial():
    # connected shapes: 1 (n=2) + 2 (n=3) + 6 + 21 + 112, x2 port maps
    assert len(ATLAS) == 2 * (1 + 2 + 6 + 21 + 112)
    assert len(FEASIBLE) >= 100


def _level1(g):
    return sort_views(set(views_of_graph(g, 1)))


# ----------------------------------------------------------------------
# depth-1 BuildTrie
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", GRAPHS, ids=lambda p: p[0])
def test_depth1_trie_equals_spec_on_every_view_set(name_g):
    _, g = name_g
    views = _level1(g)
    assert build_trie(views, LabelingContext()) == spec_build_depth1(views)
    rng = random.Random(len(views))
    for _ in range(6):
        subset = rng.sample(views, rng.randint(1, len(views)))
        assert build_trie(subset, LabelingContext()) == spec_build_depth1(subset)


def test_depth1_trie_equals_spec_on_the_atlas_union():
    """Views are interned, so the level-1 views of all atlas graphs form
    one large set with many code lengths: a long length chain over deep
    bit tries."""
    union = sort_views({v for _, g in ATLAS for v in views_of_graph(g, 1)})
    assert len({len(encode_b1(v)) for v in union}) >= 5
    assert build_trie(union, LabelingContext()) == spec_build_depth1(union)


def test_two_views_with_one_code_are_refused(monkeypatch):
    """The one-pass builder keeps the spec's guard: two distinct views
    with one code (equal adjacent codes after the sort) are refused."""
    views = _level1(lollipop(4, 3))
    real = trie_builder.encode_b1

    def colliding(view):
        return real(views[1]) if view is views[0] else real(view)

    monkeypatch.setattr(trie_builder, "encode_b1", colliding)
    with pytest.raises(AdviceError, match="share one encoding"):
        build_trie(views, LabelingContext())


# ----------------------------------------------------------------------
# the codes, on the oracle's bundles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", FEASIBLE, ids=lambda p: p[0])
def test_advice_equals_spec(name_g, monkeypatch):
    _, g = name_g
    bundle = compute_advice(g)
    with monkeypatch.context() as patched:
        patched.setattr(trie_builder, "_build_depth1", spec_build_depth1)
        spec_bundle = compute_advice(g)
    assert bundle.e1 == spec_bundle.e1
    assert bundle.e2 == spec_bundle.e2
    assert bundle.tree == spec_bundle.tree
    assert bundle.labels == spec_bundle.labels
    assert bundle.bits == spec_advice_bits(spec_bundle)
    assert encode_trie(bundle.e1) == spec_encode_trie(bundle.e1)
    assert encode_e2(bundle.e2) == spec_encode_e2(bundle.e2)
    assert encode_tree(bundle.tree) == spec_encode_tree(bundle.tree)
    for v in views_of_graph(g, 1):
        assert encode_b1(v) == spec_encode_b1(v)


# ----------------------------------------------------------------------
# the codes, on random structures with multi-digit integers
# ----------------------------------------------------------------------
QUERY_INTS = st.integers(min_value=0, max_value=5000)
TRIES = st.recursive(
    st.just(trie_leaf()),
    lambda sub: st.builds(
        trie_node, st.tuples(QUERY_INTS, QUERY_INTS), sub, sub
    ),
    max_leaves=40,
)
E2_LISTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**6), TRIES),
            max_size=4,
        ),
    ),
    max_size=4,
)


@st.composite
def labeled_trees(draw):
    """A random labeled rooted tree: multi-digit labels and ports, and
    children added in any port order (the code sorts them)."""
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40)
    )
    nodes = [LabeledRootedTree(labels[0])]
    for label in labels[1:]:
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        child = LabeledRootedTree(label)
        parent.add_child(
            draw(st.integers(min_value=0, max_value=3000)),
            draw(st.integers(min_value=0, max_value=3000)),
            child,
        )
        nodes.append(child)
    return nodes[0]


@settings(max_examples=150, deadline=None)
@given(TRIES)
def test_trie_code_equals_spec(trie):
    assert encode_trie(trie) == spec_encode_trie(trie)


@settings(max_examples=100, deadline=None)
@given(E2_LISTS)
def test_e2_code_equals_spec(e2):
    assert encode_e2(e2) == spec_encode_e2(e2)


@settings(max_examples=150, deadline=None)
@given(labeled_trees())
def test_tree_code_equals_spec(tree):
    assert encode_tree(tree) == spec_encode_tree(tree)


# ----------------------------------------------------------------------
# negative integers: the writers refuse them as encode_uint does
# ----------------------------------------------------------------------
def _tree_with(port_parent=1, port_child=0, label=5):
    root = LabeledRootedTree(0)
    root.add_child(port_parent, port_child, LabeledRootedTree(label))
    return root


@pytest.mark.parametrize(
    "tree",
    [
        _tree_with(port_parent=-1),
        _tree_with(port_child=-3),
        _tree_with(label=-2),
        LabeledRootedTree(-1),
    ],
    ids=["parent-port", "child-port", "child-label", "root-label"],
)
def test_tree_writer_refuses_negative_integers(tree):
    with pytest.raises(CodingError, match="non-negative"):
        spec_encode_tree(tree)
    with pytest.raises(CodingError, match="non-negative"):
        encode_tree(tree)


@pytest.mark.parametrize(
    "e2",
    [[(-2, [])], [(2, [(-1, trie_leaf())])]],
    ids=["depth", "label"],
)
def test_e2_writer_refuses_negative_integers(e2):
    with pytest.raises(CodingError, match="non-negative"):
        spec_encode_e2(e2)
    with pytest.raises(CodingError, match="non-negative"):
        encode_e2(e2)
