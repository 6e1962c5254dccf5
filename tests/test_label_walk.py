"""The label walk against the code it replaced.

RetrieveLabel (Algorithm 3) routes every view through LocalLabel
(Algorithm 2), which walks a trie and, at each right turn, skips the
leaves of the left subtrie.  The oracle's labeling pass and every node
run that walk, so three changes make it cheaper:

* every ``Trie`` node stores its leaf count (``Trie.leaves``) when it is
  built, in place of a recursive count behind a per-context cache;
* ``local_label`` reads the depth-1 code ``bin(B^1)`` once per walk, not
  once per trie node;
* ``View`` compares and hashes through ``object`` (identity, in C), with
  no ``__eq__``/``__hash__`` of its own.

Each must give exactly what the replaced code gave.  That code is kept
below, verbatim, as the executable specification; nothing in ``src/``
calls it.

* **Leaf counts.**  Every node of every trie that ``build_trie``,
  ``decode_trie`` and ``decode_e2`` produce on the graphs below, and of
  the ``TRIES`` strategy of ``tests/test_oracle_codes.py``, stores the
  spec's count.
* **Walks.**  On every view x every E1/E2 trie of a graph, the walk
  returns the spec's label or raises the spec's exception class.  Every
  depth-1 view of every graph also walks every graph's E1: a foreign view
  whose code is shorter than a ``(1, j)`` query raises ``CodingError``.
* **Identity.**  ``View.__eq__`` and ``View.__hash__`` are ``object``'s.
* **Advice.**  A sha256 over ``compute_advice(g).bits`` on 183 feasible
  graphs equals the digest the replaced code gave.

The graphs: the connected atlas graphs on 2..6 nodes under two port
maps, and 40-entry prefixes of random-trees and caterpillars.
"""

import hashlib

import pytest
from hypothesis import given, settings

from repro.coding.nested import decode_e2, encode_e2
from repro.coding.tries import decode_trie, encode_trie, trie_leaf
from repro.core.advice import (
    compute_advice,
    decode_advice,
    labeling_context_from_advice,
)
from repro.core.labels import LabelingContext, local_label, retrieve_label
from repro.core.trie_builder import build_trie
from repro.corpus import iter_corpus
from repro.errors import AdviceError, CodingError
from repro.graphs import lollipop
from repro.views import is_feasible
from repro.views.encoding import encode_b1
from repro.views.order import sort_views
from repro.views.view import View, view_levels, views_of_graph
from tests.test_oracle_codes import ATLAS, TRIES


# ----------------------------------------------------------------------
# the specification: the walk and the leaf count the change replaced
# ----------------------------------------------------------------------
def spec_num_leaves(trie) -> int:
    if trie.is_leaf:
        return 1
    return spec_num_leaves(trie.left) + spec_num_leaves(trie.right)


def spec_local_label(b, x, trie) -> int:
    node = trie
    offset = 0
    while not node.is_leaf:
        qx, qy = node.query
        left = False
        if len(x) == 0:
            bits = encode_b1(b)
            if qx == 0 and len(bits) < qy:
                left = True
            if qx == 1 and bits.bit(qy) == 0:
                left = True
        else:
            if qx >= len(x):
                raise AdviceError(
                    f"trie query inspects child {qx} but the view root has "
                    f"only {len(x)} children"
                )
            if x[qx] != qy:
                left = True
        if left:
            node = node.left
        else:
            offset += spec_num_leaves(node.left)
            node = node.right
    return offset + 1


def _outcome(walk, *args):
    """A walk's label, or the class of the exception it raised."""
    try:
        return walk(*args)
    except Exception as exc:  # the class is what the parity compares
        return type(exc)


def _nodes(trie):
    stack = [trie]
    while stack:
        node = stack.pop()
        yield node
        if node.query is not None:
            stack.extend((node.left, node.right))


def _assert_counts_match_spec(trie):
    for node in _nodes(trie):
        assert node.leaves == node.num_leaves() == spec_num_leaves(node)


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
GRAPHS = (
    ATLAS
    + list(iter_corpus("random-trees:40"))
    + list(iter_corpus("caterpillars:40"))
)
FEASIBLE = [(name, g) for name, g in GRAPHS if is_feasible(g)]


def _depth1_trie(g):
    return build_trie(sort_views(set(views_of_graph(g, 1))), LabelingContext())


def test_the_sweep_is_substantial():
    assert len(GRAPHS) == len(ATLAS) + 80
    assert len(FEASIBLE) >= 100


# ----------------------------------------------------------------------
# leaf counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", GRAPHS, ids=lambda p: p[0])
def test_stored_leaf_counts_equal_the_spec(name_g):
    _, g = name_g
    _assert_counts_match_spec(_depth1_trie(g))
    if not is_feasible(g):
        return
    bundle = compute_advice(g)
    _, e1, e2, _ = decode_advice(bundle.bits)
    built = [bundle.e1] + [t for _, layer in bundle.e2 for _, t in layer]
    decoded = [e1] + [t for _, layer in e2 for _, t in layer]
    recoded = [t for _, layer in decode_e2(encode_e2(bundle.e2)) for _, t in layer]
    for trie in built + decoded + recoded:
        _assert_counts_match_spec(trie)
    for trie in built:
        _assert_counts_match_spec(decode_trie(encode_trie(trie)))


@settings(max_examples=150, deadline=None)
@given(TRIES)
def test_stored_leaf_counts_equal_the_spec_on_random_tries(trie):
    _assert_counts_match_spec(trie)
    _assert_counts_match_spec(decode_trie(encode_trie(trie)))


def test_layer_offsets_sum_the_stored_counts():
    """``add_layer``'s cumulative sums read the stored counts."""
    g = lollipop(4, 40)
    bundle = compute_advice(g)
    ctx = labeling_context_from_advice(bundle.e1, bundle.e2)
    assert ctx._layer_offsets
    for depth, (keys, extra) in ctx._layer_offsets.items():
        layer = ctx.e2_layers[depth]
        assert extra == [0] + [
            sum(spec_num_leaves(layer[k]) - 1 for k in keys[: j + 1])
            for j in range(len(keys))
        ]


# ----------------------------------------------------------------------
# walks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", FEASIBLE, ids=lambda p: p[0])
def test_walk_equals_the_spec_on_every_view_and_trie(name_g):
    """Every distinct view of every depth walks every trie of its depth:
    its own trie and other labels' tries, with its children's labels and
    with only the first of them, so that child queries past the labels
    raise ``AdviceError``."""
    _, g = name_g
    bundle = compute_advice(g)
    _, e1, e2, _ = decode_advice(bundle.bits)
    ctx = labeling_context_from_advice(e1, e2)
    levels = [
        list(dict.fromkeys(level))
        for level in view_levels(g, max_depth=bundle.phi)
    ]
    outcomes = set()
    for v in levels[1]:
        expected = _outcome(spec_local_label, v, (), e1)
        assert _outcome(local_label, v, (), e1) == expected
        outcomes.add(expected)
    for depth in range(2, bundle.phi + 1):
        for v in levels[depth]:
            x = tuple(retrieve_label(c, ctx) for _, c in v.children)
            for trie in ctx.e2_layers.get(depth, {}).values():
                for labels in (x, x[:1]):
                    expected = _outcome(spec_local_label, v, labels, trie)
                    assert _outcome(local_label, v, labels, trie) == expected
                    outcomes.add(expected)
    assert CodingError not in outcomes


def test_walk_equals_the_spec_on_foreign_depth1_views():
    """Every graph's depth-1 views walk every graph's E1.  A view routed
    to a length group whose codes are longer than its own meets a
    ``(1, j)`` query past its code: both walks raise ``CodingError``."""
    union = sort_views({v for _, g in GRAPHS for v in views_of_graph(g, 1)})
    kinds = set()
    for _, g in GRAPHS:
        e1 = _depth1_trie(g)
        for v in union:
            expected = _outcome(spec_local_label, v, (), e1)
            assert _outcome(local_label, v, (), e1) == expected
            kinds.add(expected if isinstance(expected, type) else int)
    assert kinds == {int, CodingError}


def test_walk_on_a_one_leaf_trie_reads_no_code():
    """A one-leaf trie answers 1 without a query, so, as before, it never
    asks for the depth-1 code: a deep view with no labels passes."""
    deep = views_of_graph(lollipop(3, 2), 2)[0]
    assert spec_local_label(deep, (), trie_leaf()) == 1
    assert local_label(deep, (), trie_leaf()) == 1


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
def test_views_compare_and_hash_as_objects():
    assert View.__hash__ is object.__hash__
    assert View.__eq__ is object.__eq__
    a, b = views_of_graph(lollipop(3, 2), 1)[:2]
    assert hash(a) == object.__hash__(a)
    assert (a == a) and (a != b) and not (a == b)


# ----------------------------------------------------------------------
# the advice, pinned
# ----------------------------------------------------------------------
#: sha256 over ``name NUL bits LF`` of every feasible graph of
#: :func:`_golden_graphs`, in order, as the replaced code computed it.
ADVICE_SHA256 = "ab51687c60c830ce5f0579d3c775429721b3559e87281e353e3ea7ac91a76f2b"


def _golden_graphs():
    yield "lollipop-4-100", lollipop(4, 100)
    yield "lollipop-3-250", lollipop(3, 250)
    yield "lollipop-5-60", lollipop(5, 60)
    for family in ("random-trees", "caterpillars", "random-regular", "lifts"):
        yield from iter_corpus(f"{family}:60")


def test_advice_bits_equal_the_golden_digest():
    digest = hashlib.sha256()
    feasible = 0
    for name, g in _golden_graphs():
        if not is_feasible(g):
            continue
        feasible += 1
        bits = compute_advice(g).bits.as_str()
        digest.update(name.encode() + b"\0" + bits.encode() + b"\n")
    assert feasible == 183
    assert digest.hexdigest() == ADVICE_SHA256
