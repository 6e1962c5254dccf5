"""BuildTrie (Algorithm 4).

Given a set S of distinct augmented truncated views at a common depth l,
produce a trie whose queries route each view of S to a distinct leaf.

* Depth 1 (the paper's ``E1 = emptyset`` case): queries inspect the binary
  encoding ``bin(B^1)`` — first split by length, then by the first
  differing bit position.
* Depth >= 2: all views of S share the same depth-(l-1) truncation (this
  is the invariant under which ComputeAdvice calls BuildTrie, preserved by
  both recursive branches), so any two views differ in some child's
  depth-(l-1) view.  The *discriminatory index* i and *discriminatory
  subview* Bdisc come from the two canonically-smallest views of S; the
  query is ``(i, RetrieveLabel(Bdisc))`` — crucially O(log n) bits, which
  is what keeps the whole advice at O(n log n) (the naive depth-phi
  queries would cost a factor phi more; see Section 3's discussion).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.coding.tries import Trie, trie_leaf, trie_node
from repro.core.labels import LabelingContext, retrieve_label
from repro.errors import AdviceError
from repro.views.encoding import encode_b1
from repro.views.order import view_compare, view_sort_key
from repro.views.view import View


def build_trie(views: Sequence[View], ctx: LabelingContext) -> Trie:
    """Build the discrimination trie for the distinct views in ``views``.

    The views must all have the same depth and be pairwise distinct; the
    resulting trie has exactly ``len(views)`` leaves (Claims 3.1 / 3.6).
    """
    views = list(views)
    if not views:
        raise AdviceError("build_trie requires a non-empty view set")
    depth = views[0].depth
    for v in views:
        if v.depth != depth:
            raise AdviceError("build_trie requires views of a single depth")
    if len(set(views)) != len(views):
        raise AdviceError("build_trie requires pairwise distinct views")
    if depth == 1:
        return _build_depth1(views)
    return _build_deep(views, ctx)


def _build_depth1(views: List[View]) -> Trie:
    if len(views) == 1:
        return trie_leaf()
    encodings = {v: encode_b1(v) for v in views}
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
    return trie_node(query, _build_depth1(left_set), _build_depth1(right_set))


def _build_deep(views: List[View], ctx: LabelingContext) -> Trie:
    if len(views) == 1:
        return trie_leaf()
    ordered = sorted(views, key=view_sort_key)
    u, v = ordered[0], ordered[1]
    # discriminatory index: smallest port whose child views differ between
    # the two canonically-smallest views of S
    index = None
    for i in range(u.degree):
        if u.child(i) is not v.child(i):
            index = i
            break
    if index is None:
        raise AdviceError(
            "two distinct views with identical children: interning is broken"
        )
    ca, cb = u.child(index), v.child(index)
    b_disc = ca if view_compare(ca, cb) < 0 else cb
    left_set = [b for b in views if b.child(index) is not b_disc]
    right_set = [b for b in views if b.child(index) is b_disc]
    if not left_set or not right_set:
        raise AdviceError("deep trie split produced an empty side")
    query = (index, retrieve_label(b_disc, ctx))
    return trie_node(query, _build_deep(left_set, ctx), _build_deep(right_set, ctx))
