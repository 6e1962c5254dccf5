"""BuildTrie (Algorithm 4).

Given a set S of distinct augmented truncated views at a common depth l,
produce a trie whose queries route each view of S to a distinct leaf.

* Depth 1 (the paper's ``E1 = emptyset`` case): queries inspect the binary
  encoding ``bin(B^1)`` — first split by length, then by the first
  differing bit position.  That is a left chain of length queries over
  compact binary tries of the sorted codes, built in one pass.
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

from typing import Dict, List, Optional, Sequence, Tuple

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
    """The depth-1 trie, built in one pass over the sorted codes.

    The paper's splits depend only on the set of codes ``bin(B^1)``: first
    by length (query ``(0, longest)``, the longest codes to the right),
    then by the first differing bit (query ``(1, j)``, 0 to the left).  So
    the trie is a left chain of ``(0, L)`` nodes over the distinct lengths
    in ascending order, and the right child of each is the compact binary
    trie of the codes of length L (:func:`_bit_trie`)."""
    by_length: Dict[int, List[int]] = {}
    for v in views:
        code = encode_b1(v).as_str()
        # only a degree-0 view (the one-node graph) has the empty code
        by_length.setdefault(len(code), []).append(int(code, 2) if code else 0)
    trie: Optional[Trie] = None
    for length in sorted(by_length):
        group = _bit_trie(sorted(by_length[length]), length)
        trie = group if trie is None else trie_node((0, length), trie, group)
    return trie


def _bit_trie(codes: List[int], length: int) -> Trie:
    """The compact binary trie of sorted codes of one ``length`` (as ints).

    A range of sorted codes splits at its first differing bit, after the
    prefix m that all its codes share: query ``(1, m + 1)``, the codes with
    a 0 there (a prefix of the range) to the left.  Adjacent codes ``a``,
    ``b`` share ``length - (a ^ b).bit_length()`` leading bits, and a
    range's split is its unique adjacent pair sharing the fewest.  So one
    left-to-right pass builds the trie: ``pending`` holds the splits whose
    left side is finished, and a pair sharing fewer bits closes every
    pending split that shares more."""
    pending: List[Tuple[int, Trie]] = []
    trie = trie_leaf()
    for prev, code in zip(codes, codes[1:]):
        shared = length - (prev ^ code).bit_length()
        if shared == length:
            raise AdviceError(
                "distinct depth-1 views share one encoding: codec is broken"
            )
        while pending and pending[-1][0] > shared:
            prefix, left = pending.pop()
            trie = trie_node((1, prefix + 1), left, trie)
        pending.append((shared, trie))
        trie = trie_leaf()
    while pending:
        prefix, left = pending.pop()
        trie = trie_node((1, prefix + 1), left, trie)
    return trie


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
