"""LocalLabel (Algorithm 2) and RetrieveLabel (Algorithm 3).

These two procedures are shared verbatim between the oracle (which uses
them while *constructing* the advice) and every node (which uses them,
after decoding the advice, to turn its augmented truncated view B^phi(u)
into a unique label in {1..n}).  The symmetry is the crux of Theorem 3.1:
both sides must compute identical labels from identical inputs, which here
is guaranteed by literally executing the same code on the same interned
view objects and decoded tries.

:class:`LabelingContext` bundles E1 (the depth-1 trie), the E2 layers
({depth: {label: trie}}), and the memo caches.  Labels are memoised per
view: the label of a depth-d view depends only on the E2 layers for depths
<= d, which are final by the time they are queried (ComputeAdvice appends
layers in increasing depth), so the cache remains valid while the oracle
is still extending E2.  The label cache is a pure function of the view and
the advice, which is what lets every node of a run share one context (see
``NodeContext.decoded``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.tries import Trie
from repro.errors import AdviceError, CodingError
from repro.views.encoding import encode_b1
from repro.views.view import View, truncate_view


@dataclass
class LabelingContext:
    """E1 + E2 plus memoisation, shared by oracle and node code paths."""

    e1: Optional[Trie] = None
    e2_layers: Dict[int, Dict[int, Trie]] = field(default_factory=dict)
    _label_cache: Dict[View, int] = field(default_factory=dict)
    #: depth -> (sorted trie keys >= 1, extra leaves before each key):
    #: ``extra[j]`` sums ``leaves - 1`` over the first ``j`` keys
    _layer_offsets: Dict[int, Tuple[List[int], List[int]]] = field(
        default_factory=dict
    )

    def add_layer(self, depth: int, layer: Dict[int, Trie]) -> None:
        """Install the E2 layer for ``depth`` (oracle side, append-only)."""
        if depth in self.e2_layers:
            raise AdviceError(f"E2 layer for depth {depth} installed twice")
        self.e2_layers[depth] = layer
        keys = sorted(k for k in layer if k >= 1)
        extra = [0]
        for k in keys:
            extra.append(extra[-1] + layer[k].leaves - 1)
        self._layer_offsets[depth] = (keys, extra)


def local_label(b: View, x: Sequence[int], trie: Trie) -> int:
    """Algorithm 2.

    ``b`` is an augmented truncated view; ``x`` the (possibly empty) list of
    labels previously assigned to the children of the view's root; ``trie``
    discriminates the candidate set.  Returns the 1-based index of the leaf
    the queries route ``b`` to.  Going right skips the left subtrie's
    leaves, which each trie node carries (``Trie.leaves``).  A depth-1
    query that is neither a length ``(0, L)`` nor a bit ``(1, j)`` query
    raises :class:`AdviceError`.
    """
    if trie.query is None:
        return 1
    node = trie
    offset = 0
    if not x:
        # depth-1 mode: every query reads the one code bin(B^1(b))
        code = encode_b1(b).as_str()
        length = len(code)
        while node.query is not None:
            qx, qy = node.query
            if qx == 0:
                if length < qy:
                    node = node.left
                    continue
            elif qx == 1:
                if not 1 <= qy <= length:
                    raise CodingError(
                        f"bit index {qy} out of range for bitstring of "
                        f"length {length}"
                    )
                if code[qy - 1] != "1":
                    node = node.left
                    continue
            else:
                raise AdviceError(
                    f"depth-1 trie query {node.query} is neither a length "
                    f"(0, L) nor a bit (1, j) query"
                )
            offset += node.left.leaves
            node = node.right
        return offset + 1
    degree = len(x)
    while node.query is not None:
        qx, qy = node.query
        if qx >= degree:
            raise AdviceError(
                f"trie query inspects child {qx} but the view root has "
                f"only {degree} children"
            )
        if x[qx] != qy:
            node = node.left
        else:
            offset += node.left.leaves
            node = node.right
    return offset + 1


def retrieve_label(b: View, ctx: LabelingContext) -> int:
    """Algorithm 3: the unique temporary label of view ``b``.

    Distinct views at the same depth d receive distinct labels in
    {1..|S_d|} (Claims 3.4 and 3.7), provided E1 and the E2 layers up to
    depth d discriminate the graph's views — which ComputeAdvice arranges.

    The paper's recursion (label the children, then the depth-(d-1)
    truncation, then route through that label's trie) runs on an explicit
    stack in the same order, so a view deeper than the interpreter's
    recursion limit still gets its label.
    """
    cache = ctx._label_cache
    cached = cache.get(b)
    if cached is not None:
        return cached
    if b.depth < 1:
        raise AdviceError(f"retrieve_label requires depth >= 1, got {b.depth}")

    stack = [b]
    while stack:
        v = stack[-1]
        if v in cache:
            stack.pop()
            continue
        d = v.depth
        if d == 1:
            if ctx.e1 is None:
                raise AdviceError("labeling context has no depth-1 trie E1")
            cache[v] = local_label(v, (), ctx.e1)
            stack.pop()
            continue
        pending = [child for _, child in v.children if child not in cache]
        if pending:
            stack.extend(reversed(pending))
            continue
        # the children are labeled, so their truncations are cached and
        # this truncation is one level deep
        b_prime = truncate_view(v, d - 1)
        label = cache.get(b_prime)
        if label is None:
            stack.append(b_prime)
            continue
        x = tuple(cache[child] for _, child in v.children)
        cache[v] = _route(v, x, label, ctx)
        stack.pop()
    return cache[b]


def _route(
    b: View, x: Tuple[int, ...], label: int, ctx: LabelingContext
) -> int:
    """Algorithm 3's sum for a depth-d view whose truncation has
    ``label``: every label ``i < label`` of depth d - 1 contributes its
    trie's leaf count (1 without a trie), then ``b`` is routed through the
    trie of ``label`` itself.  The leaf counts before ``label`` come from
    the cumulative sums ``add_layer`` built, so this is O(log |layer|)
    plus one trie walk, not O(label)."""
    d = b.depth
    offsets = ctx._layer_offsets.get(d)
    before = label - 1
    if offsets is not None:
        keys, extra = offsets
        before += extra[bisect_left(keys, label)]
    trie = ctx.e2_layers.get(d, {}).get(label)
    if trie is None:
        return before + 1
    return before + local_label(b, x, trie)
