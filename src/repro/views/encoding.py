"""Faithful binary encoding of depth-1 augmented views (Proposition 3.3).

``B^1(v)`` for a node of degree k is represented, as in the paper, by the
list ``((0, a_0, b_0), ..., (k-1, a_{k-1}, b_{k-1}))`` where ``a_j`` is the
remote port of the edge through local port ``j`` and ``b_j`` is the degree
of that neighbor.  Its code is the nested ``Concat`` of the integer codes.

The depth-1 tries of advice item A1 ask queries *about this bitstring*
("is its length < t?", "is bit j equal to 1?"), so oracle and nodes must
produce byte-identical encodings — both call :func:`encode_b1`.
"""

from __future__ import annotations

from typing import Dict

from repro.coding.bitstring import Bits
from repro.coding.concat import nesting_levels, uint_at
from repro.views.view import View

_B1_CACHE: Dict[int, Bits] = {}


def encode_b1(view: View) -> Bits:
    """``bin(B^1(v))`` for a depth-1 view."""
    if view.depth != 1:
        raise ValueError(
            f"encode_b1 encodes depth-1 views only, got depth {view.depth}"
        )
    cached = _B1_CACHE.get(id(view))
    if cached is not None:
        return cached
    # the outer Concat at level 0, each triple one level down, written at
    # its level in one pass (see repro.coding.concat)
    levels = nesting_levels(3)
    sep = levels[0][0]
    field_sep = levels[1][0]
    table = levels[2][1]
    result = Bits._unsafe(
        sep.join(
            uint_at(j, table)
            + field_sep
            + uint_at(remote_port, table)
            + field_sep
            + uint_at(child.degree, table)
            for j, (remote_port, child) in enumerate(view.children)
        )
    )
    _B1_CACHE[id(view)] = result
    return result
