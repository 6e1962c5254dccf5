"""The nested-list code for advice item E2 (Proposition 3.4).

E2 is a list of couples ``(i, L(i))`` for ``i = 2..phi``, where each
``L(i)`` is a list of couples ``(j, T_j)`` with ``j`` an integer label and
``T_j`` a trie discriminating the depth-``i`` views of the nodes whose
depth-``(i-1)`` label is ``j``.

Following the paper's ``bin(L)`` definition::

    bin(L)    = Concat(bin(a_1), bin(L_1), ..., bin(a_k), bin(L_k))
    bin(L_i)  = Concat(bin(b_1), bin(T_1), ..., bin(b_m), bin(T_m))

with integer and trie codes from the sibling modules.  An empty list codes
to the empty string (it is always wrapped by an outer Concat, so framing is
preserved).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import Level, decode_concat, nesting_levels, uint_at
from repro.coding.integers import decode_uint
from repro.coding.tries import Trie, decode_trie_memo, write_trie
from repro.errors import CodingError

# E2 in structured form: ordered list of (depth, [(label, trie), ...]).
E2Type = List[Tuple[int, List[Tuple[int, Trie]]]]


def encode_e2(e2: E2Type) -> Bits:
    """``bin(E2)`` for the nested list E2."""
    out: List[str] = []
    write_e2(e2, 0, nesting_levels(5), out)
    return Bits._unsafe("".join(out))


def write_e2(
    e2: E2Type, level: int, levels: List[Level], out: List[str]
) -> None:
    """Append ``bin(E2)`` written at ``Concat`` nesting ``level`` to
    ``out``; ``levels`` must reach ``level + 4`` (the records of the
    tries)."""
    sep = levels[level][0]
    inner_sep, depth_table = levels[level + 1]
    label_table = levels[level + 2][1]
    for k, (depth, inner) in enumerate(e2):
        if k:
            out.append(sep)
        out.append(uint_at(depth, depth_table))
        out.append(sep)
        # bin(L_i), one level deeper
        for m, (label, trie) in enumerate(inner):
            if m:
                out.append(inner_sep)
            out.append(uint_at(label, label_table))
            out.append(inner_sep)
            write_trie(trie, level + 2, levels, out)


def _decode_inner(
    bits: Bits, parsed: Dict[str, Tuple[int, ...]]
) -> List[Tuple[int, Trie]]:
    parts = decode_concat(bits)
    if len(parts) % 2 != 0:
        raise CodingError("inner E2 list must alternate label/trie codes")
    result: List[Tuple[int, Trie]] = []
    for k in range(0, len(parts), 2):
        label = decode_uint(parts[k])
        trie = decode_trie_memo(parts[k + 1], parsed)
        result.append((label, trie))
    return result


def decode_e2(bits: Bits) -> E2Type:
    """Inverse of :func:`encode_e2`.  The tries share one record memo, so
    each distinct trie record is parsed once per call."""
    parts = decode_concat(bits)
    if len(parts) % 2 != 0:
        raise CodingError("E2 code must alternate depth/inner-list codes")
    parsed: Dict[str, Tuple[int, ...]] = {}
    result: E2Type = []
    for k in range(0, len(parts), 2):
        depth = decode_uint(parts[k])
        inner = _decode_inner(parts[k + 1], parsed)
        result.append((depth, inner))
    return result


def e2_as_maps(e2: E2Type) -> Dict[int, Dict[int, Trie]]:
    """Convenience: E2 as {depth: {label: trie}} for O(1) lookups by
    ``RetrieveLabel``.  Duplicate depths or labels are a corruption."""
    out: Dict[int, Dict[int, Trie]] = {}
    for depth, inner in e2:
        if depth in out:
            raise CodingError(f"duplicate depth {depth} in E2")
        layer: Dict[int, Trie] = {}
        for label, trie in inner:
            if label in layer:
                raise CodingError(f"duplicate label {label} at depth {depth} in E2")
            layer[label] = trie
        out[depth] = layer
    return out
