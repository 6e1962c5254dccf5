"""Tries: the query trees at the heart of advice item A1.

A trie is a rooted binary tree.  Internal nodes carry a *query*, coded as a
pair of non-negative integers ``(a, b)``; leaves carry the label ``(0)``
(paper convention) and correspond to discriminated objects.  The left child
is the "no" branch, the right child the "yes" branch.

Query semantics (interpreted by ``LocalLabel``, Algorithm 2):

* depth-1 mode (list ``X`` empty):
  ``(0, t)`` — "is ``len(bin(B))``  < t?";
  ``(1, j)`` — "is the j-th bit of ``bin(B)`` equal to 1?";
* deeper mode (``X`` nonempty):
  ``(i, y)`` — "is the (i+1)-th term of ``X`` equal to ``y``?"
  (LocalLabel goes *left* when the term differs from ``y``).

The binary code mirrors the labeled-tree code: a structure walk plus the
queries in preorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import Level, decode_concat, nesting_levels, uint_at
from repro.coding.integers import decode_uint
from repro.errors import CodingError


@dataclass(frozen=True)
class Trie:
    """A trie node.  ``query is None`` iff this is a leaf.  ``leaves``, the
    node's leaf count, is set once when the node is built (a trie never
    changes) and takes no part in ``==`` or ``hash``."""

    query: Optional[Tuple[int, int]]
    left: Optional["Trie"] = None
    right: Optional["Trie"] = None
    leaves: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.query is None:
            if self.left is not None or self.right is not None:
                raise CodingError("a trie leaf cannot have children")
            leaves = 1
        else:
            if self.left is None or self.right is None:
                raise CodingError("a trie internal node must have two children")
            a, b = self.query
            if a < 0 or b < 0:
                raise CodingError(f"trie query must be non-negative, got {self.query}")
            leaves = self.left.leaves + self.right.leaves
        object.__setattr__(self, "leaves", leaves)

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.query is None

    def num_leaves(self) -> int:
        """Number of leaves (objects discriminated by this trie)."""
        return self.leaves

    def size(self) -> int:
        """Total number of nodes; always ``2 * num_leaves() - 1``."""
        if self.is_leaf:
            return 1
        return 1 + self.left.size() + self.right.size()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def queries(self) -> List[Tuple[int, int]]:
        """All internal-node queries, preorder."""
        if self.is_leaf:
            return []
        return [self.query] + self.left.queries() + self.right.queries()


def trie_leaf() -> Trie:
    """A single-leaf trie (the paper's "single node labeled (0)")."""
    return Trie(None)


def trie_node(query: Tuple[int, int], left: Trie, right: Trie) -> Trie:
    """An internal trie node with a query and two subtries."""
    return Trie(query, left, right)


# ----------------------------------------------------------------------
# codec: preorder with explicit leaf/internal markers
# ----------------------------------------------------------------------
def encode_trie(trie: Trie) -> Bits:
    """Binary code of a trie: ``Concat`` of preorder node records, each
    ``Concat(bin(0))`` for a leaf or ``Concat(bin(1), bin(a), bin(b))`` for
    an internal node with query ``(a, b)``."""
    out: List[str] = []
    write_trie(trie, 0, nesting_levels(3), out)
    return Bits._unsafe("".join(out))


def write_trie(
    trie: Trie, level: int, levels: List[Level], out: List[str]
) -> None:
    """Append ``bin(trie)`` written at ``Concat`` nesting ``level`` to
    ``out``; ``levels`` must reach ``level + 2`` (see
    :func:`~repro.coding.concat.nesting_levels`)."""
    sep = levels[level][0]
    field_sep = levels[level + 1][0]
    table = levels[level + 2][1]
    leaf = "0".translate(table)
    internal = "1".translate(table) + field_sep
    records: List[str] = []
    stack = [trie]
    while stack:
        node = stack.pop()
        if node.query is None:
            records.append(leaf)
        else:
            a, b = node.query
            records.append(
                internal + uint_at(a, table) + field_sep + uint_at(b, table)
            )
            stack.append(node.right)
            stack.append(node.left)
    out.append(sep.join(records))


def decode_trie(bits: Bits) -> Trie:
    """Inverse of :func:`encode_trie`."""
    return decode_trie_memo(bits, {})


def decode_trie_memo(bits: Bits, parsed: Dict[str, Tuple[int, ...]]) -> Trie:
    """:func:`decode_trie` with a caller-owned memo ``record string ->
    query`` (``()`` for a leaf): each distinct record is parsed once per
    memo, so the tries of one E2 code share the parse of their records.
    Only a record that parsed cleanly enters the memo."""
    records = decode_concat(bits)
    if not records:
        raise CodingError("empty trie code")
    pos = 0

    def parse() -> Trie:
        nonlocal pos
        if pos >= len(records):
            raise CodingError("trie code ended prematurely")
        record = records[pos]
        pos += 1
        key = record.as_str()
        query = parsed.get(key)
        if query is None:
            query = parsed[key] = _parse_record(record)
        if not query:
            return trie_leaf()
        left = parse()
        right = parse()
        return trie_node(query, left, right)

    result = parse()
    if pos != len(records):
        raise CodingError(f"{len(records) - pos} trailing records in trie code")
    return result


def _parse_record(record: Bits) -> Tuple[int, ...]:
    """One node record: ``()`` for a leaf, the ``(a, b)`` query of an
    internal node."""
    fields = decode_concat(record)
    if not fields:
        raise CodingError("empty trie node record")
    kind = decode_uint(fields[0])
    if kind == 0:
        if len(fields) != 1:
            raise CodingError("leaf record must have no payload")
        return ()
    if kind == 1:
        if len(fields) != 3:
            raise CodingError("internal record must carry a (a, b) query")
        return (decode_uint(fields[1]), decode_uint(fields[2]))
    raise CodingError(f"unknown trie record kind {kind}")
