"""Labeled rooted trees with port numbers, and their binary code.

This is the carrier of advice item A2: the canonical BFS tree of the graph,
whose nodes are labeled by the ``RetrieveLabel`` integers and whose edges
carry the *graph's* port numbers at both endpoints.

Code layout (a decodable variant of the paper's (S1, S2) DFS-walk code,
same O(n log n) length class — see DESIGN.md "Substitutions"):

    bin(T) = Concat(walk, labels)
    walk   = Concat(step_1, ..., step_{2(n-1)})
    step   = Concat(bin(0), bin(p), bin(q))   for a descent through ports
             (p at parent, q at child), or
             Concat(bin(1))                    for an ascent
    labels = Concat(bin(l_1), ..., bin(l_n))   in DFS preorder

where the DFS visits children in increasing order of the parent-side port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import Level, decode_concat, nesting_levels, uint_at
from repro.coding.integers import decode_uint
from repro.errors import CodingError


@dataclass
class LabeledRootedTree:
    """A rooted tree node: an integer label plus children reached through
    port pairs ``(port_at_parent, port_at_child)``."""

    label: int
    children: List[Tuple[int, int, "LabeledRootedTree"]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_child(
        self, port_parent: int, port_child: int, child: "LabeledRootedTree"
    ) -> None:
        self.children.append((port_parent, port_child, child))

    def size(self) -> int:
        """Number of nodes in the subtree."""
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(child for _, _, child in node.children)
        return count

    def iter_nodes(self) -> Iterator["LabeledRootedTree"]:
        """DFS preorder over subtree nodes (children in port order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _, _, child in reversed(_port_order(node)))

    def labels(self) -> List[int]:
        """All labels in DFS preorder."""
        return [node.label for node in self.iter_nodes()]

    # ------------------------------------------------------------------
    def find_label(self, label: int) -> Optional["LabeledRootedTree"]:
        """The unique node carrying ``label``, or None."""
        for node in self.iter_nodes():
            if node.label == label:
                return node
        return None

    def path_to_root_ports(self, label: int) -> List[Tuple[int, int]]:
        """Port pairs of the path *from the node labeled ``label`` up to the
        root*, in the paper's output format ``[(p1, q1), ...]``: the i-th
        edge is traversed from the current node through its local port
        ``p_i``, arriving through port ``q_i`` at the other end.

        O(n) per call; build a :class:`RootPathIndex` once to answer many.
        Raises :class:`CodingError` if the label is absent.
        """
        return RootPathIndex(self).path_to_root_ports(label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledRootedTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine.label != theirs.label:
                return False
            if len(mine.children) != len(theirs.children):
                return False
            for (p, q, a), (p2, q2, b) in zip(_port_order(mine), _port_order(theirs)):
                if p != p2 or q != q2:
                    return False
                if a is not b:
                    stack.append((a, b))
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable


def _port_order(
    node: LabeledRootedTree,
) -> List[Tuple[int, int, LabeledRootedTree]]:
    """A node's children sorted by the parent-side port (stable)."""
    return sorted(node.children, key=lambda t: t[0])


class RootPathIndex:
    """Every node's path to the root, indexed in one pass over the tree.

    ``label -> position`` keeps the first node carrying each label in DFS
    preorder (children in insertion order), the node the label search of
    :meth:`LabeledRootedTree.path_to_root_ports` finds; ``position ->
    (parent position, port at the node, port at the parent)`` then walks
    up.  A path costs O(depth) instead of a DFS of the whole tree, which
    is what lets all n nodes of a run look up their output paths from one
    shared index.  Read-only after construction.
    """

    __slots__ = ("_position", "_up")

    def __init__(self, tree: LabeledRootedTree):
        position: Dict[int, int] = {}
        up: List[Tuple[int, int, int]] = []
        stack = [(tree, -1, 0, 0)]
        while stack:
            node, parent, port_here, port_parent = stack.pop()
            here = len(up)
            up.append((parent, port_here, port_parent))
            position.setdefault(node.label, here)
            for port_at_parent, port_at_child, child in reversed(node.children):
                stack.append((child, here, port_at_child, port_at_parent))
        self._position = position
        self._up = up

    def path_to_root_ports(self, label: int) -> List[Tuple[int, int]]:
        """See :meth:`LabeledRootedTree.path_to_root_ports`."""
        here = self._position.get(label)
        if here is None:
            raise CodingError(f"label {label} not present in tree")
        up = self._up
        path: List[Tuple[int, int]] = []
        parent, port_here, port_parent = up[here]
        while parent >= 0:
            # the upward step uses the child's port first, then the parent's
            path.append((port_here, port_parent))
            parent, port_here, port_parent = up[parent]
        return path


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def encode_tree(tree: LabeledRootedTree) -> Bits:
    """Binary code of a labeled rooted tree (see module docstring)."""
    out: List[str] = []
    write_tree(tree, 0, nesting_levels(4), out)
    return Bits._unsafe("".join(out))


def write_tree(
    tree: LabeledRootedTree, level: int, levels: List[Level], out: List[str]
) -> None:
    """Append ``bin(T)`` written at ``Concat`` nesting ``level`` to
    ``out``; ``levels`` must reach ``level + 3`` (the ports of a step)."""
    sep = levels[level][0]
    list_sep = levels[level + 1][0]
    step_sep, label_table = levels[level + 2]
    port_table = levels[level + 3][1]
    descent = "0".translate(port_table) + step_sep
    ascent = "1".translate(port_table)
    steps: List[str] = []
    labels = [uint_at(tree.label, label_table)]
    # one iterator over the port-ordered children per open node
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
            descent
            + uint_at(port_parent, port_table)
            + step_sep
            + uint_at(port_child, port_table)
        )
        labels.append(uint_at(child.label, label_table))
        stack.append(iter(_port_order(child)))
    out.append(list_sep.join(steps))
    out.append(sep)
    out.append(list_sep.join(labels))


def decode_tree(bits: Bits) -> LabeledRootedTree:
    """Inverse of :func:`encode_tree`."""
    try:
        walk_bits, labels_bits = decode_concat(bits)
    except ValueError:
        raise CodingError("tree code must have exactly two parts (walk, labels)")
    steps = decode_concat(walk_bits) if len(walk_bits) else []
    label_codes = decode_concat(labels_bits)
    if not label_codes:
        raise CodingError("tree code has no labels")
    labels = [decode_uint(lc) for lc in label_codes]

    label_iter = iter(labels)
    root = LabeledRootedTree(next(label_iter))
    stack = [root]
    # each distinct step string is parsed once per call (ports are small,
    # so steps repeat); only a cleanly parsed step enters the memo
    parsed: Dict[str, Tuple[int, ...]] = {}
    for step in steps:
        key = step.as_str()
        ports = parsed.get(key)
        if ports is None:
            ports = parsed[key] = _parse_step(step)
        if ports:
            try:
                child = LabeledRootedTree(next(label_iter))
            except StopIteration:
                raise CodingError("tree code ran out of labels during walk")
            stack[-1].add_child(ports[0], ports[1], child)
            stack.append(child)
        else:
            if len(stack) <= 1:
                raise CodingError("ascent step at the root")
            stack.pop()
    if len(stack) != 1:
        raise CodingError("tree walk did not return to the root")
    remaining = sum(1 for _ in label_iter)
    if remaining:
        raise CodingError(f"{remaining} unused labels in tree code")
    return root


def _parse_step(step: Bits) -> Tuple[int, ...]:
    """One walk step: the ``(port at parent, port at child)`` of a
    descent, or ``()`` for an ascent."""
    fields = decode_concat(step)
    if not fields:
        raise CodingError("empty walk step in tree code")
    kind = decode_uint(fields[0])
    if kind == 0:
        if len(fields) != 3:
            raise CodingError("descent step must carry two port numbers")
        return (decode_uint(fields[1]), decode_uint(fields[2]))
    if kind == 1:
        return ()
    raise CodingError(f"unknown walk step kind {kind}")
