"""The paper's ``Concat``/``Decode`` codec (Section 3).

``Concat(A_1, ..., A_k)`` doubles each digit of each component and inserts
``01`` between consecutive components; e.g. ``Concat((01), (00)) =
0011010000``.  Doubling makes the separator ``01`` (which never occurs at an
even offset inside a doubled component) unambiguous, at a 2x + O(k) cost —
the "constant factor" the paper notes.

Corner case: the empty *sequence* and the sequence holding one empty
component both encode to the empty string.  We decode the empty string as
the empty sequence; every caller in this library wraps components in an
outer ``Concat``, where empty components are delimited by separators and
therefore round-trip exactly.

Nested codes in one pass.  The outer ``Concat`` doubles every digit of a
``Concat`` nested inside it, so a ``Concat`` nested k deep (level k)
writes its separators as ``01`` with each digit repeated ``2**k`` times,
and its components at level k + 1.  The advice codes
(:mod:`repro.coding.tries`, :mod:`repro.coding.nested`,
:mod:`repro.coding.trees`) and the strict wire's view records
(:mod:`repro.views.wire`) write every integer code once, directly at its
level, through the tables of :func:`nesting_levels`, and join the parts
once: the same bits as nested :func:`concat_bits` calls, without
re-doubling any intermediate string.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.coding.bitstring import Bits
from repro.errors import CodingError

_SEPARATOR = "01"

#: ``(separator, digit table)`` of one ``Concat`` nesting level
Level = Tuple[str, Dict[int, str]]


def nesting_levels(count: int) -> List[Level]:
    """``(separator, digit table)`` for nesting levels ``0 .. count-1``.

    Level k repeats each digit ``2**k`` times.  A ``Concat`` at level k
    writes its separators with ``levels[k][0]`` and its components at
    level k + 1; an integer code at level k is ``uint_at(x,
    levels[k][1])``.  The advice codes build them per encode call; the
    view wire codec and the strict message plane once, at import."""
    levels: List[Level] = []
    for k in range(count):
        zeros, ones = "0" * (1 << k), "1" * (1 << k)
        levels.append((zeros + ones, str.maketrans({"0": zeros, "1": ones})))
    return levels


def uint_at(x: int, table: Dict[int, str]) -> str:
    """``bin(x)`` written through a digit table of :func:`nesting_levels`.

    Rejects a negative integer as ``encode_uint`` does: ``format(-1, "b")``
    is ``"-1"``, which no table would catch."""
    if x < 0:
        raise CodingError(
            f"encode_uint requires a non-negative integer, got {x}"
        )
    return format(x, "b").translate(table)


def concat_bits(components: Sequence[Bits]) -> Bits:
    """Encode a sequence of bitstrings into one bitstring."""
    doubled = []
    for comp in components:
        if not isinstance(comp, Bits):
            raise CodingError(
                f"concat_bits components must be Bits, got {type(comp).__name__}"
            )
        # two C-speed passes double every digit (replace never overlaps:
        # the first pass only creates '0's from '0's, the second only
        # touches '1's)
        doubled.append(comp.as_str().replace("0", "00").replace("1", "11"))
    return Bits._unsafe(_SEPARATOR.join(doubled))


def decode_concat(encoded: Bits) -> List[Bits]:
    """Decode the output of :func:`concat_bits`.

    Raises :class:`CodingError` on any malformed input (odd trailing bit,
    ``10`` pair, etc.), so corrupted advice is detected rather than
    silently misread.
    """
    s = encoded.as_str()
    if s == "":
        return []
    if len(s) % 2:
        raise CodingError(
            f"dangling bit at offset {len(s) - 1}: doubled encoding must have "
            "even pair structure"
        )
    # Pair i is (evens[i], odds[i]).  Equal halves mean every pair is a
    # doubled digit; mismatch pairs are separators ('01') or corruption
    # ('10').  The XOR of the halves as base-2 integers locates every
    # mismatch at C speed, so decoding costs O(n) plus one Python step
    # per *component*, not per pair.
    evens, odds = s[0::2], s[1::2]
    x = int(evens, 2) ^ int(odds, 2)
    if x == 0:
        return [Bits._unsafe(evens)]
    npairs = len(evens)
    cuts: List[int] = []
    while x:
        low = x & -x
        cuts.append(npairs - low.bit_length())
        x ^= low
    cuts.reverse()  # ascending pair index
    for p in cuts:
        if evens[p] == "1":
            raise CodingError(
                f"invalid pair '10' at offset {2 * p} in doubled encoding"
            )
    components: List[str] = []
    start = 0
    for p in cuts:
        components.append(evens[start:p])
        start = p + 1
    components.append(evens[start:])
    return [Bits._unsafe(c) for c in components]
