"""Wire format for views: succinct binary serialization of view DAGs.

The LOCAL model allows arbitrary messages, and our COM implementation
ships interned ``View`` objects — which is faithful information-wise but
leans on shared process memory.  This module closes the loop: views can
be serialized to actual bitstrings and decoded back *into the intern
table*, so a fully byte-honest execution (``repro.sim.strict``) produces
the same objects and therefore bit-identical behaviour.

Encoding: the DAG's distinct subviews in a canonical bottom-up order
(children before parents); each record is either a depth-0 view
``(deg,)`` or ``(deg, (q_i, ref_i)_i)`` with back-references into the
record list.  Size is Theta(sum over records of (1 + deg) * log) — the
succinct-view cost that :mod:`repro.sim.trace` charges.

The codec is memoized (the strict-wire fast path): views are globally
interned and immutable and the encoder is deterministic, so
``encode_view_wire`` caches on view identity and ``decode_view_wire`` on
the exact wire string — a hit returns the byte-identical objects the
uncached path produces, which is what keeps strict-mode records (and
``WireWrapped.bits_sent``) unchanged.

Records are written at the message's level: a strict message
``Concat(bin(0), bin(port), wire)`` doubles every digit of the wire, so
each record is written once in that form, and a view's records joined
make its *doubled wire* (:func:`doubled_view_wire`, which
:mod:`repro.sim.strict` splices into messages).  The plain wire is its
``[::2]`` stride slice; no record is re-doubled.

First encodings are built *level-incrementally*: in COM traffic a
depth-l+1 view's children are exactly the depth-l views that crossed
the wire one round earlier, and their cached records splice into the
parent's record list instead of re-walking the full DAG per message.
The unmemoized single-walk encoder survives as
:func:`_encode_view_wire_uncached`, the executable specification the
fast path is differentially tested against.  All four caches are
dropped by :func:`repro.views.clear_view_caches`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import (
    concat_bits,
    decode_concat,
    nesting_levels,
    uint_at,
)
from repro.coding.integers import decode_uint, encode_uint
from repro.errors import CodingError
from repro.views.view import View

# ----------------------------------------------------------------------
# codec caches (all dropped together with the intern table: an id cannot
# be recycled while the intern table strongly holds its view, and the
# decode cache's values are interned views, stale after any clear)
# ----------------------------------------------------------------------
#: id(view) -> its full wire encoding.
_ENCODE_CACHE: Dict[int, Bits] = {}
#: id(view) -> its doubled wire, the form a strict message carries.
_DOUBLED_CACHE: Dict[int, str] = {}
#: wire '0'/'1' string -> the decoded (interned) view.
_DECODE_CACHE: Dict[str, View] = {}
#: id(view) -> (DAG order, records at the message's level): the
#: sub-encoding the level-incremental builder reuses when the view recurs
#: as a child.
_SUBENC_CACHE: Dict[int, Tuple[Tuple[View, ...], Tuple[str, ...]]] = {}

# inside a message the wire is a level-1 Concat: records are joined by the
# level-1 separator, a record's fields by the level-2 separator, and each
# field is written through the level-3 digit table
_LEVELS = nesting_levels(4)
_RECORD_SEP = _LEVELS[1][0]
_FIELD_SEP = _LEVELS[2][0]
_FIELD_TABLE = _LEVELS[3][1]


def _clear_wire_caches() -> None:
    """Drop the codec caches (called by ``clear_view_caches``)."""
    _ENCODE_CACHE.clear()
    _DOUBLED_CACHE.clear()
    _DECODE_CACHE.clear()
    _SUBENC_CACHE.clear()


def _record(v: View, index: Dict[View, int]) -> str:
    """The record of ``v`` at the message's level, child references
    resolved through ``index``: the seed path's record bytes with every
    digit quadrupled."""
    fields = [uint_at(v.degree, _FIELD_TABLE)]
    for q, child in v.children:
        fields.append(uint_at(q, _FIELD_TABLE))
        fields.append(uint_at(index[child], _FIELD_TABLE))
    return _FIELD_SEP.join(fields)


def encode_view_wire(view: View) -> Bits:
    """Serialize a view's DAG; inverse of :func:`decode_view_wire`.

    Memoized and level-incremental — see the module docstring.  The
    result is byte-identical to :func:`_encode_view_wire_uncached`.
    """
    wire = _ENCODE_CACHE.get(id(view))
    if wire is None:
        _encode(view)
        wire = _ENCODE_CACHE[id(view)]
    return wire


def doubled_view_wire(view: View) -> str:
    """:func:`encode_view_wire` with every digit doubled: the view field
    of a strict message, written once per view."""
    dwire = _DOUBLED_CACHE.get(id(view))
    return dwire if dwire is not None else _encode(view)


def _encode(view: View) -> str:
    """Build ``view``'s records, fill every codec cache and return the
    doubled wire."""
    order: List[View] = []
    records: List[str] = []
    index: Dict[View, int] = {}

    def emit(v: View) -> None:
        # v's children are all indexed (postorder), so its record bytes
        # are final; v itself takes the next free reference
        records.append(_record(v, index))
        index[v] = len(order)
        order.append(v)

    def absorb(u: View) -> None:
        """Append the not-yet-indexed part of ``u``'s DAG in the order
        the seed path's memoized postorder DFS would visit it."""
        if u in index:
            return
        stack = [u]
        while stack:
            v = stack[-1]
            if v in index:
                stack.pop()
                continue
            sub = _SUBENC_CACHE.get(id(v))
            if sub is not None:
                sorder, srecords = sub
                if not index:
                    # fresh build: the cached index space coincides with
                    # ours, so the record bytes splice in verbatim
                    for i, w in enumerate(sorder):
                        index[w] = i
                    order.extend(sorder)
                    records.extend(srecords)
                else:
                    # the cached order restricted to unseen views is the
                    # DFS completion order of exactly those views (a
                    # pruned subview has all descendants indexed before
                    # it), so only the references need remapping
                    for w in sorder:
                        if w not in index:
                            emit(w)
                stack.pop()
                continue
            pending = [c for _, c in v.children if c not in index]
            if pending:
                pending.reverse()  # leftmost child completes first
                stack.extend(pending)
                continue
            emit(v)
            stack.pop()

    for _, child in view.children:
        absorb(child)
    emit(view)

    dwire = _RECORD_SEP.join(records)
    wire = Bits._unsafe(dwire[::2])
    _SUBENC_CACHE[id(view)] = (tuple(order), tuple(records))
    _DOUBLED_CACHE[id(view)] = dwire
    _ENCODE_CACHE[id(view)] = wire
    # the canonical encoding decodes to this very object (decoding
    # re-interns), so the receiving side's first lookup is already a hit
    _DECODE_CACHE[wire.as_str()] = view
    return dwire


def _encode_view_wire_uncached(view: View) -> Bits:
    """The seed encoder: one full bottom-up DAG walk per call, no caches.

    Kept as the executable specification the memoized fast path is
    differentially tested against, and as the in-run reference the
    strict bench's ``speedup_vs_seed`` is measured on.  The walk is an
    explicit stack: view depth approaches the interpreter recursion
    limit on path/ring families where stabilization depth is Theta(n).
    """
    order: List[View] = []
    index: Dict[View, int] = {}
    stack = [view]
    while stack:
        v = stack[-1]
        if v in index:
            stack.pop()
            continue
        pending = [c for _, c in v.children if c not in index]
        if pending:
            pending.reverse()
            stack.extend(pending)
            continue
        index[v] = len(order)
        order.append(v)
        stack.pop()
    records: List[Bits] = []
    for v in order:
        fields = [encode_uint(v.degree)]
        for q, child in v.children:
            fields.append(encode_uint(q))
            fields.append(encode_uint(index[child]))
        records.append(concat_bits(fields))
    return concat_bits(records)


def decode_view_wire(bits: Bits) -> View:
    """Decode a wire-format view back into the (global) intern table:
    decoding a view equal to a locally computed one yields the *same*
    object.

    Memoized on the exact wire string, so each distinct bitstring is
    parsed once per cache lifetime no matter how many nodes receive it.
    """
    s = bits.as_str()
    view = _DECODE_CACHE.get(s)
    if view is not None:
        return view
    view = _decode_view_wire_uncached(bits)
    _DECODE_CACHE[s] = view
    return view


def _decode_view_wire_uncached(bits: Bits) -> View:
    """The seed decoder: parse every record (fast-path twin of
    :func:`decode_view_wire`; same errors, same interned result)."""
    records = decode_concat(bits)
    if not records:
        raise CodingError("empty view wire format")
    decoded: List[View] = []
    for record in records:
        fields = decode_concat(record)
        if not fields:
            raise CodingError("empty view record")
        degree = decode_uint(fields[0])
        rest = fields[1:]
        if len(rest) % 2 != 0:
            raise CodingError("view record must alternate port/ref fields")
        if rest and len(rest) // 2 != degree:
            raise CodingError(
                f"view record of degree {degree} carries {len(rest) // 2} children"
            )
        children = []
        for i in range(0, len(rest), 2):
            q = decode_uint(rest[i])
            ref = decode_uint(rest[i + 1])
            if ref >= len(decoded):
                raise CodingError(
                    f"forward reference {ref} in view record {len(decoded)}"
                )
            children.append((q, decoded[ref]))
        decoded.append(View.make(degree, tuple(children)))
    return decoded[-1]
