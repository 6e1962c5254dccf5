"""Byte-honest execution: every message crosses the wire as a bitstring.

:class:`WireWrapped` adapts any node algorithm whose messages are COM
tuples ``(port, View)`` (all the election algorithms in this library):
outgoing messages are serialized with the view wire format, incoming
bitstrings are decoded back into interned views before delivery.  Because
decoding re-interns, the wrapped algorithm sees *the same objects* it
would have seen in the fast path — the tests demand bit-identical outputs
— while the engine genuinely only ever transports ``Bits``.

This is the strongest form of the information-boundary guarantee: no
shared-memory channel exists at all.

The round-level message plane (:class:`MessagePlane`) is the strict
path's codec and dedup layer: the sync engine's flat-array delivery
already hands one ``Bits`` object to every receiver of a payload, and the
plane closes the loop on the codec side — each distinct ``(port, View)``
outgoing message is encoded once and each distinct wire string decoded
once per run, no matter how many nodes send or receive it in a round.
A message is written at its nesting level: the ``0001`` header, the
port's doubled digits, ``01``, then the view's doubled wire, which the
codec writes once per view.  A received message is split at its header:
the port digits are scanned to their ``01``, one comparison of the view
field's two stride halves checks that it is all doubled pairs, and the
un-doubled half goes to :func:`~repro.views.wire.decode_view_wire`.  A
message failing any check gets the full parse, and so its error.
:func:`wire_wrapped` shares one plane across all nodes of a run, and a
:class:`WireWrapped` built without one makes its own; the hit counters
feed the strict bench's breakdown records.  The pre-optimization
per-message path survives as :func:`seed_wire_wrapped`, the in-run
reference for ``speedup_vs_seed`` and the byte-parity tests.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.coding.concat import (
    concat_bits,
    decode_concat,
    nesting_levels,
    uint_at,
)
from repro.coding.integers import decode_uint, encode_uint
from repro.errors import SimulationError
from repro.obs import core as obs
from repro.sim.local_model import NodeAlgorithm, NodeContext
from repro.views.view import View
from repro.views.wire import (
    _decode_view_wire_uncached,
    _encode_view_wire_uncached,
    decode_view_wire,
    doubled_view_wire,
)

#: ``Concat(bin(0), bin(port), wire)`` opens with kind 0's doubled digit
#: and the separator; the port follows at nesting level 1.
_HEADER = "0001"
_SEPARATOR = "01"
_PORT_TABLE = nesting_levels(2)[1][1]

#: Every live plane, cleared by ``repro.views.clear_view_caches``: plane
#: entries key on interned-view identity and hold interned views, so a
#: plane surviving a cache clear must drop them with the intern table.
_LIVE_PLANES: "weakref.WeakSet[MessagePlane]" = weakref.WeakSet()


def _clear_message_planes() -> None:
    for plane in list(_LIVE_PLANES):
        plane.clear()


def _check_com_message(msg: Any) -> Tuple[int, View]:
    if (
        isinstance(msg, tuple)
        and len(msg) == 2
        and isinstance(msg[0], int)
        and isinstance(msg[1], View)
    ):
        return msg
    raise SimulationError(
        f"strict mode supports COM messages (port, View); got {type(msg).__name__}"
    )


def _decode_message(bits: Bits, decode_view: Callable[[Bits], View]) -> Any:
    """The full parse: every field of the message split by
    ``decode_concat``, then checked in order, the view field decoded by
    ``decode_view``."""
    fields = decode_concat(bits)
    if not fields:
        raise SimulationError("malformed strict COM message")
    kind = decode_uint(fields[0])
    if kind == 0:
        if len(fields) != 3:
            raise SimulationError("malformed strict COM message")
        return (decode_uint(fields[1]), decode_view(fields[2]))
    raise SimulationError(f"unknown strict message kind {kind}")


def _split_message(s: str) -> Optional[Tuple[int, str]]:
    """``(port, view wire)`` of a well-formed COM message, split at its
    header; ``None`` when any check fails, so that the caller's full
    parse raises the error."""
    if not s.startswith(_HEADER):
        return None
    k = 4
    pair = s[4:6]
    while pair == "00" or pair == "11":
        k += 2
        pair = s[k:k + 2]
    port = s[4:k:2]
    if pair != _SEPARATOR or not port or (port[0] == "0" and len(port) > 1):
        return None
    k += 2
    digits = s[k::2]
    # the halves differ on any pair that is not a doubled digit (a
    # separator, a '10') and in length when the message is odd
    if digits != s[k + 1::2]:
        return None
    return int(port, 2), digits


def _encode_message_seed(msg: Any) -> Bits:
    """The seed path: full-DAG encode per message, no caches anywhere."""
    port, view = _check_com_message(msg)
    return concat_bits(
        [encode_uint(0), encode_uint(port), _encode_view_wire_uncached(view)]
    )


class MessagePlane:
    """Per-run message codec and dedup shared by every node of a strict
    execution.

    Keys are exact — ``(port, id(view))`` on the way out (views are
    interned, identity is structural equality) and the wire string on
    the way in — so a hit returns the byte-identical ``Bits`` / message
    tuple a miss builds, and every message is byte-equal to the seed
    path's: ``bits_sent`` accounting and strict records are unchanged.
    ``clear_view_caches`` empties every live plane; create one plane per
    run (``wire_wrapped`` does) or pass a long-lived one explicitly to
    read its hit counters.
    """

    __slots__ = (
        "_encode_cache",
        "_decode_cache",
        "encode_calls",
        "encode_hits",
        "decode_calls",
        "decode_hits",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._encode_cache: Dict[Tuple[int, int], Bits] = {}
        self._decode_cache: Dict[str, Any] = {}
        self.encode_calls = 0
        self.encode_hits = 0
        self.decode_calls = 0
        self.decode_hits = 0
        _LIVE_PLANES.add(self)
        # plane creation is a per-run boundary, not a per-message event:
        # the encode/decode hot paths stay uninstrumented
        obs.inc("strict_planes_created")

    def encode(self, msg: Any) -> Bits:
        self.encode_calls += 1
        port, view = _check_com_message(msg)
        key = (port, id(view))
        wire = self._encode_cache.get(key)
        if wire is not None:
            self.encode_hits += 1
            return wire
        wire = Bits._unsafe(
            _HEADER
            + uint_at(port, _PORT_TABLE)
            + _SEPARATOR
            + doubled_view_wire(view)
        )
        self._encode_cache[key] = wire
        return wire

    def decode(self, bits: Bits) -> Any:
        self.decode_calls += 1
        key = bits.as_str()
        msg = self._decode_cache.get(key)
        if msg is not None:
            self.decode_hits += 1
            return msg
        split = _split_message(key)
        if split is None:
            msg = _decode_message(bits, decode_view_wire)
        else:
            port, digits = split
            msg = (port, decode_view_wire(Bits._unsafe(digits)))
        self._decode_cache[key] = msg
        return msg

    def clear(self) -> None:
        """Drop the dedup entries (hit counters are left running)."""
        self._encode_cache.clear()
        self._decode_cache.clear()

    def stats(self) -> Dict[str, int]:
        """The hit counters, in bench-record field names."""
        return {
            "encode_calls": self.encode_calls,
            "encode_hits": self.encode_hits,
            "decode_calls": self.decode_calls,
            "decode_hits": self.decode_hits,
        }


class WireWrapped:
    """Wrap a node algorithm so all its traffic is serialized bits,
    encoded and decoded by ``plane`` (a private one when none is given)."""

    def __init__(self, inner: NodeAlgorithm, plane: Optional[MessagePlane] = None):
        self._inner = inner
        self.bits_sent = 0
        if plane is None:
            plane = MessagePlane()
        self._encode: Callable[[Any], Bits] = plane.encode
        self._decode: Callable[[Bits], Any] = plane.decode

    def setup(self, ctx: NodeContext) -> None:
        self._inner.setup(ctx)

    def compose(self, ctx: NodeContext):
        out = self._inner.compose(ctx) or {}
        encoded = {}
        encode = self._encode
        for port, msg in out.items():
            wire = encode(msg)
            self.bits_sent += len(wire)
            encoded[port] = wire
        return encoded

    def deliver(self, ctx: NodeContext, inbox: List[Optional[Any]]) -> None:
        decoded: List[Optional[Any]] = []
        decode = self._decode
        for msg in inbox:
            if msg is None:
                decoded.append(None)
            elif isinstance(msg, Bits):
                decoded.append(decode(msg))
            else:
                raise SimulationError(
                    "strict mode received a non-Bits message: the peer is "
                    "not wire-wrapped"
                )
        self._inner.deliver(ctx, decoded)


class _SeedWireWrapped(WireWrapped):
    """The pre-optimization byte path: per-message full-DAG encode and
    per-message decode, bypassing every codec cache.  Exists so the
    bench can time the seed implementation in-run and so the parity
    tests can pin the fast path byte-identical to it."""

    def __init__(self, inner: NodeAlgorithm):
        # the seed codec stands in for the plane, so none is made
        self._inner = inner
        self.bits_sent = 0
        self._encode = _encode_message_seed
        self._decode = partial(
            _decode_message, decode_view=_decode_view_wire_uncached
        )


def wire_wrapped(
    factory: Callable[[], NodeAlgorithm],
    plane: Optional[MessagePlane] = None,
) -> Callable[[], WireWrapped]:
    """Factory adapter: ``run_sync(g, wire_wrapped(ElectAlgorithm), ...)``.

    All nodes built by the returned factory share one message plane, so
    a payload sent (or received) by many nodes in a round is encoded
    (decoded) once.  Pass ``plane`` to share a plane across runs or to
    read its hit counters afterwards."""
    if plane is None:
        plane = MessagePlane()
    shared = plane

    def make() -> WireWrapped:
        return WireWrapped(factory(), shared)

    return make


def seed_wire_wrapped(
    factory: Callable[[], NodeAlgorithm],
) -> Callable[[], WireWrapped]:
    """Factory adapter for the seed (uncached, per-message) byte path —
    the strict bench's in-run ``speedup_vs_seed`` reference."""

    def make() -> WireWrapped:
        return _SeedWireWrapped(factory())

    return make
