"""View wire format and byte-honest (strict) execution."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import compute_advice, verify_election
from repro.core.elect import ElectAlgorithm
from repro.core.generic import GenericAlgorithm
from repro.errors import CodingError, SimulationError
from repro.coding import Bits
from repro.coding.concat import concat_bits
from repro.coding.integers import encode_uint
from repro.graphs import cycle_with_leader_gadget, lollipop, random_connected_graph, ring
from repro.sim import run_sync
from repro.sim.strict import (
    MessagePlane,
    WireWrapped,
    _decode_message,
    _encode_message_seed,
    _split_message,
    seed_wire_wrapped,
    wire_wrapped,
)
from repro.views import (
    clear_view_caches,
    election_index,
    is_feasible,
    view_levels,
    views_of_graph,
)
from repro.views import wire as wire_mod
from repro.views.wire import (
    _decode_view_wire_uncached,
    _encode_view_wire_uncached,
    decode_view_wire,
    encode_view_wire,
)


class TestWireFormat:
    def test_round_trip_reinterns(self):
        """Decoding must return the *same interned object*."""
        for g in (ring(6), lollipop(4, 2), cycle_with_leader_gadget(7)):
            for depth in (0, 1, 3):
                for v in set(views_of_graph(g, depth)):
                    assert decode_view_wire(encode_view_wire(v)) is v

    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip_random(self, n, extra, seed, depth):
        g = random_connected_graph(n, extra_edges=extra, seed=seed)
        for v in set(views_of_graph(g, depth)):
            assert decode_view_wire(encode_view_wire(v)) is v

    def test_wire_size_is_dag_not_tree(self):
        """Deep symmetric views have tiny DAGs: the wire format must not
        blow up exponentially."""
        v = views_of_graph(ring(8), 6)[0]
        wire = encode_view_wire(v)
        assert len(wire) < 100 * (v.depth + 1)
        assert v.tree_size() > 2**v.depth  # the tree *is* exponential

    def test_malformed_rejected(self):
        with pytest.raises(CodingError):
            decode_view_wire(Bits(""))
        with pytest.raises(CodingError):
            decode_view_wire(Bits("10"))

    def test_forward_reference_rejected(self):
        # hand-craft a record referencing itself
        from repro.coding.concat import concat_bits
        from repro.coding.integers import encode_uint

        record = concat_bits(
            [encode_uint(1), encode_uint(0), encode_uint(0)]
        )  # degree 1, child ref 0 = itself
        with pytest.raises(CodingError):
            decode_view_wire(concat_bits([record]))


class TestStrictExecution:
    def test_elect_strict_equals_fast(self):
        g = cycle_with_leader_gadget(6)
        bundle = compute_advice(g)
        fast = run_sync(g, ElectAlgorithm, advice=bundle.bits)
        strict = run_sync(g, wire_wrapped(ElectAlgorithm), advice=bundle.bits)
        assert strict.outputs == fast.outputs
        assert strict.election_time == fast.election_time
        assert verify_election(g, strict.outputs).leader == bundle.root

    def test_generic_strict(self):
        g = lollipop(4, 3)
        phi = election_index(g)
        fast = run_sync(g, lambda: GenericAlgorithm(phi))
        strict = run_sync(g, wire_wrapped(lambda: GenericAlgorithm(phi)))
        assert strict.outputs == fast.outputs

    def test_bits_counted(self):
        g = cycle_with_leader_gadget(6)
        bundle = compute_advice(g)
        instances = []

        def factory():
            w = WireWrapped(ElectAlgorithm())
            instances.append(w)
            return w

        run_sync(g, factory, advice=bundle.bits)
        assert all(w.bits_sent > 0 for w in instances)

    def test_non_com_message_rejected(self):
        class SendsInt:
            def setup(self, ctx):
                pass

            def compose(self, ctx):
                return {0: 42}

            def deliver(self, ctx, inbox):
                ctx.output(())

        with pytest.raises(SimulationError):
            run_sync(ring(4), wire_wrapped(SendsInt))

    def test_deep_views_do_not_recurse(self):
        """Regression: the codec and ``tree_size`` used to be recursive
        and hit the interpreter recursion limit on path/ring families
        where view depth is Theta(n).  Depth 2000 must work."""
        clear_view_caches()
        deep = None
        for level in view_levels(ring(4), max_depth=2000):
            deep = level[0]
        assert deep.depth == 2000
        fast = encode_view_wire(deep)
        assert fast.as_str() == _encode_view_wire_uncached(deep).as_str()
        assert decode_view_wire(fast) is deep
        assert deep.tree_size() > 0

    def test_bits_sent_exact_under_codec_caches(self):
        """The tentpole's exactness pin: a cached (fast) strict run and a
        seed (uncached, per-message) strict run must agree on every
        observable — outputs, rounds, per-round message counts and each
        node's ``bits_sent`` — because every cache hit returns the
        byte-identical wire the seed path would build."""
        for g in (cycle_with_leader_gadget(6), lollipop(5, 4)):
            bundle = compute_advice(g)

            def run_capture(make):
                instances = []

                def factory():
                    a = make()
                    instances.append(a)
                    return a

                result = run_sync(g, factory, advice=bundle.bits)
                return result, [a.bits_sent for a in instances]

            clear_view_caches()
            fast, fast_bits = run_capture(wire_wrapped(ElectAlgorithm))
            clear_view_caches()
            seed, seed_bits = run_capture(seed_wire_wrapped(ElectAlgorithm))
            assert fast.outputs == seed.outputs
            assert fast.output_round == seed.output_round
            assert fast.rounds == seed.rounds
            assert fast.total_messages == seed.total_messages
            assert fast.per_round_messages == seed.per_round_messages
            assert fast_bits == seed_bits

    def test_message_plane_dedups_and_counts(self):
        """All nodes of a run share one plane; repeated (port, view)
        messages and repeated wire strings must hit its caches, and the
        counters must account for every codec call.  The exact counts
        pin what the plane dedups: a codec change that alters it fails
        here."""
        for args, calls, hits in (((5, 4), 28, 16), ((8, 12), 400, 102)):
            g = lollipop(*args)
            bundle = compute_advice(g)
            clear_view_caches()
            plane = MessagePlane()
            result = run_sync(
                g, wire_wrapped(ElectAlgorithm, plane), advice=bundle.bits
            )
            # every sent message was encoded through the plane and every
            # received one decoded through it; dedup fires because a
            # node's view is sent through several ports and received by
            # several neighbors each round
            assert result.total_messages == calls
            assert plane.stats() == {
                "encode_calls": calls,
                "encode_hits": hits,
                "decode_calls": calls,
                "decode_hits": hits,
            }, args

    def test_message_plane_cleared_with_view_caches(self):
        """A plane surviving ``clear_view_caches`` would serve interned
        views from before the clear — the lifecycle contract forbids
        mixing those with fresh ones."""
        g = lollipop(4, 3)
        bundle = compute_advice(g)
        clear_view_caches()
        plane = MessagePlane()
        run_sync(g, wire_wrapped(ElectAlgorithm, plane), advice=bundle.bits)
        assert plane._encode_cache and plane._decode_cache
        # the doubled view wires a message splices live in the codec
        assert wire_mod._DOUBLED_CACHE
        clear_view_caches()
        assert not plane._encode_cache
        assert not plane._decode_cache
        assert not wire_mod._DOUBLED_CACHE

    def test_mixed_peers_rejected(self):
        """A strict node receiving raw (non-Bits) traffic must complain."""
        g = ring(4)
        bundleless = []

        class RawCom:
            def setup(self, ctx):
                from repro.sim.com import ViewAccumulator

                self.acc = ViewAccumulator(ctx.degree)

            def compose(self, ctx):
                return self.acc.outgoing()

            def deliver(self, ctx, inbox):
                ctx.output(())

        toggle = [True]

        def factory():
            toggle[0] = not toggle[0]
            return WireWrapped(RawCom()) if toggle[0] else RawCom()

        with pytest.raises(SimulationError):
            run_sync(g, factory, max_rounds=3)


#: each breaks one rule of the COM message format
MALFORMED = (
    "odd-length", "10-in-kind", "10-in-port", "10-in-view", "kind-1",
    "two-fields", "four-fields", "empty-port", "leading-zero-port",
    "empty-view", "forward-reference",
)
#: the ones the header split accepts: their view wire then fails in
#: ``decode_view_wire``; the header split hands the others to the full parse
SPLIT_THEN_FAIL = {"empty-view", "forward-reference"}


def _malformed_message(name: str) -> str:
    view = views_of_graph(lollipop(4, 2), 2)[0]
    wire = _encode_view_wire_uncached(view)
    good = _encode_message_seed((1, view)).as_str()
    assert good.startswith("0001" "11" "01")  # kind 0, port 1, view field
    i = len(good) - 8  # a pair inside the view field
    zero = encode_uint(0)
    self_ref = concat_bits(
        [encode_uint(1), encode_uint(0), encode_uint(0)]
    )  # degree 1, child reference 0 = the record itself
    messages = {
        "odd-length": good + "0",
        "10-in-kind": "10" + good[2:],
        "10-in-port": good[:4] + "10" + good[6:],
        "10-in-view": good[:i] + "10" + good[i + 2:],
        "kind-1": concat_bits([encode_uint(1), zero, wire]),
        "two-fields": concat_bits([zero, zero]),
        "four-fields": concat_bits([zero, zero, wire, wire]),
        "empty-port": concat_bits([zero, Bits(""), wire]),
        "leading-zero-port": concat_bits([zero, Bits("01"), wire]),
        "empty-view": concat_bits([zero, zero, Bits("")]),
        "forward-reference": concat_bits(
            [zero, zero, concat_bits([self_ref])]
        ),
    }
    return Bits(messages[name]).as_str()


class TestHeaderSplitDecode:
    """``MessagePlane.decode`` splits a message at its header and parses
    it in full only when a check fails; the seed decoder always parses in
    full.  Both must agree on every message, failing ones included."""

    def test_well_formed_messages_decode_like_the_seed(self):
        for g in (lollipop(5, 4), cycle_with_leader_gadget(6), ring(5)):
            clear_view_caches()
            plane = MessagePlane()
            levels = list(view_levels(g, max_depth=2 * g.n))
            for depth in (0, 1, len(levels) - 1):
                for v in set(levels[depth]):
                    for port in range(v.degree):
                        bits = _encode_message_seed((port, v))
                        assert _split_message(bits.as_str()) is not None
                        fast = plane.decode(bits)
                        seed = _decode_message(
                            bits, _decode_view_wire_uncached
                        )
                        assert fast[0] == seed[0] == port
                        assert fast[1] is seed[1] is v

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_messages_raise_the_seed_error(self, name):
        message = _malformed_message(name)
        splits = _split_message(message) is not None
        assert splits == (name in SPLIT_THEN_FAIL)
        bits = Bits(message)
        with pytest.raises(Exception) as seed:
            _decode_message(bits, _decode_view_wire_uncached)
        plane = MessagePlane()
        for attempt in (1, 2):
            with pytest.raises(Exception) as fast:
                plane.decode(bits)
            assert type(fast.value) is type(seed.value)
            assert str(fast.value) == str(seed.value)
            # a failed decode is counted and never cached
            assert not plane._decode_cache
            assert plane.decode_calls == attempt
            assert plane.decode_hits == 0

    def test_empty_message_raises_a_simulation_error(self):
        """An empty wire string has no fields at all: the full parse
        refuses it like any other malformed message, on both paths."""
        bits = Bits("")
        seed = seed_wire_wrapped(ElectAlgorithm)()
        with pytest.raises(SimulationError, match="malformed strict COM"):
            seed._decode(bits)
        plane = MessagePlane()
        with pytest.raises(SimulationError, match="malformed strict COM"):
            plane.decode(bits)
        assert not plane._decode_cache
        assert plane.decode_calls == 1 and plane.decode_hits == 0
