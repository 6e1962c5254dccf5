"""Differential tests for the memoized wire codec (strict-wire fast path).

``encode_view_wire`` is cached on view identity and builds first
encodings level-incrementally from cached child sub-encodings;
``_encode_view_wire_uncached`` is the seed implementation kept as the
executable specification.  These tests pin the two byte-for-byte equal
over every connected <=5-node atlas graph under two port maps and over
corpus-family prefixes — including the merge path, by encoding every
depth-l view before any depth-l+1 view so parents always find their
children's sub-encodings in cache.  The same loops pin every strict
message ``MessagePlane.encode`` writes byte-equal to the seed message.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.corpus import get_family
from repro.graphs.serialization import from_networkx
from repro.sim.strict import MessagePlane, _encode_message_seed
from repro.views import clear_view_caches, view_levels
from repro.views.wire import (
    _encode_view_wire_uncached,
    decode_view_wire,
    doubled_view_wire,
    encode_view_wire,
)


def _small_connected_instances():
    instances = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not (2 <= n <= 5):
            continue
        if atlas_graph.number_of_edges() == 0 or not nx.is_connected(atlas_graph):
            continue
        gid = f"atlas-{atlas_graph.name or id(atlas_graph)}"
        instances.append((f"{gid}-canonical", from_networkx(atlas_graph)))
        instances.append((f"{gid}-seeded", from_networkx(atlas_graph, seed=11)))
    return instances


SMALL_INSTANCES = _small_connected_instances()


def _corpus_prefix_instances():
    entries = []
    for family, count in (
        ("tori", 2),
        ("random-trees", 3),
        ("caterpillars", 2),
        ("lifts", 2),
    ):
        entries.extend(get_family(family).generate(count, seed=0))
    return entries


CORPUS_INSTANCES = _corpus_prefix_instances()


def _assert_codec_matches_seed(g, max_depth):
    """Encode every view of every level bottom-up (the COM traffic order,
    which makes depth-l+1 first encodings take the cached-child merge
    path) and compare each wire byte-for-byte against the seed encoder;
    decoding must return the identical interned object.  Every message
    ``(port, view)`` a node holding the view sends is byte-equal to the
    seed message, and the doubled wire it splices is the plain wire
    doubled."""
    clear_view_caches()
    plane = MessagePlane()
    for level in view_levels(g, max_depth=max_depth):
        for v in set(level):
            fast = encode_view_wire(v)
            seed = _encode_view_wire_uncached(v)
            assert fast.as_str() == seed.as_str(), (
                f"cached encoding diverges from seed at depth {v.depth}"
            )
            assert encode_view_wire(v).as_str() == seed.as_str()  # cache hit
            assert decode_view_wire(fast) is v
            assert doubled_view_wire(v) == (
                seed.as_str().replace("0", "00").replace("1", "11")
            )
            for port in range(v.degree):
                wire = plane.encode((port, v))
                seed_msg = _encode_message_seed((port, v))
                assert wire.as_str() == seed_msg.as_str()
                assert plane.decode(wire) == (port, v)


@pytest.mark.parametrize(
    "name,g", SMALL_INSTANCES, ids=[name for name, _ in SMALL_INSTANCES]
)
def test_cached_encoding_equals_seed_atlas(name, g):
    _assert_codec_matches_seed(g, max_depth=2 * g.n)


@pytest.mark.parametrize(
    "name,g", CORPUS_INSTANCES, ids=[name for name, _ in CORPUS_INSTANCES]
)
def test_cached_encoding_equals_seed_corpus(name, g):
    _assert_codec_matches_seed(g, max_depth=6)


def test_cold_parent_encoding_matches_seed():
    """The other first-encoding shape: a parent encoded with *no* child
    sub-encodings cached (pure DFS path, no merge) must also match."""
    from repro.graphs import lollipop, ring

    for g in (ring(7), lollipop(5, 4)):
        for depth in (0, 1, 4):
            clear_view_caches()
            levels = list(view_levels(g, max_depth=depth))
            for v in set(levels[-1]):  # children never pre-encoded
                assert (
                    encode_view_wire(v).as_str()
                    == _encode_view_wire_uncached(v).as_str()
                )


def test_partial_overlap_merge_matches_seed():
    """Merge with a non-empty index: a parent whose first child was
    encoded standalone but whose later children overlap it exercises the
    reference-remapping branch, not the verbatim splice."""
    from repro.graphs import lollipop

    g = lollipop(6, 3)
    clear_view_caches()
    levels = list(view_levels(g, max_depth=5))
    # encode a strict subset of depth-4 views, then all depth-5 parents:
    # each parent finds some children cached and some not
    subset = sorted(set(levels[4]), key=id)[::2]
    for v in subset:
        encode_view_wire(v)
    for v in set(levels[5]):
        assert (
            encode_view_wire(v).as_str()
            == _encode_view_wire_uncached(v).as_str()
        )


def test_decode_cache_is_exact_not_just_memoized():
    """A foreign-but-valid wire (records in a non-canonical order) must
    still decode correctly and must never poison the encode side: the
    canonical encoding stays canonical."""
    from repro.coding.concat import concat_bits
    from repro.coding.integers import encode_uint
    from repro.graphs import ring

    clear_view_caches()
    v = list(view_levels(ring(4), max_depth=1))[1][0]  # depth-1, degree-2
    assert [q for q, _ in v.children] == [1, 0]
    canonical = encode_view_wire(v)
    # hand-build an equivalent wire listing the leaf record twice — a
    # valid encoding no canonical encoder would emit
    leaf = concat_bits([encode_uint(2)])
    parent = concat_bits(
        [encode_uint(2), encode_uint(1), encode_uint(1), encode_uint(0), encode_uint(0)]
    )
    foreign = concat_bits([leaf, leaf, parent])
    assert foreign.as_str() != canonical.as_str()
    assert decode_view_wire(foreign) is v
    assert encode_view_wire(v).as_str() == canonical.as_str()
