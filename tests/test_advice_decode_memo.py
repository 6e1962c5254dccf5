"""The per-run advice decode: one decode per run, identical runs.

Every node gets the same advice string, so the engines decode it once per
run (:meth:`NodeContext.decoded`) and all nodes share the result: Elect's
labeling context (with its RetrieveLabel memo) and root-path index, the
map baseline's decoded map, the naive baseline's rank table.  The
per-node decode survives here only, as the reference: patching
``decoded`` to call the decoder on every request gives each node its own
decoded advice and its own memo, as before the shared decode.

* **Parity.** Elect, map-based and naive-rank under the sync, strict,
  async (2 schedules) and orbit engines, on every connected graph of at
  most 5 nodes under 2 port maps and on corpus prefixes: outputs, output
  rounds, rounds, per-round message counts and, in strict mode, every
  node's ``bits_sent`` equal the per-node reference.
* **Count pin.** Each decoder runs exactly once per run, so a return to
  per-node decoding fails here.
* **Depth.** RetrieveLabel and the tree codec run on explicit stacks: a
  3000-level tree round-trips, and a phi = 149 election runs under a
  recursion limit far below phi.
"""

import importlib
import sys

import networkx as nx
import pytest

from repro.coding.bitstring import Bits
from repro.coding.trees import (
    LabeledRootedTree,
    RootPathIndex,
    decode_tree,
    encode_tree,
)
from repro.conformance.algorithms import get_algorithm, profile_graph
from repro.core.advice import (
    compute_advice,
    decode_advice,
    labeling_context_from_advice,
)
from repro.core.elect import run_elect
from repro.core.labels import local_label, retrieve_label
from repro.core.orbit_elect import OrbitEngine
from repro.corpus import iter_corpus
from repro.errors import CodingError
from repro.graphs import from_networkx, lollipop
from repro.sim.async_model import AsyncEngine
from repro.sim.local_model import NodeContext, SyncEngine
from repro.sim.schedulers import make_schedules
from repro.sim.strict import wire_wrapped
from repro.views.view import truncate_view, views_of_graph
from tests.conftest import feasible_corpus

ALGORITHMS = ("elect", "map-based", "naive-rank")
SCHEDULES = make_schedules(2, seed=0)
MODELS = ("sync", "strict") + tuple(
    f"async[{s.name}]" for s in SCHEDULES
) + ("orbit",)

#: algorithm -> (module, name) of its per-run decoder
DECODERS = {
    "elect": ("repro.core.elect", "decode_elect_advice"),
    "map-based": ("repro.baselines.map_based", "decode_map_advice"),
    "naive-rank": ("repro.baselines.naive_rank", "decode_naive_rank_advice"),
}


def _small_connected_instances():
    """Connected atlas shapes with at least one edge on at most 5 nodes,
    canonical and seeded ports."""
    out = []
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_nodes() > 5:
            break
        if atlas_graph.number_of_edges() == 0 or not nx.is_connected(atlas_graph):
            continue
        gid = f"atlas-{atlas_graph.name or id(atlas_graph)}"
        out.append((f"{gid}-canonical", from_networkx(atlas_graph)))
        out.append((f"{gid}-seeded", from_networkx(atlas_graph, seed=7)))
    return out


INSTANCES = _small_connected_instances() + feasible_corpus(max_n=20) + list(
    iter_corpus("random-trees:4,seed=1")
)


def _run(model, g, prepared, profile):
    """One run under ``model``: the RunResult fields the parity compares,
    plus every node's ``bits_sent`` in strict mode."""
    if model == "strict":
        nodes = []
        make = wire_wrapped(prepared.factory)

        def factory():
            nodes.append(make())
            return nodes[-1]

        result = SyncEngine(
            g, factory, advice=prepared.advice, max_rounds=prepared.max_rounds
        ).run()
        bits_sent = [node.bits_sent for node in nodes]
    else:
        if model == "sync":
            engine = SyncEngine(
                g, prepared.factory, advice=prepared.advice,
                max_rounds=prepared.max_rounds,
            )
        elif model == "orbit":
            engine = OrbitEngine(
                g, prepared.factory, advice=prepared.advice,
                max_rounds=prepared.max_rounds,
            )
        else:
            (schedule,) = [s for s in SCHEDULES if model == f"async[{s.name}]"]
            engine = AsyncEngine(
                g, prepared.factory, advice=prepared.advice,
                scheduler=schedule.make(),
                max_rounds=prepared.max_rounds + profile.diameter,
            )
        result = engine.run()
        bits_sent = None
    return (
        result.outputs,
        result.output_round,
        result.rounds,
        result.total_messages,
        result.per_round_messages,
        bits_sent,
    )


def _per_node_decode(ctx, decoder):
    """The reference: every node decodes the advice itself."""
    return decoder(ctx.advice)


def _prepared(g):
    profile = profile_graph(g)
    out = []
    for algorithm in ALGORITHMS:
        spec = get_algorithm(algorithm)
        if spec.applicable(g, profile) is None:
            out.append((algorithm, spec.prepare(g, profile)))
    return profile, out


# ----------------------------------------------------------------------
# parity with the per-node decode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", INSTANCES, ids=lambda p: p[0])
def test_shared_decode_matches_the_per_node_reference(name_g, monkeypatch):
    name, g = name_g
    profile, prepared = _prepared(g)
    for algorithm, prep in prepared:
        shared = {model: _run(model, g, prep, profile) for model in MODELS}
        with monkeypatch.context() as patch:
            patch.setattr(NodeContext, "decoded", _per_node_decode)
            reference = {
                model: _run(model, g, prep, profile) for model in MODELS
            }
        for model in MODELS:
            assert shared[model] == reference[model], (name, algorithm, model)


def test_the_parity_covers_every_algorithm():
    covered = set()
    for _, g in INSTANCES:
        covered.update(algorithm for algorithm, _ in _prepared(g)[1])
    assert covered == set(ALGORITHMS)


# ----------------------------------------------------------------------
# one decode per run
# ----------------------------------------------------------------------
def _count_decodes(monkeypatch, algorithm):
    module, attr = DECODERS[algorithm]
    original = getattr(importlib.import_module(module), attr)
    calls = []

    def counting(advice):
        calls.append(advice)
        return original(advice)

    monkeypatch.setattr(f"{module}.{attr}", counting)
    return calls


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_decoder_runs_once_per_run(algorithm, model, monkeypatch):
    _, g = feasible_corpus()[0]  # small phi and n: every algorithm applies
    profile, prepared = _prepared(g)
    prep = dict(prepared)[algorithm]
    calls = _count_decodes(monkeypatch, algorithm)
    _run(model, g, prep, profile)
    assert calls == [prep.advice]
    # the memo's scope is one run: the next run decodes afresh
    _run(model, g, prep, profile)
    assert len(calls) == 2


def test_decoded_memoizes_per_decoder_and_advice():
    calls = []

    def decoder(advice):
        calls.append(advice)
        return object()

    memo = {}
    a, b = Bits("0110"), Bits("0111")
    first = NodeContext(1, a, memo)
    assert first.decoded(decoder) is NodeContext(2, Bits("0110"), memo).decoded(decoder)
    other = NodeContext(1, b, memo).decoded(decoder)
    assert other is not first.decoded(decoder)
    assert calls == [a, b]
    # a context built without a run memo keeps its own
    lone = NodeContext(1, a)
    assert lone.decoded(decoder) is lone.decoded(decoder)
    assert len(calls) == 3


# ----------------------------------------------------------------------
# RetrieveLabel against Algorithm 3 as written
# ----------------------------------------------------------------------
def _retrieve_label_reference(b, ctx, cache):
    """Algorithm 3 verbatim: recursive, summing leaf counts label by
    label."""
    if b in cache:
        return cache[b]
    d = b.depth
    if d == 1:
        result = local_label(b, (), ctx.e1)
    else:
        x = tuple(_retrieve_label_reference(c, ctx, cache) for _, c in b.children)
        label = _retrieve_label_reference(truncate_view(b, d - 1), ctx, cache)
        layer = ctx.e2_layers.get(d, {})
        result = 0
        for i in range(1, label + 1):
            trie = layer.get(i)
            if trie is None:
                result += 1
            elif i < label:
                result += trie.num_leaves()
            else:
                result += local_label(b, x, trie)
    cache[b] = result
    return result


@pytest.mark.parametrize("name_g", feasible_corpus(), ids=lambda p: p[0])
def test_retrieve_label_matches_algorithm_3(name_g):
    _, g = name_g
    bundle = compute_advice(g)
    _, e1, e2, _ = decode_advice(bundle.bits)
    fast = labeling_context_from_advice(e1, e2)
    spec = labeling_context_from_advice(e1, e2)
    cache = {}
    for depth in range(bundle.phi, 0, -1):
        for view in views_of_graph(g, depth):
            assert retrieve_label(view, fast) == _retrieve_label_reference(
                view, spec, cache
            )


# ----------------------------------------------------------------------
# depth: explicit stacks instead of recursion
# ----------------------------------------------------------------------
def _chain(levels):
    root = node = LabeledRootedTree(1)
    for label in range(2, levels + 2):
        child = LabeledRootedTree(label)
        node.add_child(label % 3, (label + 1) % 3, child)
        node = child
    return root


def test_a_3000_level_tree_round_trips_and_answers_paths():
    tree = _chain(3000)
    decoded = decode_tree(encode_tree(tree))
    assert decoded == tree
    assert decoded.size() == 3001
    assert decoded.labels() == list(range(1, 3002))
    expected = [((label + 1) % 3, label % 3) for label in range(3001, 1, -1)]
    assert decoded.path_to_root_ports(3001) == expected
    assert RootPathIndex(decoded).path_to_root_ports(3001) == expected


def test_root_path_index_keeps_the_first_label_in_preorder():
    root = LabeledRootedTree(1)
    left, right = LabeledRootedTree(2), LabeledRootedTree(2)
    root.add_child(1, 0, right)  # insertion order, not port order
    root.add_child(0, 4, left)
    right.add_child(3, 2, LabeledRootedTree(5))
    index = RootPathIndex(root)
    assert index.path_to_root_ports(2) == [(0, 1)]
    assert index.path_to_root_ports(5) == [(2, 3), (0, 1)]
    assert index.path_to_root_ports(1) == []
    with pytest.raises(CodingError):
        index.path_to_root_ports(9)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_elect_runs_under_a_recursion_limit_below_phi():
    g = lollipop(3, 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        record = run_elect(g)
    finally:
        sys.setrecursionlimit(limit)
    assert record.phi == 149
    assert record.election_time == 149
    assert record.n == 303
