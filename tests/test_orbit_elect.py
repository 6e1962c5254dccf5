"""The orbit-collapsed engine against the per-node run, exhaustively.

Both run :class:`~repro.sim.local_model.SyncEngine`'s round loop: the
per-node run over the discrete partition, :mod:`repro.core.orbit_elect`
over a collapsed one, claiming the per-node result field for field while
simulating one node per orbit.  This file proves the claim where proof
is cheapest and strongest:

* **exhaustively** on every connected graph shape on 3..6 nodes under
  two port assignments (the same instance set the conformance oracle
  sweeps), smallest-first, so the first failure is a smallest witness
  and prints the graph JSON that reconstructs it;
* under **both** valid collapse partitions — the exact automorphism
  orbits (:func:`node_orbits`) and the coarser stable view-refinement
  classes (:func:`behavior_classes`);
* for both workloads: the uniform-advice view probe (runs on every
  graph) and the full Theorem 3.1 election pipeline (runs exactly on
  the feasible ones);
* by **seeded fuzz** over the symmetric corpus families (tori,
  vertex-transitive, lifts) where orbits are genuinely large and the
  collapse is not the identity.
"""

import networkx as nx
import pytest

from repro.core import run_elect
from repro.core.orbit_elect import (
    OrbitEngine,
    ViewProbeAlgorithm,
    behavior_classes,
    node_orbits,
    run_elect_orbit,
    run_orbit,
    run_view_probe,
    view_probe_factory,
)
from repro.errors import SimulationError
from repro.graphs import from_networkx, grid_torus, path_graph, ring, to_json
from repro.sim import run_sync
from repro.views import is_feasible
from repro.views.refinement import stable_partition


def _small_connected_instances():
    """Connected atlas shapes on 3..6 nodes, canonical + seeded ports,
    smallest shapes first (the atlas is ordered by (n, m))."""
    out = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not (3 <= n <= 6):
            continue
        if atlas_graph.number_of_edges() == 0 or not nx.is_connected(atlas_graph):
            continue
        gid = f"atlas-{atlas_graph.name or id(atlas_graph)}"
        out.append((f"{gid}-canonical", from_networkx(atlas_graph)))
        out.append((f"{gid}-seeded", from_networkx(atlas_graph, seed=7)))
    return out


INSTANCES = _small_connected_instances()


def _fail_with_repro(name, g, what):
    pytest.fail(
        "orbit-collapsed engine diverged from the per-node spec — "
        "minimized repro:\n"
        f"  instance: {name} (n = {g.n}, m = {g.num_edges})\n"
        f"  graph JSON: {to_json(g)}\n"
        f"  divergence: {what}"
    )


def test_enumeration_matches_the_conformance_sweep():
    # connected shapes: 2 (n=3) + 6 (n=4) + 21 (n=5) + 112 (n=6), x2 ports
    assert len(INSTANCES) == 2 * (2 + 6 + 21 + 112)


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", INSTANCES, ids=lambda p: p[0])
def test_partitions_are_consistent(name_g):
    name, g = name_g
    stable = stable_partition(g)
    orbits = node_orbits(g, stable)
    classes = behavior_classes(g, stable)
    # both are partitions of the node set ...
    for part in (orbits, classes):
        assert sorted(v for block in part.orbits for v in block) == list(
            range(g.n)
        )
        assert all(part.orbit_of[v] == i
                   for i, block in enumerate(part.orbits) for v in block)
        assert part.representatives == tuple(b[0] for b in part.orbits)
    # ... orbits refine classes (same orbit => same view at every depth)
    for block in orbits.orbits:
        assert len({classes.orbit_of[v] for v in block}) == 1
    # ... and feasibility is exactly discreteness of both (Yamashita-
    # Kameda: electable <=> all views distinct <=> rigid)
    feasible = is_feasible(g)
    assert classes.discrete == feasible
    if feasible:
        assert orbits.discrete


# ----------------------------------------------------------------------
# engine parity, exhaustively
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name_g", INSTANCES, ids=lambda p: p[0])
def test_probe_parity_under_both_partitions(name_g):
    name, g = name_g
    stable = stable_partition(g)
    depth = stable.depth + 1
    full = run_view_probe(g, depth, collapsed=False)
    for label, part in (
        ("node_orbits", node_orbits(g, stable)),
        ("behavior_classes", behavior_classes(g, stable)),
    ):
        collapsed = run_view_probe(g, depth, orbits=part)
        if collapsed != full:
            _fail_with_repro(
                name, g, f"depth-{depth} probe under {label}: "
                f"{collapsed} != {full}"
            )


@pytest.mark.parametrize("name_g", INSTANCES, ids=lambda p: p[0])
def test_elect_parity_on_feasible(name_g):
    name, g = name_g
    if not is_feasible(g):
        pytest.skip("infeasible instance")
    full = run_elect(g)
    collapsed = run_elect_orbit(g)
    if collapsed != full:
        _fail_with_repro(name, g, f"elect records: {collapsed} != {full}")


# ----------------------------------------------------------------------
# seeded fuzz where orbits are large
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["tori", "vertex-transitive", "lifts"])
def test_fuzz_symmetric_families(family):
    """Corpus prefixes of the symmetric families: the collapse must be
    genuinely nontrivial (some orbit bigger than one node) and the
    collapsed probe must equal the per-node probe on every entry."""
    from repro.corpus import get_family

    saw_nontrivial = False
    for name, g in get_family(family).generate(4, seed=11):
        stable = stable_partition(g)
        part = behavior_classes(g, stable)
        saw_nontrivial |= part.max_orbit_size > 1
        depth = stable.depth + 1
        full = run_view_probe(g, depth, collapsed=False)
        for orbits in (part, node_orbits(g, stable)):
            collapsed = run_view_probe(g, depth, orbits=orbits)
            if collapsed != full:
                _fail_with_repro(name, g, f"fuzz probe at depth {depth}")
    assert saw_nontrivial, f"family {family} never exercised the collapse"


def test_torus_collapses_to_one_orbit():
    part = behavior_classes(grid_torus(4, 5))
    assert part.num_orbits == 1
    assert part.max_orbit_size == 20
    exact = node_orbits(grid_torus(4, 5))
    assert exact.num_orbits == 1  # vertex-transitive: one true orbit too


# ----------------------------------------------------------------------
# engine guardrails
# ----------------------------------------------------------------------
class TestGuardrails:
    def test_advice_map_is_refused(self):
        g = grid_torus(3, 3)
        with pytest.raises(SimulationError, match="identical advice"):
            OrbitEngine(g, view_probe_factory(1), advice_map={0: None})

    def test_tracer_is_refused(self):
        g = grid_torus(3, 3)
        with pytest.raises(SimulationError, match="per-node tracer"):
            OrbitEngine(g, view_probe_factory(1), tracer=object())

    def test_max_rounds_error_matches_per_node_engine(self):
        """The collapsed engine must fail exactly like the spec: same
        exception, same message (including the reconstructed per-node
        stuck list)."""
        g = grid_torus(3, 3)
        factory = view_probe_factory(50)
        with pytest.raises(SimulationError) as full:
            run_sync(g, factory, max_rounds=3)
        with pytest.raises(SimulationError) as collapsed:
            run_orbit(g, factory, max_rounds=3)
        assert str(collapsed.value) == str(full.value)

    @pytest.mark.parametrize(
        "graph, partition_of, match",
        [
            # one 8-member block would count every message 8 times
            (ring(6), ring(8), "covers 8 nodes but the graph has 6"),
            # a degree-1 end would stand for degree-2 inner nodes
            (path_graph(6), ring(6), "does not fit the graph"),
            # too few entries: a block lookup past the end
            (ring(8), ring(6), "covers 6 nodes but the graph has 8"),
        ],
        ids=["ring6-under-ring8", "path6-under-ring6", "ring8-under-ring6"],
    )
    def test_partition_that_does_not_fit_is_refused(
        self, graph, partition_of, match
    ):
        """The loop checks the necessary conditions (one block entry per
        node, members of their representative's degree); behavior-
        uniformity beyond them is the caller's contract."""
        with pytest.raises(SimulationError, match=match):
            run_orbit(
                graph,
                view_probe_factory(2),
                max_rounds=4,
                orbits=behavior_classes(partition_of),
            )

    def test_negative_probe_depth_is_rejected(self):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError, match="depth"):
            ViewProbeAlgorithm(-1)

    def test_single_node_graph(self):
        from repro.graphs.port_graph import PortGraphBuilder

        g = PortGraphBuilder(1).build()
        full = run_view_probe(g, 3, collapsed=False)
        assert run_view_probe(g, 3) == full
        assert full.rounds == 0
