"""The one synchronous round loop, under the discrete and a collapsed
partition.

``SyncEngine`` (the per-node run) and ``OrbitEngine`` (one algorithm per
block of a collapsed partition) run the same loop.  These tests pin what
the parity tests cannot see because COM sends on every port in every
round:

* a message lives for exactly one round: a slot whose sender skipped the
  port reads ``None``, checked against an expectation built from
  ``PortGraph.neighbor`` alone;
* ``OrbitEngine.run`` never goes through ``SyncEngine.run``, so a wrapper
  around each (perfbench's ``sim.orbit`` and ``sim.sync`` spans) counts a
  run once.
"""

import pytest

from repro.core.orbit_elect import (
    OrbitEngine,
    behavior_classes,
    node_orbits,
    run_orbit,
    view_probe_factory,
)
from repro.graphs import grid_torus, hypercube, random_tree, ring
from repro.sim import SyncEngine, run_sync

ROUNDS = 7


class SparseLogger:
    """A uniform sparse sender: in round ``r`` it sends only on port
    ``r % degree``, and nothing when ``r`` is a multiple of 3.  After
    ``ROUNDS`` rounds it outputs the log of every inbox it saw."""

    def setup(self, ctx):
        self._log = []

    def compose(self, ctx):
        r = ctx.round_index + 1
        if r % 3 == 0:
            return None
        port = r % ctx.degree
        return {port: (r, ctx.degree, port)}

    def deliver(self, ctx, inbox):
        self._log.append(tuple(inbox))
        if ctx.round_index == ROUNDS:
            ctx.output(tuple(self._log))


def _expected_logs(g):
    """Every node's inbox log, from the port graph alone: port ``p`` of
    ``v`` holds a message in round ``r`` exactly when the neighbor behind
    it sent on the remote port that round."""
    logs = {}
    for v in g.nodes():
        log = []
        for r in range(1, ROUNDS + 1):
            inbox = []
            for p in range(g.degree(v)):
                u, q = g.neighbor(v, p)
                du = g.degree(u)
                sent = r % 3 != 0 and q == r % du
                inbox.append((r, du, q) if sent else None)
            log.append(tuple(inbox))
        logs[v] = tuple(log)
    return logs


def _check_run(g, result):
    assert result.outputs == _expected_logs(g)
    assert result.output_round == {v: ROUNDS for v in g.nodes()}
    assert result.rounds == ROUNDS
    assert result.per_round_messages == [
        0 if r % 3 == 0 else g.n for r in range(1, ROUNDS + 1)
    ]
    assert result.total_messages == sum(result.per_round_messages)


class TestNoMessageOutlivesItsRound:
    @pytest.mark.parametrize(
        "g",
        [ring(8), grid_torus(4, 5), hypercube(3)],
        ids=["ring8", "torus4x5", "hypercube3"],
    )
    def test_per_node_and_collapsed(self, g):
        per_node = run_sync(g, SparseLogger, max_rounds=ROUNDS + 1)
        _check_run(g, per_node)
        for partition in (behavior_classes(g), node_orbits(g)):
            assert partition.max_orbit_size > 1  # the collapse is real
            collapsed = run_orbit(
                g, SparseLogger, max_rounds=ROUNDS + 1, orbits=partition
            )
            _check_run(g, collapsed)
            assert collapsed == per_node

    def test_per_node_on_a_random_tree(self):
        g = random_tree(15, seed=4)
        assert len({g.degree(v) for v in g.nodes()}) > 2
        _check_run(g, run_sync(g, SparseLogger, max_rounds=ROUNDS + 1))


class TestTracedEntryPoints:
    def test_each_engine_defines_its_own_run(self):
        assert "run" in OrbitEngine.__dict__
        assert "run" in SyncEngine.__dict__

    def test_orbit_run_does_not_call_sync_run(self, monkeypatch):
        def refuse(self):
            raise AssertionError("OrbitEngine.run went through SyncEngine.run")

        monkeypatch.setattr(SyncEngine, "run", refuse)
        g = grid_torus(3, 3)
        result = OrbitEngine(g, view_probe_factory(2), max_rounds=4).run()
        assert result.rounds == 2
        assert result.total_messages == 2 * 4 * g.n
