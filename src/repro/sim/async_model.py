"""Asynchronous execution of synchronous node algorithms.

The paper notes that "the synchronous process of the LOCAL model can be
simulated in an asynchronous network using time-stamps".  This module is
that simulation (an alpha-synchronizer): every message is stamped with the
sender's local round number; a node buffers incoming messages per round and
advances its local round only once it holds the full set of round-r
messages from all its ports.  Message delays are adversarial but finite —
here, seeded-random per message — and FIFO per link is *not* assumed.

Any :class:`~repro.sim.local_model.NodeAlgorithm` runs unmodified; the
tests require bit-identical outputs to :class:`SyncEngine`.

Message delays come from a pluggable :class:`~repro.sim.schedulers.Scheduler`
adversary; the default (``seed=s`` with no explicit scheduler) is the
historical seeded-uniform adversary, bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coding.bitstring import Bits
from repro.errors import PortNumberingError, SimulationError
from repro.graphs.port_graph import PortGraph
from repro.sim.local_model import NodeAlgorithm, RunResult, _node_contexts
from repro.sim.schedulers import RandomDelayScheduler, Scheduler
from repro.util.rng import RngLike


class AsyncEngine:
    """Event-driven executor with adversarial per-message delays."""

    def __init__(
        self,
        graph: PortGraph,
        algorithm_factory: Callable[[], NodeAlgorithm],
        advice: Optional[Bits] = None,
        seed: RngLike = 0,
        max_delay: float = 10.0,
        max_rounds: int = 10_000,
        max_events: int = 5_000_000,
        scheduler: Optional[Scheduler] = None,
        advice_map: Optional[Dict[int, Bits]] = None,
    ):
        """``scheduler`` overrides the default seeded-uniform adversary
        (``seed``/``max_delay`` are then ignored).  ``advice_map`` gives
        per-node advice, mirroring :class:`~repro.sim.local_model.SyncEngine`;
        mutually exclusive with ``advice``.
        """
        if advice is not None and advice_map is not None:
            raise SimulationError(
                "pass either identical advice or a per-node advice_map, not both"
            )
        self._g = graph
        self._factory = algorithm_factory
        self._advice = advice
        self._advice_map = advice_map
        if scheduler is None:
            scheduler = RandomDelayScheduler(seed, max_delay)
        self._scheduler = scheduler
        self._max_rounds = max_rounds
        self._max_events = max_events

    def run(self) -> RunResult:
        g = self._g
        from repro.graphs.csr import csr_of

        csr = csr_of(g)
        n = csr.n
        degrees = csr.degrees
        offsets = csr.offsets
        dst_node = csr.neighbors
        dst_port = csr.remote_ports
        scheduler = self._scheduler
        bind = getattr(scheduler, "bind", None)
        if bind is not None:
            bind(n)
        algorithms = [self._factory() for _ in range(n)]
        contexts = _node_contexts(degrees, self._advice, self._advice_map)
        # per node: local round counter and round -> port -> message buffers
        local_round = [0] * n
        buffers: List[Dict[int, List[Optional[Any]]]] = [dict() for _ in range(n)]
        total_messages = 0

        heap: List[Tuple[float, int, int, int, int, Any]] = []
        counter = itertools.count()

        def send_round(u: int) -> None:
            """Node u composes and ships its round-(local_round[u]+1)
            messages with random delays and a round stamp."""
            nonlocal total_messages, undecided
            ctx_u = contexts[u]
            was_undecided = ctx_u._output_round is None
            out = algorithms[u].compose(ctx_u) or {}
            if was_undecided and ctx_u._output_round is not None:
                undecided -= 1
            stamp = local_round[u] + 1
            base = offsets[u]
            for port, msg in out.items():
                if not (0 <= port < degrees[u]):
                    raise PortNumberingError(
                        f"node {u} has degree {degrees[u]}; "
                        f"port {port} does not exist"
                    )
                slot = base + port
                v = dst_node[slot]
                q = dst_port[slot]
                seq = next(counter)
                delay = scheduler.delay(u, port, v, q, stamp, seq)
                if not delay > 0:
                    raise SimulationError(
                        f"scheduler returned a non-positive delay {delay}; "
                        "adversarial delays must be positive and finite"
                    )
                heapq.heappush(heap, (delay + _now[0], seq, v, q, stamp, msg))
                total_messages += 1

        def round_complete(v: int, stamp: int) -> bool:
            buf = buffers[v].get(stamp)
            if buf is None:
                # a node with sending neighbors always gets messages; an
                # all-None round is complete only for expected-empty inboxes,
                # which COM-style algorithms never produce. Treat missing
                # buffer as incomplete.
                return False
            return all(slot is not _PENDING for slot in buf)

        _PENDING = object()
        _now = [0.0]

        for v in range(n):
            algorithms[v].setup(contexts[v])
        # decremented on every output transition: replaces the historical
        # O(n) all(...) scan per delivered round
        undecided = sum(
            1 for v in range(n) if contexts[v]._output_round is None
        )
        if not undecided:
            return RunResult(
                outputs={v: contexts[v].output_value for v in range(n)},
                output_round={v: contexts[v]._output_round for v in range(n)},
                rounds=0,
                total_messages=0,
            )

        # everyone launches round 1
        for v in range(n):
            buffers[v][local_round[v] + 1] = [_PENDING] * degrees[v]
            send_round(v)

        events = 0
        while heap:
            events += 1
            if events > self._max_events:
                raise SimulationError(
                    f"asynchronous run exceeded max_events={self._max_events}"
                )
            time, _, v, q, stamp, msg = heapq.heappop(heap)
            _now[0] = time
            buf = buffers[v].setdefault(stamp, None)
            if buf is None:
                buffers[v][stamp] = buf = [_PENDING] * degrees[v]
            if buf[q] is not _PENDING:
                raise SimulationError(
                    f"duplicate round-{stamp} message on port {q} of a node"
                )
            buf[q] = msg
            # advance this node through every now-complete round in order
            while round_complete(v, local_round[v] + 1):
                stamp_done = local_round[v] + 1
                inbox = buffers[v].pop(stamp_done)
                local_round[v] = stamp_done
                ctx = contexts[v]
                ctx._round = stamp_done
                was_undecided = ctx._output_round is None
                algorithms[v].deliver(ctx, inbox)
                if was_undecided and ctx._output_round is not None:
                    undecided -= 1
                if not undecided:
                    return RunResult(
                        outputs={
                            u: contexts[u].output_value for u in range(n)
                        },
                        output_round={
                            u: contexts[u]._output_round for u in range(n)
                        },
                        rounds=max(local_round),
                        total_messages=total_messages,
                    )
                if stamp_done >= self._max_rounds:
                    raise SimulationError(
                        f"a node exceeded max_rounds={self._max_rounds} "
                        "without all outputs present"
                    )
                send_round(v)

        stuck = [v for v in range(n) if not contexts[v].has_output]
        raise SimulationError(
            f"asynchronous run drained all events but {len(stuck)} nodes "
            f"never output (first few: {stuck[:5]})"
        )


def run_async(
    graph: PortGraph,
    algorithm_factory: Callable[[], NodeAlgorithm],
    advice: Optional[Bits] = None,
    seed: RngLike = 0,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`AsyncEngine`."""
    return AsyncEngine(graph, algorithm_factory, advice, seed=seed, **kwargs).run()
