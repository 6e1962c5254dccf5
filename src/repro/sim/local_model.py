"""Synchronous LOCAL-model engine.

Round semantics (matching the paper's time accounting):

* Before any communication, every node's algorithm runs :meth:`setup`
  (an algorithm that outputs here has election time 0).
* Communication round ``i`` (``i = 1, 2, ...``): every node composes its
  outgoing messages from its current state, then all messages are
  delivered simultaneously, then every node processes its inbox.  A node
  whose output is produced while processing round ``i`` has election time
  ``i`` — "after ``i`` rounds", e.g. Algorithm ``Elect`` outputs at time
  exactly phi.
* The run's *time* is the maximum election time over nodes, i.e. the
  paper's "minimum number of rounds sufficient to complete election by all
  nodes".

Nodes keep participating (relaying COM messages) after producing their
output; the engine stops as soon as every node has output.  This mirrors
standard LOCAL usage where "termination" means committing an output, and
sidesteps the pseudo-code subtlety that a node's repeat-loop may need one
more message from a neighbor that already decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.coding.bitstring import Bits
from repro.errors import AlgorithmError, SimulationError
from repro.graphs.port_graph import PortGraph
from repro.obs import core as obs
from repro.views.view import View

#: Types a message may be built from in paranoid mode.
_ALLOWED_MESSAGE_TYPES = (int, str, bool, type(None), View, Bits)


def _check_message(msg: Any) -> None:
    if isinstance(msg, _ALLOWED_MESSAGE_TYPES):
        return
    if isinstance(msg, (tuple, frozenset)):
        for item in msg:
            _check_message(item)
        return
    raise AlgorithmError(
        f"message contains a {type(msg).__name__}; only immutable primitives, "
        "tuples, frozensets, Views and Bits may be sent (anonymous nodes must "
        "not share mutable state)"
    )


#: A decoder turns the advice string into the node's read-only view of it.
AdviceDecoder = Callable[[Optional[Bits]], Any]
#: One run's decode results, keyed by (decoder, exact advice string).
DecodeMemo = Dict[Tuple[AdviceDecoder, Optional[Bits]], Any]


class NodeContext:
    """Everything a node algorithm is allowed to see.

    ``decode_memo`` is the run's advice-decode memo: an engine creates one
    dict per run and hands it to every context it builds, so
    :meth:`decoded` runs each decoder once per run, not once per node.
    Without one, the context keeps a private memo.
    """

    __slots__ = (
        "_degree", "_advice", "_output", "_output_round", "_round",
        "_decode_memo",
    )

    def __init__(
        self,
        degree: int,
        advice: Optional[Bits],
        decode_memo: Optional[DecodeMemo] = None,
    ):
        self._degree = degree
        self._advice = advice
        self._output: Any = None
        self._output_round: Optional[int] = None
        self._round = 0
        self._decode_memo = {} if decode_memo is None else decode_memo

    @property
    def degree(self) -> int:
        """Degree of this node (the only initial knowledge besides advice)."""
        return self._degree

    @property
    def advice(self) -> Optional[Bits]:
        """The oracle's advice string (identical at every node), or None."""
        return self._advice

    def decoded(self, decoder: AdviceDecoder) -> Any:
        """``decoder(self.advice)``, computed once per run for each pair of
        decoder and exact advice string.

        The model gives every node the same string, and decoding is a pure
        function of it, so every node that asks gets the *same* result
        object.  The contract: ``decoder`` is pure, and its result is
        read-only except for memo tables that cache a pure function of the
        view and the advice (e.g. a shared ``RetrieveLabel`` cache).  A
        node learns nothing through the shared object that it could not
        compute from its own advice and views.
        """
        key = (decoder, self._advice)
        memo = self._decode_memo
        if key in memo:
            return memo[key]
        value = memo[key] = decoder(self._advice)
        return value

    @property
    def round_index(self) -> int:
        """Number of completed communication rounds."""
        return self._round

    @property
    def has_output(self) -> bool:
        return self._output_round is not None

    @property
    def output_value(self) -> Any:
        return self._output

    def output(self, value: Any) -> None:
        """Commit this node's election output (a sequence of port numbers).

        May be called once; the node may keep sending messages afterwards.
        """
        if self._output_round is not None:
            raise AlgorithmError("node attempted to output twice")
        self._output = value
        self._output_round = self._round


class NodeAlgorithm(Protocol):
    """Per-node deterministic algorithm.  One instance per node."""

    def setup(self, ctx: NodeContext) -> None:
        """Initialization before any communication (may output)."""

    def compose(self, ctx: NodeContext) -> Optional[Dict[int, Any]]:
        """Messages to send this round: ``{local_port: message}`` (or None).
        Called every round, including after the node has output."""

    def deliver(self, ctx: NodeContext, inbox: List[Optional[Any]]) -> None:
        """Process the messages received this round; ``inbox[p]`` is the
        message that arrived through local port ``p`` (None if none).

        The engine reuses the inbox buffer across rounds: consume it
        during the call, do not retain or mutate it."""


def _node_contexts(
    degrees: Sequence[int],
    advice: Optional[Bits],
    advice_map: Optional[Dict[int, Bits]] = None,
) -> List[NodeContext]:
    """One context per node (``degrees[i]`` is the i-th node's degree),
    all sharing one fresh advice-decode memo: the memo's scope is the
    run."""
    decode_memo: DecodeMemo = {}
    if advice_map is not None:
        return [
            NodeContext(d, advice_map.get(v), decode_memo)
            for v, d in enumerate(degrees)
        ]
    return [NodeContext(d, advice, decode_memo) for d in degrees]


@dataclass
class RunResult:
    """Outcome of a simulation run."""

    outputs: Dict[int, Any]
    output_round: Dict[int, int]
    rounds: int
    total_messages: int
    per_round_messages: List[int] = field(default_factory=list)

    @property
    def election_time(self) -> int:
        """The paper's election time: max over nodes of the round at which
        the node produced its output."""
        return max(self.output_round.values()) if self.output_round else 0


class SyncEngine:
    """Synchronous executor; see module docstring for round semantics."""

    def __init__(
        self,
        graph: PortGraph,
        algorithm_factory: Callable[[], NodeAlgorithm],
        advice: Optional[Bits] = None,
        max_rounds: int = 10_000,
        paranoid: bool = False,
        tracer: Optional[Any] = None,
        advice_map: Optional[Dict[int, Bits]] = None,
    ):
        """``advice_map`` gives *per-node* advice (the "informative
        labeling scheme" regime the paper contrasts with its identical-
        advice model; see Section 1).  Mutually exclusive with ``advice``.
        """
        if advice is not None and advice_map is not None:
            raise SimulationError(
                "pass either identical advice or a per-node advice_map, not both"
            )
        self._g = graph
        self._factory = algorithm_factory
        self._advice = advice
        self._advice_map = advice_map
        self._max_rounds = max_rounds
        self._paranoid = paranoid
        self._tracer = tracer

    def run(self) -> RunResult:
        # the no-op path costs one flag check: the hot loops below carry
        # no per-round or per-message instrumentation — per-round
        # accounting is the Tracer's job, folded into the span on exit
        if not obs.enabled():
            return self._run_impl(self._tracer)
        with obs.span("sim.run") as sp:
            tracer = self._tracer
            if tracer is None:
                from repro.sim.trace import Tracer

                tracer = Tracer()
            result = self._run_impl(tracer)
            sp.set("nodes", self._g.n)
            sp.set("rounds", result.rounds)
            sp.set("total_messages", result.total_messages)
            sp.set("per_round_messages", list(result.per_round_messages))
            if hasattr(tracer, "per_round"):  # a stub tracer may lack it
                summary = tracer.summary()
                sp.set("cost_dag_nodes", summary["cost_dag_nodes"])
                sp.set("max_view_depth", summary["max_view_depth"])
                sp.set("per_round_costs", tracer.per_round())
            return result

    def _run_impl(self, tracer: Optional[Any]) -> RunResult:
        g = self._g
        # flat delivery arrays: the edge out of u through port p is slot
        # offsets[u] + p, landing in inbox neighbors[slot] at local port
        # remote_ports[slot] — no method call or tuple unpack per message
        from repro.graphs.csr import csr_of

        csr = csr_of(g)
        n = csr.n
        degrees = csr.degrees
        offsets = csr.offsets
        dst_node = csr.neighbors
        dst_port = csr.remote_ports
        algorithms = [self._factory() for _ in range(n)]
        contexts = _node_contexts(degrees, self._advice, self._advice_map)

        for v in range(n):
            algorithms[v].setup(contexts[v])
        undecided = sum(
            1 for v in range(n) if contexts[v]._output_round is None
        )

        per_round_messages: List[int] = []
        total_messages = 0
        rounds = 0
        # inbox buffers are allocated once and reused: delivered slots are
        # reset to None after each processing phase (O(messages), not O(m))
        inboxes: List[List[Optional[Any]]] = [
            [None] * degrees[v] for v in range(n)
        ]
        # per-port delivery targets resolved once over the flat arrays:
        # targets[u][p] is the (inbox buffer, remote port) the message out
        # of u through p lands in, so the delivery and reset loops do one
        # tuple unpack per message instead of re-deriving the CSR slot
        targets: List[List[Tuple[List[Optional[Any]], int]]] = [
            [
                (inboxes[dst_node[slot]], dst_port[slot])
                for slot in range(offsets[u], offsets[u] + degrees[u])
            ]
            for u in range(n)
        ]
        while undecided:
            if rounds >= self._max_rounds:
                stuck = [
                    v for v in range(n) if contexts[v]._output_round is None
                ]
                raise SimulationError(
                    f"simulation exceeded max_rounds={self._max_rounds}; "
                    f"{len(stuck)} nodes never output (first few: {stuck[:5]})"
                )
            rounds += 1
            # phase 1: everyone composes
            outboxes: List[Dict[int, Any]] = []
            round_messages = 0
            for v in range(n):
                ctx = contexts[v]
                was_undecided = ctx._output_round is None
                out = algorithms[v].compose(ctx) or {}
                if was_undecided and ctx._output_round is not None:
                    undecided -= 1
                if out:
                    dv = degrees[v]
                    for port, msg in out.items():
                        if not (0 <= port < dv):
                            raise AlgorithmError(
                                f"node sent on port {port} but has degree {dv}"
                            )
                        if self._paranoid:
                            _check_message(msg)
                    round_messages += len(out)
                outboxes.append(out)
            if tracer is not None:
                tracer.record_round(rounds, outboxes)  # after all compose
            # phase 2: simultaneous delivery, batched over the flat arrays
            for u in range(n):
                out = outboxes[u]
                if out:
                    tu = targets[u]
                    for port, msg in out.items():
                        buf, dp = tu[port]
                        buf[dp] = msg
            # phase 3: everyone processes
            for v in range(n):
                ctx = contexts[v]
                ctx._round = rounds
                was_undecided = ctx._output_round is None
                algorithms[v].deliver(ctx, inboxes[v])
                if was_undecided and ctx._output_round is not None:
                    undecided -= 1
            # reset exactly the delivered slots for the next round
            for u in range(n):
                out = outboxes[u]
                if out:
                    tu = targets[u]
                    for port in out:
                        buf, dp = tu[port]
                        buf[dp] = None
            total_messages += round_messages
            per_round_messages.append(round_messages)

        return RunResult(
            outputs={v: contexts[v].output_value for v in range(n)},
            output_round={v: contexts[v]._output_round for v in range(n)},
            rounds=rounds,
            total_messages=total_messages,
            per_round_messages=per_round_messages,
        )


def run_sync(
    graph: PortGraph,
    algorithm_factory: Callable[[], NodeAlgorithm],
    advice: Optional[Bits] = None,
    max_rounds: int = 10_000,
    paranoid: bool = False,
    tracer: Optional[Any] = None,
    advice_map: Optional[Dict[int, Bits]] = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`SyncEngine`."""
    return SyncEngine(
        graph,
        algorithm_factory,
        advice,
        max_rounds=max_rounds,
        paranoid=paranoid,
        tracer=tracer,
        advice_map=advice_map,
    ).run()
