"""Faithful synchronous CONGEST simulator and the one round driver.

:func:`drive_rounds` is the synchronous round every backend executes: the
termination check, crash-stop faults, sender-side Byzantine corruption,
adaptive-adversary feedback, the halted/crashed drop rule, metrics and
tracer events all live there, once.  It takes two plug-ins: a *stepper*
that runs the vertices' code (:class:`VertexStepper` here; the vector and
sharded steppers live in :mod:`repro.engine`) and a *transport* that moves
words across edges.  The driver lives in this module, next to
:class:`SynchronousRun`, so the engine imports it downward and the
reference simulator needs no import of the engine.

:class:`CongestNetwork` is the reference transport: it delivers messages
edge-by-edge with the bandwidth constraint of the model (per round, per
directed edge, at most one machine word crosses).  Payloads larger than one
word are fragmented transparently and the fragments are queued on the edge,
exactly the way a real CONGEST algorithm would have to stretch a large
transfer over multiple rounds.  This per-edge FIFO is the *delivery oracle*
of the execution engine (:mod:`repro.engine`): the batch schedulers of the
vectorized and sharded backends are validated against it.  For large
graphs, select a faster backend through :func:`run_algorithm`'s
``backend`` argument or :func:`repro.engine.run_algorithm`; the asymptotic
scaling experiments use :mod:`repro.congest.cost`.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Container, Hashable, Iterable, Sequence

import networkx as nx

from repro.congest.message import Message, words_for_payload
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexAlgorithm, VertexFactory
from repro.obs.tracer import Tracer, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.backend import Backend
    from repro.engine.scenarios import DeliveryScenario


@dataclass
class SynchronousRun:
    """Result of driving a :class:`CongestNetwork` to completion.

    Attributes:
        rounds: number of synchronous rounds executed.
        metrics: full round/message accounting.
        outputs: per-vertex ``output`` attribute after termination.
        halted: whether every vertex halted (as opposed to hitting the
            round limit).  Crashed vertices (vertex-fault scenarios) are
            excluded: a run is ``halted`` when every *surviving* vertex
            halted.
        round_stretch: compiled-over-bare round ratio when the run came out
            of the robust compiler (:mod:`repro.robust`); ``None`` for
            ordinary runs.
        reseats: replica re-seat count when the run came out of the robust
            compiler's self-healing mode (``compile_robust(heal=True)``);
            ``None`` for ordinary runs.
    """

    rounds: int
    metrics: CongestMetrics
    outputs: dict[Hashable, object]
    halted: bool
    round_stretch: float | None = None
    reseats: int | None = None

    def combined_output(self) -> set:
        """Union of all per-vertex outputs that are sets (listing results)."""
        combined: set = set()
        for value in self.outputs.values():
            if isinstance(value, (set, frozenset, list, tuple)):
                combined.update(value)
        return combined


def drive_rounds(
    stepper: Any,
    transport: Any,
    scenario: "DeliveryScenario | None",
    *,
    max_rounds: int,
    phase: str,
    metrics: CongestMetrics | None,
    tracer: Tracer,
) -> SynchronousRun:
    """Execute synchronous CONGEST rounds until every vertex has stopped.

    A vertex has *stopped* once it halted or crashed; the run ends when
    every vertex has stopped and the transport has nothing in flight, or
    after ``max_rounds`` rounds.  Each round: apply this round's crashes,
    step every live vertex, corrupt Byzantine payloads at the sender,
    schedule the outgoing traffic, deliver what completes this round, feed
    an adaptive adversary the pre-drop per-receiver counts, and drop
    deliveries that touch a halted or crashed vertex.

    Args:
        stepper: runs the vertices' code and owns their inboxes —
            :class:`VertexStepper`, the vector layer's array stepper, or
            the sharded fan-out.  Protocol: ``nodes`` (vertex labels in
            dense-id order), ``live()`` (vertices neither halted nor
            crashed), ``crash(vertices)``, ``step(round_index)`` (the
            round's outgoing traffic, or ``None`` when there is nothing to
            schedule), ``corrupt(scenario, outgoing, round_index)``,
            ``receiver_counts(delivered)``, ``receive(delivered)`` (routes
            deliveries, returns how many it dropped), ``outputs()``, and
            ``compute_span`` (whether the driver times the step as the
            ``compute`` span).
        transport: moves words across edges — :class:`CongestNetwork`'s
            edge-queue FIFO or a :class:`~repro.engine.delivery.WordScheduler`
            adapter.  Protocol: ``schedule(outgoing, round_index)``,
            ``deliver(round_index)`` returning ``(delivered, count,
            words)``, ``pending`` (the in-flight gauge ``round_begin``
            reports; zero when nothing is in flight),
            ``trace_round(round_index, delivered)`` (its own traced
            events) and ``schedule_span``.
        scenario: the delivery scenario, for its vertex-fault axis; link
            faults are the transport's business.  ``None`` is fault-free.
        max_rounds / phase / metrics: as for :meth:`CongestNetwork.run`.
        tracer: observability sink; events are emitted only when
            ``tracer.enabled``.
    """
    metrics = metrics if metrics is not None else CongestMetrics()
    traced = tracer.enabled
    vertex_faults = scenario is not None and getattr(
        scenario, "has_vertex_faults", False
    )
    adaptive = scenario is not None and getattr(scenario, "is_adaptive", False)
    if vertex_faults or adaptive:
        scenario.bind_nodes(stepper.nodes)
    if adaptive:
        from repro.engine.scenarios import RoundStats
    # Crash-stop accumulator: once a vertex appears in the scenario's faulty
    # set it stays crashed for the rest of the run.
    crashed: set[Hashable] = set()

    rounds_executed = 0
    for round_index in range(max_rounds):
        if not stepper.live() and not transport.pending:
            break
        rounds_executed += 1
        if vertex_faults:
            # Crashes apply after the termination check and before compute,
            # so a crash never adds or removes a round.
            newly = [
                vertex
                for vertex in scenario.faulty_vertices(round_index)
                if vertex not in crashed
            ]
            if newly:
                crashed.update(newly)
                stepper.crash(newly)
                if traced:
                    for vertex in newly:
                        tracer.vertex_crashed(round_index, vertex)
        if traced:
            round_start = time.perf_counter()
            tracer.round_begin(
                round_index, active=stepper.live(), pending=transport.pending
            )
        outgoing = stepper.step(round_index)
        corrupted = 0
        if vertex_faults and outgoing is not None:
            # Byzantine corruption is applied sender-side at send time,
            # before the transport sizes the payloads, so every backend
            # schedules and delivers the identical corrupted value.
            outgoing, corrupted = stepper.corrupt(scenario, outgoing, round_index)
        if traced:
            mark = time.perf_counter()
            if stepper.compute_span:
                tracer.span_add("compute", mark - round_start, round_index)
            if corrupted:
                tracer.payload_corrupted(round_index, corrupted)
        if outgoing is not None:
            transport.schedule(outgoing, round_index)
            if traced and transport.schedule_span:
                now = time.perf_counter()
                tracer.span_add("schedule", now - mark, round_index)
                mark = now
        delivered, count, words_crossed = transport.deliver(round_index)
        if adaptive:
            # Pre-drop counts: the same delivery set the cross-backend
            # messages_delivered tracer event reports, so every backend
            # feeds the adversary identical observations.
            scenario.observe_round(
                RoundStats(round_index, stepper.receiver_counts(delivered))
            )
        dropped = stepper.receive(delivered)
        if dropped:
            metrics.add_dropped(dropped, phase=phase)
        metrics.add_rounds(1, phase=phase)
        metrics.add_messages(count, phase=phase, words=words_crossed)
        if traced:
            now = time.perf_counter()
            tracer.span_add("deliver", now - mark, round_index)
            transport.trace_round(round_index, delivered)
            tracer.round_end(
                round_index,
                delivered=count,
                words=words_crossed,
                dropped=dropped,
                seconds=now - round_start,
            )

    return SynchronousRun(
        rounds=rounds_executed,
        metrics=metrics,
        outputs=stepper.outputs(),
        # Crashed vertices are excluded: a run is halted when every
        # surviving vertex halted.
        halted=not stepper.live(),
    )


class MessageStepper:
    """What the steppers whose traffic is :class:`Message` objects share.

    Subclasses set ``nodes`` (dense-id order), ``inboxes`` (vertex -> the
    list its next deliveries are appended to), ``halted`` and ``crashed``
    (vertex sets, kept current by the subclass's ``step`` and ``crash``).
    """

    compute_span = True
    nodes: list[Hashable]
    inboxes: dict[Hashable, list[Message]]
    halted: set[Hashable]
    crashed: set[Hashable]

    def corrupt(
        self, scenario: "DeliveryScenario", outgoing: list[Message], round_index: int
    ) -> tuple[list[Message], int]:
        """Apply the scenario's ``corrupt_payload``; returns (messages, count)."""
        checked: list[Message] = []
        corrupted = 0
        for message in outgoing:
            payload = scenario.corrupt_payload(
                message.sender, message.receiver, round_index, message.payload
            )
            if payload is not message.payload:
                message = replace(message, payload=payload)
                corrupted += 1
            checked.append(message)
        return checked, corrupted

    @cached_property
    def _dense_ids(self) -> dict[Hashable, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    def receiver_counts(self, delivered: list[Message]):
        """Per-receiver delivery counts in dense-id order (``int64[n]``)."""
        # numpy stays a local import so the pure-Python simulator keeps its
        # stdlib footprint on non-adaptive runs.
        import numpy as np

        ids = self._dense_ids
        counts = np.zeros(len(self.nodes), dtype=np.int64)
        for message in delivered:
            counts[ids[message.receiver]] += 1
        return counts

    def receive(self, delivered: list[Message]) -> int:
        """Route deliveries into inboxes; returns how many were dropped."""
        halted, crashed, inboxes = self.halted, self.crashed, self.inboxes
        dropped = 0
        for message in delivered:
            # A halted vertex never consumes its inbox again; queueing
            # would grow memory without bound on long runs.  Crashed
            # endpoints behave the same: words a crashed sender queued
            # before dying still consumed bandwidth, but the message is
            # discarded on arrival (and nothing reaches a dead receiver).
            if message.receiver in halted or (
                crashed
                and (message.sender in crashed or message.receiver in crashed)
            ):
                dropped += 1
                continue
            inboxes[message.receiver].append(message)
        return dropped


class VertexStepper(MessageStepper):
    """One :class:`VertexAlgorithm` per vertex, stepped in dict order.

    The stepper of the reference simulator, of the vectorized backend's
    per-vertex path, and of every sharded worker (over its shard's
    vertices).  ``edges`` answers ``(u, v) in edges`` for every directed
    edge — the adjacency test behind the non-neighbour check.
    """

    def __init__(
        self,
        algorithms: dict[Hashable, VertexAlgorithm],
        edges: Container[tuple[Hashable, Hashable]],
    ):
        self.algorithms = algorithms
        self.nodes = list(algorithms)
        self.edges = edges
        self.inboxes = {v: [] for v in algorithms}
        # A factory may construct vertices already halted.
        self.halted = {v for v, alg in algorithms.items() if alg.halted}
        self.crashed = set()
        self.active = [v for v in algorithms if v not in self.halted]
        # Vertices whose last step halted them (the sharded workers report
        # these so the parent can drop deliveries addressed to them).
        self.newly_halted: list[Hashable] = []

    def live(self) -> int:
        return len(self.active)

    def crash(self, vertices: Iterable[Hashable]) -> None:
        crashed = self.crashed
        crashed.update(vertices)
        self.active = [v for v in self.active if v not in crashed]

    def step(self, round_index: int) -> list[Message]:
        algorithms, inboxes, edges = self.algorithms, self.inboxes, self.edges
        outgoing: list[Message] = []
        still_active: list[Hashable] = []
        newly_halted: list[Hashable] = []
        for vertex in self.active:
            algorithm = algorithms[vertex]
            sent = algorithm.on_round(round_index, inboxes[vertex])
            inboxes[vertex] = []
            for message in sent:
                if message.sender != vertex:
                    raise ValueError(
                        f"vertex {vertex!r} attempted to forge sender {message.sender!r}"
                    )
                if (vertex, message.receiver) not in edges:
                    raise ValueError(
                        f"vertex {vertex!r} attempted to send to non-neighbour "
                        f"{message.receiver!r}"
                    )
                outgoing.append(message)
            if algorithm.halted:
                newly_halted.append(vertex)
            else:
                still_active.append(vertex)
        self.active = still_active
        self.halted.update(newly_halted)
        self.newly_halted = newly_halted
        return outgoing

    def outputs(self) -> dict[Hashable, object]:
        return {v: alg.output for v, alg in self.algorithms.items()}


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph.

    The network is the reference *transport* of :func:`drive_rounds`: a
    FIFO of word fragments per directed edge, popped once per round.
    """

    # The reference charges its enqueue to the ``deliver`` span.
    schedule_span = False

    def __init__(
        self,
        graph: nx.Graph,
        metrics: CongestMetrics | None = None,
        scenario: "DeliveryScenario | None" = None,
        tracer: Tracer | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot build a CONGEST network over an empty graph")
        self.graph = graph
        self.n = graph.number_of_nodes()
        self.metrics = metrics if metrics is not None else CongestMetrics()
        # Optional delivery model (repro.engine.scenarios); None is the
        # clean synchronous CONGEST model and skips the per-edge query.
        self.scenario = scenario
        # The scenario's two fault axes split here: the delivery loop
        # queries ``transmits`` only when link faults exist (vertex-fault
        # scenarios keep the clean per-edge pop); the vertex faults are
        # the round driver's business.
        self._link_scenario = (
            scenario
            if scenario is not None and getattr(scenario, "has_link_faults", True)
            else None
        )
        self.tracer = resolve_tracer(tracer)
        # Per directed edge FIFO of outstanding word fragments.
        self._edge_queues: dict[tuple[Hashable, Hashable], deque] = defaultdict(deque)
        # The last scheduled round's messages and its scenario-blocked edge
        # count (observability details of trace_round, not an API).
        self._sent: Sequence[Message] = ()
        self._last_blocked = 0

    # -- driving an algorithm ------------------------------------------------

    def run(
        self,
        factory: VertexFactory,
        max_rounds: int = 10_000,
        phase: str = "simulated",
    ) -> SynchronousRun:
        """Instantiate ``factory`` on every vertex and run to termination.

        Args:
            factory: called as ``factory(vertex, neighbors, n)`` for every
                vertex of the graph.
            max_rounds: safety cap on the number of synchronous rounds.
            phase: metrics phase to charge rounds and messages to.

        Returns:
            A :class:`SynchronousRun` with metrics and per-vertex outputs.
        """
        # Materialised neighbour tuples: a factory must be able to iterate
        # its neighbours more than once (a lazy generator would silently
        # read empty on the second pass).
        algorithms: dict[Hashable, VertexAlgorithm] = {
            v: factory(v, tuple(self.graph.neighbors(v)), self.n)
            for v in self.graph.nodes
        }
        self._edge_queues.clear()
        return drive_rounds(
            VertexStepper(algorithms, self.graph.edges),
            self,
            self.scenario,
            max_rounds=max_rounds,
            phase=phase,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    # -- bandwidth-constrained delivery ---------------------------------------

    def schedule(self, outgoing: Sequence[Message], round_index: int) -> None:
        """Fragment messages into words and append them to edge queues."""
        self._sent = outgoing
        for message in outgoing:
            edge = (message.sender, message.receiver)
            fragments = words_for_payload(message.payload, self.n)
            # The final fragment carries the payload; preceding fragments are
            # placeholder words.  This preserves both delivery semantics (the
            # receiver acts on the payload once it has fully arrived) and the
            # bandwidth accounting (``fragments`` words cross the edge).
            for _ in range(fragments - 1):
                self._edge_queues[edge].append(None)
            self._edge_queues[edge].append(message)

    def deliver(self, round_index: int) -> tuple[list[Message], int, int]:
        """Pop at most one word per directed edge.

        Returns the messages whose final word arrived this round, their
        count, and the total number of words (including placeholder
        fragments of larger payloads) that crossed any edge — the quantity
        bandwidth accounting must charge.  Queues that drain are pruned so
        long runs do not iterate ever more empty deques.
        """
        delivered: list[Message] = []
        words_crossed = 0
        blocked = 0
        drained: list[tuple[Hashable, Hashable]] = []
        scenario = self._link_scenario
        for edge, queue in self._edge_queues.items():
            if scenario is not None and not scenario.transmits(edge, round_index):
                blocked += 1
                continue
            item = queue.popleft()
            words_crossed += 1
            if isinstance(item, Message):
                delivered.append(item)
            if not queue:
                drained.append(edge)
        for edge in drained:
            del self._edge_queues[edge]
        self._last_blocked = blocked
        return delivered, len(delivered), words_crossed

    @property
    def pending(self) -> int:
        """Directed edges with queued words (drained queues are pruned)."""
        return len(self._edge_queues)

    def trace_round(self, round_index: int, delivered: list[Message]) -> None:
        """The reference's own per-round events, after the deliver span."""
        tracer = self.tracer
        # A message defers when its last word does not cross in the round
        # it was sent — the same definition the batch scheduler reports
        # (completion round > enqueue round).
        sent_ids = {id(m) for m in self._sent}
        completed_now = sum(1 for m in delivered if id(m) in sent_ids)
        tracer.messages_scheduled(
            round_index,
            count=len(self._sent),
            deferred=len(self._sent) - completed_now,
        )
        if self._last_blocked:
            tracer.edges_blocked(round_index, self._last_blocked)
        tracer.messages_delivered(round_index, delivered)


def run_algorithm(
    graph: nx.Graph,
    factory: VertexFactory,
    max_rounds: int = 10_000,
    phase: str = "simulated",
    metrics: CongestMetrics | None = None,
    backend: "Backend | type[Backend] | str | None" = None,
    scenario: "DeliveryScenario | str | None" = None,
) -> SynchronousRun:
    """Run ``factory`` on the execution engine (reference backend by default).

    This is the historical entry point; it now routes through
    :func:`repro.engine.runner.run_algorithm`, so existing callers keep the
    faithful edge-by-edge semantics unchanged while gaining backend
    (``"reference"`` / ``"vectorized"`` / ``"sharded"``) and delivery-scenario
    selection.
    """
    from repro.engine.runner import run_algorithm as engine_run

    return engine_run(
        graph,
        factory,
        backend=backend,
        max_rounds=max_rounds,
        phase=phase,
        metrics=metrics,
        scenario=scenario,
    )
