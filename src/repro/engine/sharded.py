"""Sharded backend: vertex-partitioned execution across worker processes.

Vertices are split into contiguous shards (in ``graph.nodes`` order); each
shard runs its vertices' ``on_round`` code in a forked worker process (a
:class:`~repro.congest.network.VertexStepper` over the shard).  The parent
runs the shared round driver, :func:`~repro.congest.network.drive_rounds`,
with the fan-out stepper below and the same scheduler transport the
vectorized backend uses (:class:`~repro.engine.delivery.MessageTransport`).
One synchronous round is one barrier: the parent broadcasts the round's
deliveries to every worker, the workers step and validate their vertices
concurrently, and the parent collects the outgoing traffic and schedules
it.  The request/response pair over each worker's pipe *is* the barrier —
no worker can run ahead of the round the parent is driving.

Crash decisions travel in the round token.  The parent's driver is the only
reader of the fault scenario, static or adaptive; workers never see it, so
their view of who has crashed is the parent's by construction.

Workers are started with the ``fork`` start method so that arbitrary vertex
factories (including classes defined in test modules or notebooks) need not
be picklable.  Each direction of each round crosses a worker's pipe as one
pickled columnar batch (:func:`_pack_messages`).  Where ``fork`` is
unavailable (or for ``num_workers=1``) there is nothing to exchange: the
run steps one per-vertex stepper over all vertices in-process, with **no
serialisation layer at all**.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Hashable

import networkx as nx

from repro.congest.message import Message
from repro.congest.metrics import CongestMetrics
from repro.congest.network import (
    MessageStepper,
    SynchronousRun,
    VertexStepper,
    drive_rounds,
)
from repro.engine.backend import Backend, VertexFactory
from repro.engine.delivery import GraphIndex, MessageTransport
from repro.engine.registry import register_backend
from repro.engine.scenarios import DeliveryScenario, resolve_scenario
from repro.obs.tracer import Tracer, resolve_tracer

_ROUND = "round"
_FINISH = "finish"

# An empty columnar batch (see _pack_messages); shared so quiet rounds cost
# one memoised pickle record per pipe crossing.
_EMPTY_BATCH = ((), (), (), ())


def _pack_messages(messages: list[Message]) -> tuple[tuple, ...]:
    """Columnar batch for one pipe crossing: four parallel tuples.

    The sharded transport: one batched payload per worker per round
    direction instead of a list of :class:`Message` dataclass instances —
    pickling ``N`` instances spends per-object class/state records and a
    reconstruction call each, while four flat tuples cost one container
    record apiece and let pickle's memo share the repeated senders, tags,
    and (for broadcast-style workloads) identical payload objects across
    the whole round.
    :func:`_unpack_messages` rebuilds equal ``Message`` objects on the
    receiving side, so shard code above this layer never sees the batching.
    """
    if not messages:
        return _EMPTY_BATCH
    return (
        tuple(m.sender for m in messages),
        tuple(m.receiver for m in messages),
        tuple(m.tag for m in messages),
        tuple(m.payload for m in messages),
    )


def _unpack_messages(batch: tuple[tuple, ...]) -> list[Message]:
    """Inverse of :func:`_pack_messages`."""
    senders, receivers, tags, payloads = batch
    return [
        Message(sender, receiver, tag, payload)
        for sender, receiver, tag, payload in zip(senders, receivers, tags, payloads)
    ]


def _shard_worker(conn, vertices, factory, neighbor_map, n, edges) -> None:
    """Worker-process loop: step the shard once per parent request."""
    try:
        stepper = VertexStepper(
            {v: factory(v, neighbor_map[v], n) for v in vertices}, edges
        )
        conn.send(("ready", list(stepper.halted)))
        while True:
            request = conn.recv()
            if request[0] == _ROUND:
                _, round_index, batch, crashes = request
                # Deliveries first: the parent routed them before this
                # round's crashes, and a message a vertex sent before it
                # crashed is still consumed.
                stepper.receive(_unpack_messages(batch))
                if crashes:
                    stepper.crash(crashes)
                outgoing = stepper.step(round_index)
                # The newly halted vertices let the parent keep a global
                # halted set and drop deliveries to halted vertices before
                # they ever cross a pipe.
                conn.send(
                    ("stepped", _pack_messages(outgoing), stepper.newly_halted)
                )
            elif request[0] == _FINISH:
                conn.send(("outputs", stepper.outputs()))
                return
    except (KeyboardInterrupt, SystemExit):
        # Control flow must terminate the worker, not turn into an error
        # message: the parent detects the death via EOF on the pipe.
        raise
    except Exception as exc:  # surface worker failures to the parent
        try:
            conn.send(("error", exc))
        except (OSError, ValueError, pickle.PicklingError):
            # Parent pipe gone or exception unpicklable; dying is fine —
            # the parent reports EOF as an unexpected worker death.
            pass
    finally:
        conn.close()


class _ProcessShard:
    """A forked worker process driven over a duplex pipe."""

    def __init__(self, context, vertices, factory, neighbor_map, n, edges):
        self.vertices = vertices
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_worker,
            args=(child_conn, vertices, factory, neighbor_map, n, edges),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        (self.initial_halted,) = self._expect("ready")

    def _expect(self, kind: str):
        try:
            reply = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker for vertices {self.vertices[:3]}... died unexpectedly"
            ) from None
        if reply[0] == "error":
            raise reply[1]
        if reply[0] != kind:
            raise RuntimeError(f"unexpected shard reply {reply[0]!r}")
        return reply[1:]

    def begin_round(
        self, round_index: int, deliveries: list[Message], crashes: tuple = ()
    ) -> None:
        """Send the round's deliveries and the go token (no reply yet)."""
        self._conn.send((_ROUND, round_index, _pack_messages(deliveries), crashes))

    def collect_round(self) -> tuple[list[Message], list[Hashable]]:
        """Receive the round's (outgoing, newly_halted)."""
        batch, newly_halted = self._expect("stepped")
        return _unpack_messages(batch), newly_halted

    def finish(self):
        self._conn.send((_FINISH,))
        (outputs,) = self._expect("outputs")
        self._process.join(timeout=5)
        return outputs

    def close(self) -> None:
        try:
            self._conn.close()
        finally:
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5)


class _ShardFanOut(MessageStepper):
    """The sharded backend's stepper: one round is one barrier.

    ``step`` broadcasts the round's deliveries (and crash decisions) to
    every worker, then waits for every worker's outgoing traffic.  The parent
    keeps the global halted set from the shards' reports, so deliveries to
    halted or crashed vertices are dropped at routing time and never cross
    a pipe.
    """

    # Worker time is read from the broadcast span and the per-shard
    # barrier waits, not from a parent-side compute span.
    compute_span = False

    def __init__(self, shards: list["_ProcessShard"], nodes, tracer: Tracer):
        self.shards = shards
        self.nodes = nodes
        self.tracer = tracer
        self._parts: list[list[Message]] = [[] for _ in shards]
        self.inboxes = {
            v: part for shard, part in zip(shards, self._parts) for v in shard.vertices
        }
        self.halted = {v for shard in shards for v in shard.initial_halted}
        self.crashed = set()
        self._crashes: tuple = ()

    def live(self) -> int:
        return len(self.nodes) - len(self.halted) - len(self.crashed - self.halted)

    def crash(self, vertices: list[Hashable]) -> None:
        self.crashed.update(vertices)
        # Crash decisions travel in the round token: a fork-inherited
        # scenario copy would never see an adaptive adversary's feedback.
        self._crashes = tuple(vertices)

    def step(self, round_index: int) -> list[Message]:
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            broadcast_start = time.perf_counter()
        # Barrier in, barrier out: broadcast the round to every shard, then
        # wait for every shard's response.
        for shard, deliveries in zip(self.shards, self._parts):
            shard.begin_round(round_index, deliveries, self._crashes)
        if traced:
            tracer.span_add(
                "broadcast", time.perf_counter() - broadcast_start, round_index
            )
        outgoing: list[Message] = []
        for shard_id, shard in enumerate(self.shards):
            if traced:
                # The recv blocks until the worker finishes the round: the
                # wait *is* the barrier, and its length is the straggler
                # signal worth tracing.
                wait_start = time.perf_counter()
                sent, newly_halted = shard.collect_round()
                tracer.barrier_wait(
                    round_index, shard_id, time.perf_counter() - wait_start
                )
            else:
                sent, newly_halted = shard.collect_round()
            outgoing.extend(sent)
            self.halted.update(newly_halted)
        for part in self._parts:
            part.clear()
        self._crashes = ()
        return outgoing

    def outputs(self) -> dict[Hashable, object]:
        outputs: dict[Hashable, object] = {}
        for shard in self.shards:
            outputs.update(shard.finish())
        return {v: outputs[v] for v in self.nodes}


@register_backend("sharded")
class ShardedBackend(Backend):
    """Multi-core backend: per-shard workers, per-round barrier sync."""

    name = "sharded"

    def __init__(self, num_workers: int | None = None, start_method: str = "fork"):
        self.num_workers = num_workers
        self.start_method = start_method

    def _resolve_workers(self, n: int) -> int:
        workers = self.num_workers
        if workers is None:
            # The cores this process may actually run on: cgroup/taskset
            # affinity masks, not the host's total core count — so a
            # container pinned to 2 of 64 cores forks 2 workers, and an
            # unrestricted 8-core host genuinely shards 8 ways.
            try:
                workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover - non-Linux
                workers = os.cpu_count() or 1
        return max(1, min(workers, n))

    def run(
        self,
        graph: nx.Graph,
        factory: VertexFactory,
        *,
        max_rounds: int = 10_000,
        phase: str = "simulated",
        metrics: CongestMetrics | None = None,
        scenario: DeliveryScenario | None = None,
        tracer: Tracer | None = None,
    ) -> SynchronousRun:
        factory = self.resolve_factory(factory)
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot build a CONGEST network over an empty graph")
        tracer = resolve_tracer(tracer)
        index = GraphIndex(graph)
        n = index.n
        neighbor_map = {v: tuple(graph.neighbors(v)) for v in index.nodes}
        scenario_obj = resolve_scenario(scenario)
        workers = self._resolve_workers(n)
        use_processes = (
            workers > 1 and self.start_method in multiprocessing.get_all_start_methods()
        )
        shards: list[_ProcessShard] = []
        try:
            if use_processes:
                context = multiprocessing.get_context(self.start_method)
                # Contiguous blocks in graph.nodes order: concatenating shard
                # responses in shard order reproduces the reference
                # simulator's global vertex iteration order.
                block = (n + workers - 1) // workers
                for start in range(0, n, block):
                    shards.append(
                        _ProcessShard(
                            context, index.nodes[start : start + block],
                            factory, neighbor_map, n, index.edge_ids,
                        )
                    )
                stepper = _ShardFanOut(shards, index.nodes, tracer)
            else:
                # In-process there is nothing to exchange: contiguous inline
                # shards step exactly what one per-vertex stepper over all
                # vertices steps, with no serialisation layer at all.
                stepper = VertexStepper(
                    {v: factory(v, neighbor_map[v], n) for v in index.nodes},
                    index.edge_ids,
                )
            return drive_rounds(
                stepper,
                MessageTransport(index, scenario_obj, max_rounds, tracer),
                scenario_obj,
                max_rounds=max_rounds,
                phase=phase,
                metrics=metrics,
                tracer=tracer,
            )
        finally:
            for shard in shards:
                shard.close()
