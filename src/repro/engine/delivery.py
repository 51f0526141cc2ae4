"""Batch bandwidth-constrained delivery shared by the fast backends.

The reference simulator materialises every word fragment in a per-edge deque
and pops one per edge per round — faithful, but ``O(directed edges)`` of
Python work *every round*.  The :class:`WordScheduler` here computes, at
enqueue time, the exact round in which each transfer completes under the
same per-edge FIFO discipline, and then delivers whole rounds by popping a
bucket.  Intermediate fragments never exist as Python objects, yet the word
accounting (one word per busy edge per round) is reproduced exactly via a
difference array over rounds.

Each batch goes through one FIFO grouping pass (rows sharing a directed
edge queue behind each other in enqueue order) and then exactly one of two
completion rules, chosen by the scenario's ``is_clean``:

* **clean** — a transfer of ``w`` words completes ``w`` rounds after it
  starts (pure arithmetic);
* **kernel** — the scheduler materialises the scenario's batch transmit
  mask (:meth:`~repro.engine.scenarios.DeliveryScenario.transmit_mask`)
  over a growing round window and turns it into per-edge
  cumulative-transmission prefix sums: the round in which a transfer's
  ``k``-th word crosses is the position of the ``k``-th set bit at/after
  its start.

A scenario that implements only the scalar ``transmits`` takes the kernel
rule too, through the base ``transmit_mask`` that replays ``transmits`` per
``(edge, round)``: correct, but at Python speed.  Either way the result
agrees word-for-word with the edge-by-edge reference under the same
scenario.

Rows are opaque to the scheduler: :meth:`WordScheduler.schedule_batch`
takes a tuple of per-row columns and :meth:`WordScheduler.deliver_batch`
returns them in completion order.  :class:`BatchTransport` (the vector
layer) passes ``(senders, receivers, values)`` dense arrays;
:class:`MessageTransport` passes a single object column of ``Message``
objects.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Sequence

import networkx as nx
import numpy as np

from repro.congest.message import Message, words_for_payload
from repro.engine.scenarios import (
    CleanSynchronous,
    DeliveryScenario,
    link_projection,
)
from repro.obs.tracer import NULL_TRACER, Tracer

Edge = tuple[Hashable, Hashable]

# Round-window sizing of the masked prefix-sum search: start near the batch's
# largest transfer (a clean-ish scenario completes in one query), double on
# a miss, never materialise more than _WINDOW_CAP columns at once.
_WINDOW_MIN = 64
_WINDOW_CAP = 1 << 15


class GraphIndex:
    """Dense integer indexing of a graph's vertices and directed edges.

    Attributes:
        nodes: vertices in ``graph.nodes`` order (the order the reference
            simulator instantiates algorithms in).
        n: number of vertices.
        index: vertex identifier -> dense integer id.
        edge_ids: directed edge ``(u, v)`` -> dense edge id, both directions
            of every undirected edge.  Doubles as an O(1) adjacency test
            (``(u, v) in edge_ids``, one hash lookup, no networkx
            dict-of-dicts) with O(m) memory, which is what keeps the
            engine viable on large sparse graphs.
        edges: directed edge tuples in dense-id order (the inverse of
            ``edge_ids``); scenario kernels bind to this order.
    """

    def __init__(self, graph: nx.Graph):
        self.nodes: list[Hashable] = list(graph.nodes)
        self.n = len(self.nodes)
        self.index: dict[Hashable, int] = {v: i for i, v in enumerate(self.nodes)}
        self.edge_ids: dict[Edge, int] = {}
        for u, v in graph.edges:
            # setdefault keeps ids dense and gives a self-loop (u, u) a
            # single id — it is one directed queue in the reference
            # simulator, not two.
            self.edge_ids.setdefault((u, v), len(self.edge_ids))
            self.edge_ids.setdefault((v, u), len(self.edge_ids))
        # Insertion order == id order, so the key list inverts the mapping.
        self.edges: list[Edge] = list(self.edge_ids)


class WordScheduler:
    """Schedules whole transfers; delivers completed rows per round.

    Per directed edge the scheduler keeps only the last occupied round
    (``edge_free_at``, a numpy int64 array).  A transfer of ``w`` words
    enqueued in round ``r`` on edge ``e`` starts at
    ``max(edge_free_at[e] + 1, r)``; transfers sharing an edge in one batch
    queue behind each other in enqueue order — exactly the FIFO
    head-of-line behaviour of the per-edge deques in the reference
    simulator.  Under the clean scenario a transfer completes ``w`` rounds
    after its start; under any other scenario the completion round comes
    from prefix sums over the scenario's transmit mask.

    Each enqueued row carries caller-defined columns (parallel arrays, one
    entry per transfer) that :meth:`deliver_batch` hands back, in the
    round the transfer completes, stably ordered by enqueue order.

    The scheduler binds the scenario to its graph's edge order at
    construction, so a scenario instance schedules for one graph at a time
    (rebinding on the next run is automatic and cheap).
    """

    def __init__(
        self,
        index: GraphIndex,
        scenario: DeliveryScenario | None,
        horizon: int,
        tracer: Tracer = NULL_TRACER,
    ):
        self.index = index
        self.scenario = scenario if scenario is not None else CleanSynchronous()
        # Observability sink; every bulk enqueue emits one scheduler event
        # when (and only when) the tracer is enabled.
        self.tracer = tracer
        # Exclusive bound on executed rounds (the run's max_rounds): a
        # faulty scenario may block an edge forever, and the completion
        # search must never scan past the last round that can execute —
        # that is why the horizon is a required argument.
        self.horizon = horizon
        if not self.scenario.is_clean:
            self.scenario.bind_edges(index.edges)
        self.edge_free_at = np.full(len(index.edge_ids), -1, dtype=np.int64)
        # Per completion round, the column chunks of the rows completing
        # in it (one tuple of parallel arrays per enqueue batch).
        self._buckets: dict[int, list[tuple[np.ndarray, ...]]] = defaultdict(list)
        # Difference array over rounds: +1 when an edge starts carrying a
        # word in a round, -1 the round after it stops.  The running sum is
        # the number of words crossing the cut in each round.
        self._level_diff: dict[int, int] = defaultdict(int)
        self._level = 0
        self.pending_messages = 0

    # -- completion-round computation ----------------------------------------

    def _kernel_completions(
        self,
        edge_rows: np.ndarray,
        starts: np.ndarray,
        needed: np.ndarray,
        query_group: np.ndarray,
        query_k: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """Per-transfer completion rounds from transmit-mask prefix sums.

        ``edge_rows[g]`` queues ``needed[g]`` words starting at
        ``starts[g]``; each query asks for the round in which edge group
        ``query_group[i]``'s ``query_k[i]``-th word crosses (``query_k`` is
        the cumulative word count within the group's FIFO, so the answer is
        the position of the ``k``-th set mask bit at/after the start).
        Queries the horizon cuts off resolve to ``horizon``: the scenario
        blocks the edge past the run's last round, so the transfer stays
        pending (as the reference simulator's queue stays non-empty) and
        occupies the edge for any traffic queued behind it.

        The scenario's transmit mask is materialised over an adaptively
        sized round window per iteration; within a window the per-edge
        prefix sum answers every query falling inside it via one batched
        ``searchsorted``, and the per-round word-level histogram (crossings
        consumed by this batch, capped at each edge's demand) feeds the
        difference array without ever extracting individual crossings.
        Also returns how many windows the search materialised and their
        total column width (the tracer's searchsorted batch-size figures).
        """
        groups = int(edge_rows.size)
        counts = np.zeros(groups, dtype=np.int64)
        done = np.full(query_k.size, self.horizon, dtype=np.int64)
        local_of_group = np.full(groups, -1, dtype=np.int64)
        pending = np.arange(groups)
        cursor = starts.astype(np.int64, copy=True)
        horizon = self.horizon
        level_diff = self._level_diff
        width = int(min(max(int(needed.max()) + 16, _WINDOW_MIN), _WINDOW_CAP))
        windows = window_cols = 0
        while pending.size:
            lo = int(cursor[pending].min())
            hi = min(lo + width, horizon)
            if hi <= lo:
                break
            num = hi - lo
            windows += 1
            window_cols += num
            mask = self.scenario.transmit_mask(edge_rows[pending], lo, num)
            if lo < int(cursor[pending].max()):
                cols = np.arange(num, dtype=np.int64)
                mask &= cols[None, :] >= (cursor[pending] - lo)[:, None]
            prefix = np.cumsum(mask, axis=1)
            before = counts[pending]
            found = prefix[:, -1]
            total = before + found
            # Word-level accounting: the crossings this batch consumes in
            # the window are the set bits whose running total stays within
            # the edge's demand; their per-round histogram updates the
            # difference array (+c at the round, -c one round later).
            demand = needed[pending]
            if bool((total <= demand).all()):
                # No edge exceeds its demand inside this window (the common
                # case for all but the last window), so every set bit is a
                # consumed crossing — skip the cap comparison pass.
                consumed = mask
            else:
                consumed = mask & (before[:, None] + prefix <= demand[:, None])
            histogram = consumed.sum(axis=0)
            for column in np.flatnonzero(histogram).tolist():
                crossings = int(histogram[column])
                level_diff[lo + column] += crossings
                level_diff[lo + column + 1] -= crossings
            # Resolve the queries whose k-th crossing falls in this window:
            # the k-th set bit of row r is the first column whose prefix
            # reaches k, found by one searchsorted over the row-offset
            # flattened prefix (rows are kept monotonic by an offset larger
            # than any prefix value).
            local_of_group[pending] = np.arange(pending.size)
            q_local = local_of_group[query_group]
            q_safe = np.maximum(q_local, 0)
            answerable = (
                (q_local >= 0)
                & (query_k > before[q_safe])
                & (query_k <= total[q_safe])
            )
            if answerable.any():
                rows = q_local[answerable]
                row_base = rows * (num + 1)
                flat = (prefix + (np.arange(pending.size) * (num + 1))[:, None]).ravel()
                keys = (query_k[answerable] - before[rows]) + row_base
                positions = np.searchsorted(flat, keys, side="left")
                done[answerable] = lo + (positions - rows * num)
            local_of_group[pending] = -1
            counts[pending] = total
            # Advance only rows the window actually scanned: a row whose
            # start lies beyond this window keeps its cursor (and thereby
            # its start-culling) for the windows that reach it.
            cursor[pending] = np.maximum(cursor[pending], hi)
            still = found < demand - before
            pending = pending[still]
            if hi >= horizon or not pending.size:
                break
            # Size the next window from the sparsest pending row's observed
            # transmit density (fall back to doubling when a row was fully
            # blocked, e.g. inside a burst).
            remaining_max = int((needed[pending] - counts[pending]).max())
            min_density = float((found[still] / num).min())
            if min_density > 0.0:
                width = int(remaining_max / min_density * 1.25) + 8
            else:
                width = width * 2
            width = int(min(max(width, _WINDOW_MIN), _WINDOW_CAP))
        return done, windows, window_cols

    def _schedule_transfers(
        self, edge_ids: np.ndarray, words: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Completion rounds (original array order) of a batch of transfers.

        Rows sharing a directed edge form one FIFO group, queued in array
        order behind the edge's earlier traffic; occupancy
        (``edge_free_at``) and the word-level difference array are
        updated.  Clean scenarios complete by arithmetic, every other
        scenario by prefix sums over its transmit mask.
        """
        count = int(edge_ids.size)
        order = np.argsort(edge_ids, kind="stable")
        e = edge_ids[order]
        w = words[order]
        group_first = np.empty(count, dtype=bool)
        group_first[0] = True
        group_first[1:] = e[1:] != e[:-1]
        first_pos = np.flatnonzero(group_first)
        group_sizes = np.diff(np.append(first_pos, count))
        group_ids = np.repeat(np.arange(first_pos.size), group_sizes)
        u_edges = e[first_pos]
        # Words queued on the group's edge up to and including each row.
        cumulative = np.cumsum(w)
        group_base = cumulative[first_pos] - w[first_pos]
        cum_within = cumulative - np.repeat(group_base, group_sizes)
        last_pos = np.append(first_pos[1:], count) - 1
        totals = cum_within[last_pos]
        starts = np.maximum(self.edge_free_at[u_edges] + 1, round_index)
        windows = window_cols = 0
        if self.scenario.is_clean:
            # A group occupies its edge for ``totals`` consecutive rounds.
            done_sorted = starts[group_ids] + cum_within - 1
            level_diff = self._level_diff
            for r, c in zip(*np.unique(starts, return_counts=True)):
                level_diff[int(r)] += int(c)
            for r, c in zip(*np.unique(starts + totals, return_counts=True)):
                level_diff[int(r)] -= int(c)
            path = "clean"
        else:
            done_sorted, windows, window_cols = self._kernel_completions(
                u_edges, starts, totals, group_ids, cum_within
            )
            path = "kernel"
        self.edge_free_at[u_edges] = done_sorted[last_pos]
        done = np.empty(count, dtype=np.int64)
        done[order] = done_sorted
        tracer = self.tracer
        if tracer.enabled:
            tracer.scheduler_batch(
                round_index,
                path=path,
                transfers=count,
                edges=int(u_edges.size),
                deferred=int((done > round_index).sum()),
                windows=windows,
                window_cols=window_cols,
            )
        return done

    # -- enqueueing and delivery ----------------------------------------------

    def schedule_batch(
        self,
        columns: tuple[np.ndarray, ...],
        edge_ids: np.ndarray,
        words: np.ndarray,
        round_index: int,
    ) -> None:
        """Bulk-enqueue one round's transfers, one row per transfer.

        ``edge_ids`` are directed-edge ids of this scheduler's
        :class:`GraphIndex`, ``words`` the per-transfer word counts, and
        ``columns`` parallel per-row arrays (any dtype) handed back
        verbatim by :meth:`deliver_batch`.  Semantics are identical to
        enqueueing the rows one at a time in array order.
        """
        count = int(edge_ids.size)
        if count == 0:
            return
        done = self._schedule_transfers(edge_ids, words, round_index)
        bucket_order = np.argsort(done, kind="stable")
        done_sorted = done[bucket_order]
        cuts = (np.flatnonzero(done_sorted[1:] != done_sorted[:-1]) + 1).tolist()
        lows = [0] + cuts
        buckets = self._buckets
        for when, lo, hi in zip(done_sorted[lows].tolist(), lows, cuts + [count]):
            # A copy per completion round, not a view: a view would keep the
            # batch's whole column (and every message in it) alive until
            # its last row is delivered.
            rows = bucket_order[lo:hi]
            buckets[when].append(tuple([column[rows] for column in columns]))
        self.pending_messages += count

    def deliver_batch(
        self, round_index: int
    ) -> tuple[tuple[np.ndarray, ...] | None, int, int]:
        """``(columns, count, words)`` of the rows completing in ``round_index``.

        ``columns`` is ``None`` when nothing completes; ``words`` is the
        number of words crossing the cut in the round.  Must be called once
        per executed round, in increasing round order, after that round's
        :meth:`schedule_batch` call.
        """
        self._level += self._level_diff.pop(round_index, 0)
        chunks = self._buckets.pop(round_index, None)
        if not chunks:
            return None, 0, self._level
        if len(chunks) == 1:
            columns = chunks[0]
        else:
            columns = tuple([np.concatenate(parts) for parts in zip(*chunks)])
        count = len(columns[0])
        self.pending_messages -= count
        return columns, count, self._level

    @property
    def has_pending(self) -> bool:
        return self.pending_messages > 0


def payload_words(message: Message, n: int, cache: dict[int, tuple[object, int]]) -> int:
    """Word size of ``message``'s payload, memoised by payload identity.

    Broadcast-style algorithms send the *same* payload object over every
    incident edge; recomputing the recursive word measure per copy is the
    dominant cost of scheduling.  The cache keys by ``id`` and pins the
    payload object so the id cannot be recycled while cached; callers clear
    it once per round.
    """
    payload = message.payload
    key = id(payload)
    hit = cache.get(key)
    if hit is not None:
        return hit[1]
    # Flat scalar containers (the common case: adjacency lists, blobs of
    # identifiers) cost exactly 1 framing word + 1 word per element; skip
    # the per-element recursion of words_for_payload for those.
    if type(payload) in (tuple, list) and all(
        type(item) in (int, float, bool) for item in payload
    ):
        words = 1 + len(payload)
    else:
        words = words_for_payload(payload, n)
    cache[key] = (payload, words)
    return words


class MessageTransport:
    """The round driver's transport for ``Message`` traffic: a scheduler.

    Used by the vectorized backend's per-vertex path and the sharded
    parent (the protocol is documented on
    :func:`repro.congest.network.drive_rounds`).  The scheduler sees only
    the scenario's link component, so vertex-fault-only scenarios keep the
    clean arithmetic scheduling path.
    """

    schedule_span = True

    def __init__(
        self,
        index: GraphIndex,
        scenario: DeliveryScenario,
        horizon: int,
        tracer: Tracer,
    ):
        self.scheduler = WordScheduler(
            index, link_projection(scenario), horizon=horizon, tracer=tracer
        )
        self._words_cache: dict[int, tuple[object, int]] = {}

    @property
    def pending(self) -> int:
        return self.scheduler.pending_messages

    def schedule(self, outgoing: Sequence[Message], round_index: int) -> None:
        count = len(outgoing)
        if count == 0:
            return
        cache = self._words_cache
        cache.clear()
        scheduler = self.scheduler
        n = scheduler.index.n
        edge_lookup = scheduler.index.edge_ids
        edge_ids = np.fromiter(
            (edge_lookup[(m.sender, m.receiver)] for m in outgoing),
            dtype=np.int64,
            count=count,
        )
        words = np.fromiter(
            (payload_words(m, n, cache) for m in outgoing),
            dtype=np.int64,
            count=count,
        )
        messages = np.fromiter(outgoing, dtype=object, count=count)
        scheduler.schedule_batch((messages,), edge_ids, words, round_index)

    def deliver(self, round_index: int) -> tuple[list[Message], int, int]:
        columns, count, words_crossed = self.scheduler.deliver_batch(round_index)
        delivered = columns[0].tolist() if count else []
        return delivered, count, words_crossed

    def trace_round(self, round_index: int, delivered: list[Message]) -> None:
        self.scheduler.tracer.messages_delivered(round_index, delivered)


class BatchTransport(MessageTransport):
    """The vector layer's form: ``VectorSends`` in, dense arrays out.

    A delivery is the ``(senders, receivers, values)`` tuple of dense ids
    and payload words.
    """

    def schedule(self, sends, round_index: int) -> None:
        self.scheduler.schedule_batch(
            (sends.senders, sends.receivers, sends.values),
            sends.edge_ids,
            sends.words,
            round_index,
        )

    def deliver(
        self, round_index: int
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
        scheduler = self.scheduler
        columns, count, words_crossed = scheduler.deliver_batch(round_index)
        if not count:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty), 0, words_crossed
        tracer = scheduler.tracer
        if tracer.enabled and tracer.record_messages:
            # Pre-drop record of what crossed the wire this round, taken
            # before the stepper filters the arrays.
            tracer.arrays_delivered(round_index, *columns, scheduler.index.nodes)
        return columns, count, words_crossed

    def trace_round(self, round_index: int, delivered) -> None:
        """Nothing to add: :meth:`deliver` already recorded the arrays."""
