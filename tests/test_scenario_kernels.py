"""Scenario kernels and the prefix-sum scheduler: agreement properties.

Two contracts pin the vectorized scenario layer:

1. **Kernel/scalar agreement** — for every registered scenario (and for
   random :class:`ComposedScenario` trees), the batch ``transmit_mask``
   must agree call-for-call with the scalar ``transmits``, because the
   fast backends consume the mask while the reference simulator replays
   the scalar form.
2. **Word-accounting equivalence** — the
   :class:`~repro.engine.delivery.WordScheduler`'s prefix-sum completion
   computation must reproduce the reference edge-by-edge word queues
   exactly: same delivery round per message, same words-per-round levels,
   under every scenario, including FIFO contention and batches mixing
   deeply queued and idle edges (the regression shape for the window
   cursor: an edge whose start lies beyond the scan window must keep its
   start culling).
"""

from collections import defaultdict, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.message import Message
from repro.engine.delivery import GraphIndex, WordScheduler
from repro.engine.scenarios import (
    AdversarialDelayScenario,
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    DeliveryScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    build_composed,
    scenario_registry,
)

# -- strategies --------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31)


@st.composite
def leaf_scenarios(draw):
    kind = draw(st.sampled_from(
        ["clean", "link-drop", "adversarial-delay", "bursty", "hetero"]
    ))
    seed = draw(seeds)
    if kind == "clean":
        return CleanSynchronous()
    if kind == "link-drop":
        return LinkDropScenario(
            draw(st.floats(min_value=0.0, max_value=0.9)), seed=seed
        )
    if kind == "adversarial-delay":
        return AdversarialDelayScenario(
            draw(st.integers(min_value=2, max_value=9)), seed=seed
        )
    if kind == "bursty":
        length = draw(st.integers(min_value=1, max_value=4))
        return BurstyFaultScenario(
            draw(st.floats(min_value=0.0, max_value=0.95)),
            burst_length=length,
            period=draw(st.integers(min_value=length + 1, max_value=14)),
            seed=seed,
        )
    rates = draw(
        st.lists(
            st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.2]),
            min_size=1, max_size=4,
        )
    )
    return HeterogeneousBandwidthScenario(tuple(rates), seed=seed)


@st.composite
def composed_scenarios(draw, depth: int = 1):
    children = st.deferred(
        lambda: leaf_scenarios()
        if depth == 0
        else st.one_of(leaf_scenarios(), composed_scenarios(depth=depth - 1))
    )
    parts = draw(st.lists(children, min_size=1, max_size=3))
    if draw(st.booleans()):
        return ComposedScenario(parts, mode="overlay")
    durations = [
        draw(st.integers(min_value=1, max_value=25)) for _ in parts[:-1]
    ]
    return ComposedScenario(parts, mode="sequential", durations=durations)


class TransmitsOnly(DeliveryScenario):
    """A scenario with the scalar decision only: the base mask replays it."""

    def __init__(self, inner: DeliveryScenario):
        self.inner = inner

    def _bind_kernel(self, edges):
        self.inner.bind_edges(edges)

    def transmits(self, edge, round_index):
        return self.inner.transmits(edge, round_index)

    def describe(self):
        return f"TransmitsOnly({self.inner.describe()})"


kernel_scenarios = st.one_of(leaf_scenarios(), composed_scenarios())
any_scenario = st.one_of(
    kernel_scenarios, kernel_scenarios.map(TransmitsOnly)
)

EDGES = (
    [(i, (i * 7 + 3) % 23) for i in range(20)]
    + [("a", "b"), ("b", "a"), ((1, 2), (3, 4))]
)


# -- 1. kernel/scalar agreement ----------------------------------------------


@given(
    scenario=any_scenario,
    first_round=st.integers(min_value=0, max_value=5_000),
    num_rounds=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_transmit_mask_agrees_with_scalar_transmits(
    scenario, first_round, num_rounds, data
):
    scenario.bind_edges(EDGES)
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(EDGES) - 1),
            min_size=1, max_size=8,
        )
    )
    mask = scenario.transmit_mask(
        np.asarray(ids, dtype=np.int64), first_round, num_rounds
    )
    assert mask.shape == (len(ids), num_rounds) and mask.dtype == bool
    for row, edge_id in enumerate(ids):
        edge = EDGES[edge_id]
        for column in range(num_rounds):
            assert mask[row, column] == scenario.transmits(
                edge, first_round + column
            ), (scenario.describe(), edge, first_round + column)


def test_every_registered_scenario_declares_a_working_mask():
    """Default constructions of all registered scenarios support the batch API."""
    for name in scenario_registry.names():
        if name == "composed":
            scenario = build_composed(
                op="overlay", children=["link-drop", "bursty"]
            )
        else:
            scenario = scenario_registry.get(name)()
        scenario.bind_edges(EDGES)
        ids = np.arange(4, dtype=np.int64)
        mask = scenario.transmit_mask(ids, 3, 17)
        expected = np.array(
            [
                [scenario.transmits(EDGES[i], 3 + j) for j in range(17)]
                for i in range(4)
            ]
        )
        assert (mask == expected).all(), name


def test_default_mask_replays_transmits():
    """A transmits-only user scenario gets a correct (looped) mask for free."""

    class EveryThird(DeliveryScenario):
        def transmits(self, edge, round_index):
            return round_index % 3 != 0

    scenario = EveryThird()
    scenario.bind_edges(EDGES)
    mask = scenario.transmit_mask(np.array([0, 1]), 0, 9)
    assert (mask == np.array([[False, True, True] * 3] * 2)).all()


def test_unbound_default_mask_raises():
    class Custom(DeliveryScenario):
        pass

    with pytest.raises(RuntimeError, match="bind_edges"):
        Custom().transmit_mask(np.array([0]), 0, 1)


# -- 2. word-accounting equivalence ------------------------------------------


def _reference_delivery(plan, scenario, horizon):
    """Faithful per-edge word queues (the CongestNetwork discipline).

    ``plan`` is a list of (message, words, round).  Returns the delivery
    round per message id and the words-crossed level per round.
    """
    queues = defaultdict(deque)
    delivered = {}
    levels = {}
    for round_index in range(horizon):
        for message, words, enqueue_round in plan:
            if enqueue_round == round_index:
                edge = (message.sender, message.receiver)
                for _ in range(words - 1):
                    queues[edge].append(None)
                queues[edge].append(message)
        crossed = 0
        for edge, queue in list(queues.items()):
            if not queue:
                continue
            if not scenario.transmits(edge, round_index):
                continue
            item = queue.popleft()
            crossed += 1
            if isinstance(item, Message):
                delivered[id(item)] = round_index
        levels[round_index] = crossed
        if not any(queues.values()) and round_index > max(
            (r for _, _, r in plan), default=0
        ):
            break
    return delivered, levels


def _schedule(scheduler, batch, round_index):
    """Enqueue ``(message, words)`` rows with a message-object column."""
    column = np.empty(len(batch), dtype=object)
    column[:] = [message for message, _ in batch]
    edge_ids = np.array(
        [scheduler.index.edge_ids[(m.sender, m.receiver)] for m, _ in batch],
        dtype=np.int64,
    )
    words = np.array([w for _, w in batch], dtype=np.int64)
    scheduler.schedule_batch((column,), edge_ids, words, round_index)


def _run_scheduler(plan, scenario, index, horizon):
    scheduler = WordScheduler(index, scenario, horizon=horizon)
    by_round = defaultdict(list)
    for message, words, enqueue_round in plan:
        by_round[enqueue_round].append((message, words))
    delivered = {}
    levels = {}
    last = max(by_round, default=0)
    for round_index in range(horizon):
        _schedule(scheduler, by_round.get(round_index, []), round_index)
        columns, count, level = scheduler.deliver_batch(round_index)
        levels[round_index] = level
        for message in columns[0] if count else ():
            delivered[id(message)] = round_index
        if round_index > last and not scheduler.has_pending:
            break
    return delivered, levels


@given(scenario=any_scenario, data=st.data())
@settings(max_examples=40, deadline=None)
def test_scheduler_matches_reference_word_queues(scenario, data):
    graph = nx.erdos_renyi_graph(8, 0.5, seed=3)
    index = GraphIndex(graph)
    edges = list(index.edge_ids)
    plan = []
    for round_index in range(data.draw(st.integers(min_value=1, max_value=6))):
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            u, v = edges[
                data.draw(st.integers(min_value=0, max_value=len(edges) - 1))
            ]
            words = data.draw(st.integers(min_value=1, max_value=9))
            plan.append((Message(u, v, "t", 0), words, round_index))
    horizon = 600
    got, got_levels = _run_scheduler(plan, scenario, index, horizon)
    want, want_levels = _reference_delivery(plan, scenario, horizon)
    assert got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]


def test_scheduler_window_cursor_keeps_far_starts_culled():
    """Regression: a batch mixing a deeply queued edge with idle edges.

    The deeply queued edge's transfers start far beyond the first scan
    window; the window cursor must not let crossings before that start
    count toward its words (the bug made faulty runs complete *earlier*
    than clean ones).
    """
    graph = nx.path_graph(6)
    index = GraphIndex(graph)
    scenario = LinkDropScenario(0.1, seed=7)
    plan = []
    # Pile 60 words onto one edge in round 0, so later transfers on that
    # edge start around round ~66 while other edges are idle.
    for _ in range(10):
        plan.append((Message(0, 1, "t", 0), 6, 0))
    # Round 4: one more transfer on the hot edge plus fresh idle edges —
    # the mixed-start batch of the original failure.
    plan.append((Message(0, 1, "t", 0), 4, 4))
    plan.append((Message(2, 3, "t", 0), 4, 4))
    plan.append((Message(4, 5, "t", 0), 1, 4))
    got, got_levels = _run_scheduler(plan, scenario, index, 800)
    want, want_levels = _reference_delivery(plan, scenario, 800)
    assert got == want
    for round_index in want_levels:
        assert got_levels.get(round_index, 0) == want_levels[round_index]


def test_faulty_completion_never_precedes_clean():
    """Sanity: under any scenario a transfer completes no earlier than clean."""
    graph = nx.path_graph(4)
    index = GraphIndex(graph)
    plan = [(Message(0, 1, "blob", 0), 40, 0), (Message(2, 3, "blob", 0), 17, 2)]
    clean, _ = _run_scheduler(plan, CleanSynchronous(), index, 800)
    for scenario in [
        LinkDropScenario(0.4, seed=1),
        BurstyFaultScenario(0.5, 3, 8, seed=2),
        HeterogeneousBandwidthScenario((0.5, 0.25), seed=3),
        AdversarialDelayScenario(3, seed=4),
    ]:
        faulty, _ = _run_scheduler(plan, scenario, index, 800)
        for key, clean_round in clean.items():
            assert faulty[key] >= clean_round, scenario.describe()


def test_blocked_edge_parks_at_horizon_in_bulk_path():
    """A never-transmitting kernel scenario leaves transfers pending forever."""

    class Blackout(CleanSynchronous):
        is_clean = False

        def transmits(self, edge, round_index):
            return False

        def transmit_mask(self, edge_ids, first_round, num_rounds):
            return np.zeros((np.asarray(edge_ids).size, num_rounds), dtype=bool)

    graph = nx.path_graph(3)
    index = GraphIndex(graph)
    scheduler = WordScheduler(index, Blackout(), horizon=50)
    _schedule(
        scheduler, [(Message(0, 1, "t", 0), 3), (Message(0, 1, "t", 0), 2)], 0
    )
    for round_index in range(50):
        columns, count, level = scheduler.deliver_batch(round_index)
        assert columns is None and count == 0 and level == 0
    assert scheduler.has_pending


# -- 3. composed round-trip through the spec JSON form -----------------------


@given(scenario=composed_scenarios(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_composed_spec_params_round_trip(scenario, data):
    params = scenario.spec_params()
    rebuilt = build_composed(**params)
    scenario.bind_edges(EDGES)
    rebuilt.bind_edges(EDGES)
    ids = np.arange(len(EDGES), dtype=np.int64)
    first = data.draw(st.integers(min_value=0, max_value=200))
    assert (
        scenario.transmit_mask(ids, first, 40)
        == rebuilt.transmit_mask(ids, first, 40)
    ).all()
