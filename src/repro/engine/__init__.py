"""Pluggable high-performance execution engine for CONGEST simulation.

The engine separates *what a distributed algorithm does* (the per-vertex
:class:`~repro.congest.vertex.VertexAlgorithm` code) from *how the rounds
are executed*:

* :mod:`repro.engine.backend` -- the :class:`Backend` strategy interface.
  The built-in backends share one round driver,
  :func:`repro.congest.network.drive_rounds`, and differ only in the
  stepper and transport they plug into it.
* :mod:`repro.engine.registry` -- open backend / scenario registries:
  ``@register_backend`` and ``@register_scenario`` make new implementations
  selectable by name everywhere without editing library internals.
* :mod:`repro.engine.reference` -- wraps the faithful edge-by-edge
  :class:`~repro.congest.network.CongestNetwork`; the semantic ground truth.
* :mod:`repro.engine.vectorized` -- batch delivery over numpy edge
  occupancy; ~10-100x faster on fragmentation-heavy workloads.
* :mod:`repro.engine.vector` -- the vectorized per-vertex layer: a
  :class:`VectorAlgorithm` steps *all* vertices in one numpy ``on_round``
  call, eliminating the Python per-vertex loop entirely on the vectorized
  backend while still running per-vertex (via its ``per_vertex`` twin) on
  the reference and sharded backends.
* :mod:`repro.engine.sharded` -- vertex-partitioned execution across forked
  worker processes with per-round barriers; each round's traffic crosses
  each worker's pipe as one pickled columnar batch per direction.
* :mod:`repro.engine.scenarios` -- pluggable, composable delivery models:
  clean synchronous, per-round link drops, adversarial bounded delay,
  correlated bursty outages, per-edge heterogeneous bandwidth, and the
  :class:`ComposedScenario` overlay/sequential combinator (JSON-serialisable
  via :func:`build_composed`).  Every built-in ships a batch
  ``transmit_mask`` kernel, so the fast backends schedule faulty scenarios
  with prefix sums instead of per-round decision replay.
* :mod:`repro.engine.runner` -- :func:`run_algorithm`, the single-execution
  compatibility shim; declarative sweeps and grids live one layer up in
  :mod:`repro.experiments`.

All backends are semantically equivalent: same outputs, same round counts,
same message/word accounting, under every scenario.
"""

from repro.engine.backend import Backend
from repro.engine.reference import ReferenceBackend
from repro.engine.registry import (
    available_backends,
    available_scenarios,
    backend_registry,
    register_backend,
    register_scenario,
    scenario_registry,
)
from repro.engine.runner import (
    BACKENDS,
    resolve_backend,
    run_algorithm,
)
from repro.engine.scenarios import (
    SCENARIOS,
    AdversarialDelayScenario,
    BurstyFaultScenario,
    CleanSynchronous,
    ComposedScenario,
    DeliveryScenario,
    HeterogeneousBandwidthScenario,
    LinkDropScenario,
    RoundStats,
    build_composed,
    resolve_scenario,
)
from repro.engine.sharded import ShardedBackend
from repro.engine.vector import (
    VectorAlgorithm,
    VectorInbox,
    VectorSends,
    VectorTopology,
    as_vertex_factory,
    is_vector_algorithm,
    run_vector_algorithm,
)
from repro.engine.vectorized import VectorizedBackend

__all__ = [
    "VectorAlgorithm",
    "VectorInbox",
    "VectorSends",
    "VectorTopology",
    "as_vertex_factory",
    "is_vector_algorithm",
    "run_vector_algorithm",
    "Backend",
    "BACKENDS",
    "ReferenceBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "available_backends",
    "available_scenarios",
    "backend_registry",
    "scenario_registry",
    "register_backend",
    "register_scenario",
    "resolve_backend",
    "run_algorithm",
    "DeliveryScenario",
    "CleanSynchronous",
    "LinkDropScenario",
    "AdversarialDelayScenario",
    "BurstyFaultScenario",
    "HeterogeneousBandwidthScenario",
    "ComposedScenario",
    "RoundStats",
    "SCENARIOS",
    "build_composed",
    "resolve_scenario",
]
