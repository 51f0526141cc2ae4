"""Host-speed probe: rescales measured times to a reference host speed.

The shared virtual machines this benchmark runs on change speed in phases:
measured on a 2-vCPU Xeon VM, a fixed pure-Python loop took 0.14 s in some
stretches of tens of seconds and 0.25-0.29 s in others, and per-run median
cell times of one workload moved 20-25% between back-to-back runs.  No run
length within the benchmark's time budget averages such phases out.

So every timed call is bracketed by a short fixed probe -- set
intersections and dict updates over a fixed random graph, the same kind of
interpreter work the listing code does -- and its wall time is rescaled by
``REFERENCE_S / probe time``: the seconds the call would have taken with
the host at the reference speed.  The probe is the benchmark's own code; no
change to the program under test changes it.  Raw wall times are kept in
every run record next to the rescaled ones.
"""

from __future__ import annotations

import random
import statistics
import time

# Seconds one probe sample takes at the reference speed (the 2-vCPU Xeon VM
# above in one of its fast phases).  Only ratios between commits matter;
# this constant just keeps rescaled times close to wall times.
REFERENCE_S = 0.006
SAMPLES = 6


class SpeedProbe:
    """A fixed pure-Python workload, timed to estimate the host's speed."""

    def __init__(self) -> None:
        rng = random.Random("perfbench:speed-probe")
        n, m = 300, 3000
        adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
        added = 0
        while added < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
                added += 1
        self._adjacency = [adjacency[v] for v in range(n)]

    def _sample(self) -> float:
        adjacency = self._adjacency
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for _ in range(2):
            for u, neighbours in enumerate(adjacency):
                for v in neighbours:
                    if v > u:
                        counts[u] = counts.get(u, 0) + len(neighbours & adjacency[v])
        return time.perf_counter() - start

    def measure(self) -> float:
        """Mean seconds of a few probe samples."""
        return statistics.fmean(self._sample() for _ in range(SAMPLES))


def rescale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * REFERENCE_S / ((probe_before + probe_after) / 2)
