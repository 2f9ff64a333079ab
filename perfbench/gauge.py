"""How fast the host runs, from a fixed reference computation.

The benchmark's host is shared with other tenants, and its speed drifts:
on the 2-vCPU machine this benchmark was built on, identical passes ran
a third slower a few minutes later, and the CPU time moved with the
wall time.  No choice of statistic over one run removes a drift that
lasts longer than the run.  So every untraced request is followed by
one timing of :func:`reference`, a small fixed mix of what the program
spends its time on (Python loops, NumPy distance blocks with partial
sorts, a compiled k-d tree query).  It belongs to the benchmark, so no
change to ``src/`` changes its work; only the host changes its time.
``tracing.request_summary`` reduces these samples exactly as it reduces
the request latencies, and the reported timings are scaled to the host
speed at which one reference takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# One reference's time on an unloaded moment of the machine above.
# Changing it rescales every reported timing.
NOMINAL_S = 0.003

_POINTS = np.random.default_rng(0).random((2000, 3))
_QUERIES = _POINTS[:100]


def reference() -> int:
    """The fixed computation; about ``NOMINAL_S`` on the host above."""
    block = ((_QUERIES[:, None, :] - _POINTS[None, :400, :]) ** 2).sum(axis=-1)
    np.argpartition(block, 8, axis=1)
    cKDTree(_POINTS).query(_QUERIES, k=8)
    total = 0
    for i in range(5000):
        total += i * i
    return total


class Gauge:
    """Reference timings of one pass, one after each request.

    The workload leaves their sum out of the pass's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)


class NullGauge(Gauge):
    """Takes no samples: a traced pass is not scaled."""

    def sample(self) -> None:
        pass


NULL_GAUGE = NullGauge()
