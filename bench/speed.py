"""Reference kernels that measure how fast the host runs at the moment.

The benchmark's bounds were set on a shared host whose speed drifts by
15-40% over minutes. CPU time drifts with wall time there, so the drift
is contention the guest cannot see, not stolen time, and a longer run
does not average it away. Each suite is therefore bracketed by a fixed
kernel that does the same kind of work as the workload but does not use
fpiter: many numpy calls on short vectors (``narrow``) or few calls on
wide ones (``wide``). A suite's times are multiplied by its ``scale``,
the kernel's reference time over its median time around the suite,
which reports them at the host speed the reference was recorded at.
Set-up times are brought to reference speed the same way by ``startup``,
a fresh interpreter that imports numpy, timed just before each set-up.
A change to fpiter moves the suite's times and leaves the kernel's alone.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

# median seconds of one kernel call on the host the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4); any fixed value would do,
# since comparisons divide it out
REFERENCE_S = {"narrow": 0.0400, "wide": 0.0450, "startup": 0.1000}
REPEATS = 3  # kernel calls before a suite and again after it

WIDE_NODES = 32768


def narrow() -> float:
    """A Weiszfeld-type iteration in R^3 with a trace record per step."""
    points = np.array([[0.1, 0.9, 0.4], [0.8, 0.2, 0.7], [0.5, 0.5, 0.1],
                       [0.3, 0.6, 0.9], [0.9, 0.8, 0.3]])
    x = np.array([0.3, 0.2, 0.1])
    records = []
    start = time.perf_counter()
    for n in range(2500):
        d = points - x
        r = np.sqrt((d * d).sum(axis=1))
        w = 1.0 / np.maximum(r, 1e-12)
        y = (w[:, None] * points).sum(axis=0) / w.sum()
        if not np.isfinite(y).all():
            raise FloatingPointError("narrow kernel left the finite reals")
        x = 0.5 * x + 0.5 * y
        records.append((n, float(np.dot(x, x)), time.perf_counter() - start))
    return time.perf_counter() - start


def wide() -> float:
    """Relaxed steps towards a unit ball on a periodic grid of 32768 nodes."""
    nodes = np.linspace(0.0, 2.0 * np.pi, WIDE_NODES, endpoint=False)
    x = np.cos(nodes)
    start = time.perf_counter()
    for n in range(70):
        y = x - 0.1 * np.sin(nodes * (1 + n % 3))
        x = 0.9 * x + 0.1 * y / np.sqrt(np.dot(y, y))
        if not np.isfinite(x).all():
            raise FloatingPointError("wide kernel left the finite reals")
        float(np.max(np.abs(x - y)))
    return time.perf_counter() - start


def startup(env: Optional[Dict[str, str]] = None) -> float:
    """Seconds from starting a fresh interpreter that imports numpy to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - start


KERNELS = {"narrow": narrow, "wide": wide}


def sample(kind: str, repeats: int = REPEATS) -> List[float]:
    """Seconds taken by each of ``repeats`` calls of the kernel ``kind``."""
    return [KERNELS[kind]() for _ in range(repeats)]


def scale(kind: str, times: Sequence[float]) -> float:
    """Factor that brings times measured next to ``times`` to reference speed."""
    return REFERENCE_S[kind] / statistics.median(times)
