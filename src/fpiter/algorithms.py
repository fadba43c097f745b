"""Fixed-point iteration engines with stopping criteria and trace capture.

Seven algorithm names are understood by :func:`run`:

== =============== ==========================================================
id                 update from ``x = x_n`` (``w`` is the extrapolated point)
== =============== ==========================================================
1  mann            ``x+ = psi x + (1-psi) T x``
2  inertial-mann   ``w = x + delta (x - x_prev); x+ = psi w + (1-psi) T w``
3  cq              ``y = psi x + (1-psi) T x``; then project the starting
                   point onto the two half-spaces cut from ``(x, y, x0)``
4  mimha           ``w`` as above; ``y = psi w + (1-psi) T w``;
                   ``x+ = nu u + (1-nu) y`` with a fixed anchor ``u``
5  mimva           same ``w, y``; ``x+ = nu f(x) + (1-nu) y`` with a
                   contraction ``f``
6  mmha            mimha with inertia forced off
7  mmva            mimva with inertia forced off
== =============== ==========================================================

A single run is strictly sequential; the runner itself is reentrant, so
independent runs can execute concurrently on their own inputs. Traces are
plain frozen records. Given identical configuration and inputs the numeric
content of a trace is bit-for-bit reproducible; only the wall-clock column
varies between invocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .operators import (
    Operator,
    SingularityError,
    _cq_halfspaces,
    _project_halfspace_pair,
)
from .schedules import Schedules
from .space import InnerProductSpace

__all__ = [
    "ALGORITHMS",
    "TerminalReason",
    "TraceRecord",
    "IterationTrace",
    "RunConfig",
    "mann_step",
    "inertial_mann_step",
    "cq_step",
    "mimha_step",
    "mimva_step",
    "run",
]

ALGORITHMS = ("mann", "inertial-mann", "cq", "mmha", "mimha", "mmva", "mimva")

_ANCHORED = ("mmha", "mimha")
_VISCOUS = ("mmva", "mimva")
_INERTIAL = ("inertial-mann", "mimha", "mimva")


class TerminalReason(Enum):
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERATIONS = "max_iterations"
    SINGULARITY = "singularity"


@dataclass(frozen=True)
class TraceRecord:
    """One iteration: index, error before the step, inertia used, elapsed wall time."""

    n: int
    error: float
    delta: float
    elapsed_s: float


@dataclass(frozen=True)
class IterationTrace:
    records: Tuple[TraceRecord, ...]
    terminal_reason: TerminalReason

    @property
    def iterations(self) -> int:
        return self.records[-1].n

    @property
    def final_error(self) -> float:
        return self.records[-1].error

    @property
    def errors(self) -> Tuple[float, ...]:
        return tuple(r.error for r in self.records)


@dataclass(frozen=True)
class RunConfig:
    """Stopping rule, schedules and anchor/contraction defaults for a run.

    ``error_metric`` maps a point to the scalar the stopping criterion
    tests; it is evaluated at ``x_n`` before the step, so a run that starts
    inside tolerance records exactly one entry. ``anchor_scale`` and
    ``contraction_rho`` supply the defaults ``u = anchor_scale * x_0`` and
    ``f(x) = contraction_rho * x`` when no explicit anchor or contraction
    is passed to :func:`run`. Only the inertial engines (``inertial-mann``,
    ``mimha``, ``mimva``) read the inertia rule of ``schedules``; the others
    record ``delta_n = 0`` whatever it says.
    """

    error_metric: Callable[[np.ndarray], float]
    max_iterations: int = 1000
    tolerance: float = 1e-3
    schedules: Schedules = field(default_factory=Schedules)
    anchor_scale: float = 0.9
    contraction_rho: float = 0.9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 <= self.contraction_rho < 1.0:
            raise ValueError(
                f"contraction_rho must lie in [0, 1), got {self.contraction_rho}"
            )


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _extrapolate(x, x_prev, delta_n):
    if delta_n < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta_n}")
    if delta_n == 0.0:
        # short-circuit keeps the no-inertia reductions bitwise identical
        return x
    return x + delta_n * (x - x_prev)


# The private kernels below take arrays that are already validated and check
# only what enters from outside: the operator's and the contraction's
# outputs, where non-finite values first appear. CQ calls the half-space
# kernels of ``operators``, which check only the normals and projected
# points they create, where an overflow can appear. The public step functions
# validate their array arguments once and call the same kernels, so a run
# and a sequence of public steps produce the same bits.


def _averaged(space, T, w, psi_n):
    """``psi w + (1 - psi) T w``."""
    _check_unit("psi", psi_n)
    return psi_n * w + (1.0 - psi_n) * space.check(T(w))


def _blend(nu_n, v, y):
    """``nu v + (1 - nu) y``."""
    _check_unit("nu", nu_n)
    return nu_n * v + (1.0 - nu_n) * y


def _cq(space, T, x, x0, psi_n):
    y = _averaged(space, T, x, psi_n)
    c_set, q_set = _cq_halfspaces(space, x, y, x0)
    return _project_halfspace_pair(space, c_set, q_set, x0)


def mann_step(space: InnerProductSpace, T, x, psi_n: float) -> np.ndarray:
    """Averaged operator step ``psi x + (1 - psi) T x``."""
    return _averaged(space, T, space.check(x), psi_n)


def inertial_mann_step(
    space: InnerProductSpace, T, x, x_prev, delta_n: float, psi_n: float
) -> np.ndarray:
    """Mann step applied at the extrapolated point ``x + delta (x - x_prev)``."""
    w = _extrapolate(space.check(x), space.check(x_prev), delta_n)
    return _averaged(space, T, w, psi_n)


def cq_step(space: InnerProductSpace, T, x, x0, psi_n: float) -> np.ndarray:
    """Averaged step followed by projecting the starting point.

    Builds the two half-spaces from ``(x, y, x0)`` and returns the exact
    projection of ``x0`` onto their intersection. ``psi = 1`` is accepted
    because the baseline schedule ``1/(n+1)`` starts there; the step then
    degenerates gracefully (``y = x``, first cut is the whole space).
    An empty intersection is a fatal error: it cannot occur while the
    operator has fixed points.
    """
    return _cq(space, T, space.check(x), space.check(x0), psi_n)


def mimha_step(
    space: InnerProductSpace,
    T,
    x,
    x_prev,
    u,
    delta_n: float,
    psi_n: float,
    nu_n: float,
) -> np.ndarray:
    """Inertial averaged step blended with a fixed anchor.

    ``w = x + delta (x - x_prev)``, ``y = psi w + (1-psi) T w``,
    result ``nu u + (1-nu) y``. With ``delta = 0`` this is exactly the
    anchored (Halpern-style) modified Mann step.
    """
    w = _extrapolate(space.check(x), space.check(x_prev), delta_n)
    return _blend(nu_n, space.check(u), _averaged(space, T, w, psi_n))


def mimva_step(
    space: InnerProductSpace,
    T,
    x,
    x_prev,
    f,
    delta_n: float,
    psi_n: float,
    nu_n: float,
) -> np.ndarray:
    """Inertial averaged step blended with a contraction of the current point.

    Same ``w, y`` as :func:`mimha_step`; result ``nu f(x) + (1-nu) y``.
    ``f`` must be a rho-contraction with rho in [0, 1).
    """
    x = space.check(x)
    y = _averaged(space, T, _extrapolate(x, space.check(x_prev), delta_n), psi_n)
    return _blend(nu_n, space.check(f(x)), y)


def run(
    algorithm: str,
    T: Operator,
    config: RunConfig,
    x_init,
    x_init_prev=None,
    anchor=None,
    contraction: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> IterationTrace:
    """Iterate ``algorithm`` around ``T`` until tolerance or the iteration cap.

    The error metric is evaluated at ``x_n`` before each step and every
    iteration appends one record ``(n, E_n, delta_n, elapsed_s)``; the trace
    therefore holds ``iterations + 1`` records. ``x_init_prev`` defaults to
    ``x_init`` (no momentum on the first step either way, since the inertia
    cap is zero at n = 0). ``anchor`` and ``contraction`` default to
    ``config.anchor_scale * x_init`` and ``x -> config.contraction_rho * x``.
    A :class:`SingularityError` raised by the operator ends the run with
    the corresponding terminal reason instead of propagating. Arrays are
    validated once, where they enter the iteration: the inputs on entry,
    and every operator and contraction output, so a non-finite value
    there raises ``ValueError``.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    space = T.space
    x = space.check(x_init)
    x_prev = x if x_init_prev is None else space.check(x_init_prev)
    x0 = x
    u = space.check(anchor) if anchor is not None else config.anchor_scale * x
    if contraction is None:
        rho = config.contraction_rho
        contraction = lambda p: rho * p  # noqa: E731

    sched = config.schedules

    records = []
    reason = TerminalReason.MAX_ITERATIONS
    start = time.perf_counter()
    for n in range(config.max_iterations + 1):
        err = config.error_metric(x)
        delta = sched.delta(n, space._norm(x - x_prev)) if algorithm in _INERTIAL else 0.0
        records.append(TraceRecord(n, float(err), delta, time.perf_counter() - start))
        if err < config.tolerance:
            reason = TerminalReason.TOLERANCE_MET
            break
        if n == config.max_iterations:
            reason = TerminalReason.MAX_ITERATIONS
            break
        psi_n = sched.psi_at(n)
        try:
            if algorithm == "cq":
                x_next = _cq(space, T, x, x0, psi_n)
            else:
                x_next = _averaged(space, T, _extrapolate(x, x_prev, delta), psi_n)
                if algorithm in _ANCHORED:
                    x_next = _blend(sched.nu_at(n), u, x_next)
                elif algorithm in _VISCOUS:
                    x_next = _blend(sched.nu_at(n), space.check(contraction(x)), x_next)
        except SingularityError:
            reason = TerminalReason.SINGULARITY
            break
        x_prev, x = x, x_next
    return IterationTrace(records=tuple(records), terminal_reason=reason)
