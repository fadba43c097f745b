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
independent runs can execute concurrently on their own inputs. A trace is
frozen and stores its iterations as columns. Given identical configuration
and inputs the numeric content of a trace is bit-for-bit reproducible; only
the wall-clock column varies between invocations.
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
from .space import InnerProductSpace, _aligned_empty, _index

__all__ = [
    "ALGORITHMS",
    "TerminalReason",
    "TraceRecord",
    "IterationTrace",
    "RunConfig",
    "mann_step",
    "mimha_step",
    "mimva_step",
    "run",
]

# name -> (inertial?, blend, cq?); the blend term is None, "anchor" (the
# fixed point u) or "contraction" (f(x_n))
_ENGINES = {
    "mann": (False, None, False),
    "inertial-mann": (True, None, False),
    "cq": (False, None, True),
    "mmha": (False, "anchor", False),
    "mimha": (True, "anchor", False),
    "mmva": (False, "contraction", False),
    "mimva": (True, "contraction", False),
}
ALGORITHMS = tuple(_ENGINES)


class TerminalReason(Enum):
    """Why a run stopped: tolerance met, cap reached, or a singular operator."""

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
    """A finished run, stored as one column per trace field.

    Entry ``n`` of ``errors``, ``deltas`` and ``elapsed`` belongs to
    iteration ``n`` (``E_n``, ``delta_n`` and the wall time since the run
    started), so each column holds ``iterations + 1`` entries.
    """

    errors: Tuple[float, ...]
    deltas: Tuple[float, ...]
    elapsed: Tuple[float, ...]
    terminal_reason: TerminalReason

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        """The per-iteration rows ``TraceRecord(n, E_n, delta_n, elapsed_s)``."""
        return tuple(
            TraceRecord(n, error, delta, elapsed_s)
            for n, (error, delta, elapsed_s) in enumerate(
                zip(self.errors, self.deltas, self.elapsed)
            )
        )

    @property
    def iterations(self) -> int:
        """Steps taken: one less than the entries of each column."""
        return len(self.errors) - 1

    @property
    def final_error(self) -> float:
        """``E_n`` at the last iterate."""
        return self.errors[-1]


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
    record ``delta_n = 0`` whatever it says. A field out of its range raises
    ``ValueError`` here. The metric need not check its point; see :func:`run`.
    """

    error_metric: Callable[[np.ndarray], float]
    max_iterations: int = 1000  # an integer (``operator.index``), at least 1
    tolerance: float = 1e-3
    schedules: Schedules = field(default_factory=Schedules)
    anchor_scale: float = 0.9
    contraction_rho: float = 0.9

    def __post_init__(self):
        _index(self.max_iterations, "max_iterations")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not np.isfinite(self.anchor_scale):
            raise ValueError(f"anchor_scale must be finite, got {self.anchor_scale}")
        if not 0.0 <= self.contraction_rho < 1.0:
            raise ValueError(
                f"contraction_rho must lie in [0, 1), got {self.contraction_rho}"
            )


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


# The kernels below take validated arrays (the rule is stated in ``run``),
# and the public steps call them too, so both produce the same bits. ``out``
# (the result) and ``scratch`` (the other product) are ``run``'s workspace
# vectors or None; ``out`` may be the ``diff`` or ``y`` argument and
# ``scratch`` the ``w`` or ``v`` one: each is read before it is overwritten.


def _extrapolate(x, x_prev, delta_n, diff=None, out=None):
    """``x + delta (x - x_prev)``; ``diff`` is ``x - x_prev`` if already formed."""
    if not delta_n >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta_n}")
    if delta_n == 0.0:
        # short-circuit keeps the no-inertia reductions bitwise identical
        return x
    if diff is None:
        diff = np.subtract(x, x_prev, out)
    return np.add(x, np.multiply(diff, delta_n, out), out)


def _blend(t, v, y, out=None, scratch=None, name="nu"):
    """``t v + (1 - t) y``."""
    _check_unit(name, t)
    # y may sit in out, or be v itself (T(w) may be w, see Operator): scale it
    # before t v overwrites v's vector (scratch); the sum keeps its operand order
    y_part = np.multiply(y, 1.0 - t, out)
    return np.add(np.multiply(v, t, scratch), y_part, out)


def _averaged(space, T, w, psi_n, out=None, scratch=None):
    """``psi w + (1 - psi) T w``."""
    return _blend(psi_n, w, space.check(T(w, out)), out, scratch, "psi")


def _cq(space, T, x, x0, x0x0, psi_n, out=None, y_buf=None, q_buf=None, scratch=None):
    # psi = 1 is accepted: the 1/(n+1) schedule starts there (y = x, the first
    # cut is the whole space); the two cuts always meet while T has a fixed point.
    # y_buf holds y, then the first cut normal; q_buf the second; x0x0 is <x0, x0>
    y = _averaged(space, T, x, psi_n, y_buf, scratch)
    cuts = _cq_halfspaces(space, x, y, x0, y_buf, q_buf)
    return _project_halfspace_pair(space, *cuts, x0, x0x0, out, scratch)


def mann_step(space: InnerProductSpace, T, x, psi_n: float) -> np.ndarray:
    """Averaged operator step ``psi x + (1 - psi) T x``."""
    return _averaged(space, T, space.check(x), psi_n)


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
    return mimva_step(space, T, x, x_prev, lambda p: u, delta_n, psi_n, nu_n)


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

    Returns the :class:`IterationTrace` of ``E_n`` (the metric at ``x_n``,
    before step ``n``), ``delta_n`` and the elapsed time. ``x_init_prev``
    defaults to ``x_init`` (no momentum on the first step either way: the
    inertia cap is zero at n = 0); ``anchor`` and ``contraction`` default to
    ``config.anchor_scale * x_init`` and ``x -> config.contraction_rho * x``.
    The anchor engines blend with the constant map ``p -> u`` (Halpern's
    iteration is the viscosity iteration with ``f = u``). A
    :class:`SingularityError` raised by the operator ends the run with that
    terminal reason. An unknown ``algorithm`` raises ``ValueError``.

    **Validation.** ``run`` is the one place that validates inside a run.
    It checks the caller's arrays on entry, every operator output ``T(w)``
    and every output of a caller's contraction (cq also the point it
    projects to), and a non-finite or wrongly sized value there raises
    ``ValueError``. So its callbacks (``T``, the metric, a contraction) get
    points formed from validated arrays and need not check them, and the
    experiment specs iterate unchecked kernels. A non-finite value that a
    callback makes ends the run in ``ValueError`` at the check of the next
    operator output.

    **Workspace.** The run allocates its vectors once, 64-byte aligned (see
    :mod:`fpiter.space`), and only what the engine reads: two iterate slots
    and a work vector always, the default anchor for the anchor engines, and
    CQ's second cut normal and product scratch. ``x_{n+1}`` goes into slot
    ``n % 2``, over ``x_{n-1}``, which no step reads once ``x_n - x_{n-1}``
    is formed in the work vector. That vector then holds ``w``, one product
    of each combination and the default contraction's ``rho x_n`` (for CQ:
    ``y``, then the first cut normal). ``T`` is lent the vector that will
    receive the step's result, by the contract of
    :class:`~fpiter.operators.Operator`. So only an operator that returns
    another array and a caller's contraction allocate in the loop. The
    caller's ``x_init``, ``x_init_prev`` and ``anchor`` are only read, never
    written or copied. A point handed to a callback is a workspace vector
    that later iterations overwrite: a callback must copy any point it keeps.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    inertial, blend, cq = _ENGINES[algorithm]
    sched = config.schedules
    adaptive = sched.delta_mode == "adaptive"  # only the cap reads the norm
    space = T.space
    x = space.check(x_init)
    x_prev = x if x_init_prev is None else space.check(x_init_prev)
    x0 = x
    u = None if anchor is None else space.check(anchor)

    def vector():
        return _aligned_empty(space.size)

    work = vector()  # allocated first: a wide run then faults in fewer fresh pages
    if blend == "anchor":
        if u is None:
            u = np.multiply(config.anchor_scale, x, vector())
        v = lambda p: u  # noqa: E731
    elif blend == "contraction":
        if contraction is None:
            # rho x is finite for a finite x and 0 <= rho < 1: no check
            rho = config.contraction_rho
            v = lambda p: np.multiply(rho, p, work)  # noqa: E731
        else:
            v = lambda p: space.check(contraction(p))  # noqa: E731
    slots = (vector(), vector())
    q_buf, scratch = (vector(), vector()) if cq else (None, None)
    x0x0 = space._inner(x0, x0) if cq else None

    metric = config.error_metric
    tolerance = config.tolerance
    last = config.max_iterations
    clock = time.perf_counter

    errors, deltas, elapsed = [], [], []
    reason = TerminalReason.MAX_ITERATIONS
    delta = 0.0
    start = clock()
    for n in range(last + 1):
        err = float(metric(x))
        if inertial:
            # one difference serves the inertia cap and the extrapolation
            diff = np.subtract(x, x_prev, work)
            delta = sched.delta(n, space._norm(diff) if adaptive else 0.0)
        errors.append(err)
        deltas.append(delta)
        elapsed.append(clock() - start)
        if err < tolerance:
            reason = TerminalReason.TOLERANCE_MET
            break
        if n == last:
            break
        psi_n = sched.psi(n)
        try:
            out = slots[n % 2]
            if cq:
                x_next = _cq(space, T, x, x0, x0x0, psi_n, out, work, q_buf, scratch)
            else:
                w = _extrapolate(x, x_prev, delta, diff, work) if inertial else x
                x_next = _averaged(space, T, w, psi_n, out, work)
                if blend:
                    x_next = _blend(sched.nu(n), v(x), x_next, out, work)
        except SingularityError:
            reason = TerminalReason.SINGULARITY
            break
        x_prev, x = x, x_next
    return IterationTrace(tuple(errors), tuple(deltas), tuple(elapsed), reason)
