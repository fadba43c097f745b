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

Every engine but cq is one step, the private kernel ``_step``, with the
scalars ``(delta_n, psi_n, nu_n)`` and a blend map ``f``: extrapolate to
``w``, average to ``y``, blend to ``nu f(x) + (1-nu) y``. The Mann engines
are ``nu_n = 0``, the ``mm*`` engines ``delta_n = 0`` and the Halpern
engines ``f = u``. ``run``, the public steps and cq's ``y`` all call it.

A single run is strictly sequential; the runner itself is reentrant, so
independent runs can execute concurrently on their own inputs, and may
share a ``Schedules``, whose memos take concurrent misses. A trace is
frozen and stores its iterations as columns. Given identical configuration
and inputs the numeric content of a trace is bit-for-bit reproducible; only
the wall-clock column varies between invocations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .operators import (
    Operator,
    SingularityError,
    _cq_block,
    _cq_halfspaces,
    _project_halfspace_pair,
)
from .schedules import Schedules
from .space import _FP_ERRORS, InnerProductSpace, _aligned_empty, _choice, _index

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

# name -> (inertial?, blend); the blend term is None (nu_n = 0), "anchor"
# (the fixed point u) or "contraction" (f(x_n)). cq alone has its own step
_ENGINES = {
    "mann": (False, None),
    "inertial-mann": (True, None),
    "cq": (False, None),
    "mmha": (False, "anchor"),
    "mimha": (True, "anchor"),
    "mmva": (False, "contraction"),
    "mimva": (True, "contraction"),
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
        _index(self.max_iterations, "max_iterations", 1)
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not np.isfinite(self.anchor_scale):
            raise ValueError(f"anchor_scale must be finite, got {self.anchor_scale}")
        if not 0.0 <= self.contraction_rho < 1.0:
            raise ValueError(
                f"contraction_rho must lie in [0, 1), got {self.contraction_rho}"
            )


# The kernels below take validated arrays (the rule is stated in ``run``),
# and the public steps call them too, so both produce the same bits. ``out``
# (the result) and ``scratch`` (``w`` and the other product) are ``run``'s
# workspace vectors or None; ``scratch`` may hold ``diff``, and ``_blend``'s
# ``out`` may be its ``y`` argument and ``scratch`` its ``v`` one: each is
# read before it is overwritten.
#
# ``reg`` is the coefficient register, a 0-d float64 array: each scalar of a
# step's products is written into it (``reg[()] = t``) just before the one
# product that reads it, so numpy multiplies array by array, and one register
# serves every product in turn. On a 3-vector (numpy 2.4, a 2-vCPU x86 host)
# ``np.multiply(x, t, out)`` with a Python float takes about 510-810 ns, the
# register write plus the product 370-505 ns; an ``np.float64`` (510-620 ns),
# a ``(1,)`` array (670-1,060 ns) or a fresh ``np.array(t)`` (630-735 ns)
# gains nothing. The products are the same IEEE ones, so no bit moves.
# ``run`` owns one register per run (a module one would make runs share it),
# and ``reg=None`` makes a fresh one, so the public steps and ``run`` take
# one path. Reuse order: the extrapolation reads ``delta_n`` before the psi
# blend writes, and ``f(x)``, an argument of the nu blend, is formed before
# that blend writes. The default contraction's ``rho`` is a 0-d array of its
# own, made once per run.


def _blend(t, v, y, reg, out=None, scratch=None, name="nu"):
    """``t v + (1 - t) y``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {t}")
    # y may sit in out, or be v itself (T(w) may be w, see Operator): scale it
    # before t v overwrites v's vector (scratch); the sum keeps its operand order
    reg[()] = 1.0 - t
    y_part = np.multiply(y, reg, out)
    reg[()] = t
    return np.add(np.multiply(v, reg, scratch), y_part, out)


def _step(
    space, T, x, x_prev, delta_n, psi_n, nu_n, f, diff=None, out=None, scratch=None,
    reg=None,
):
    """The step of every engine but cq: ``nu f(x) + (1 - nu) y``.

    ``w = x + delta (x - x_prev)`` and ``y = psi w + (1 - psi) T w``, with
    ``T(w)`` checked; ``diff`` is ``x - x_prev`` if already formed, and
    ``f`` returns a validated point. The engines differ only in these
    arguments: the Mann engines have ``nu_n = 0``, the ``mm*`` engines
    ``delta_n = 0`` and the Halpern engines ``f = u``. A zero ``delta_n``
    makes ``w`` the array ``x`` itself, which keeps the zero-inertia
    reductions bitwise identical. A zero ``nu_n`` returns ``y`` without
    calling ``f``, so neither ``f(x)`` nor its check runs, and a ``-0.0``
    coordinate of ``y`` stays ``-0.0`` where the blend ``0 f(x) + y`` would
    give ``0.0``. ``reg`` is the coefficient register (None: a fresh one).
    """
    if reg is None:
        reg = np.empty(())
    w = x
    if delta_n != 0.0:
        if not delta_n > 0.0:
            raise ValueError(f"delta must be nonnegative, got {delta_n}")
        if diff is None:
            diff = np.subtract(x, x_prev, scratch)
        reg[()] = delta_n
        w = np.add(x, np.multiply(diff, reg, scratch), scratch)
    y = _blend(psi_n, w, space.check(T(w, out)), reg, out, scratch, "psi")
    return y if nu_n == 0.0 else _blend(nu_n, f(x), y, reg, out, scratch)


def _cq(space, T, x0, x0x0, psi_n, cut, scratch=None, reg=None):
    # one CQ step from x_n, the third row of ``cut`` (see _cq_block), into
    # that row: y and then the first cut normal go into its first row, and
    # x_{n+1} over x_n, which only the cut scalars read. psi = 1 is accepted:
    # the 1/(n+1) schedule starts there (y = x, the first cut is the whole
    # space); the two cuts always meet while T has a fixed point. x0x0 is <x0, x0>
    _, _, c, _, x = cut
    y = _step(space, T, x, None, 0.0, psi_n, 0.0, None, None, c, scratch, reg)
    cuts = _cq_halfspaces(space, x, y, x0, cut)
    if _project_halfspace_pair(space, *cuts, x0, x0x0, x, scratch, reg) is x0:
        x[...] = x0  # x0 lies in both cuts
    return x


def mann_step(space: InnerProductSpace, T, x, psi_n: float) -> np.ndarray:
    """Averaged operator step ``psi x + (1 - psi) T x``."""
    return _step(space, T, space.check(x), None, 0.0, psi_n, 0.0, None)


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
    ``f`` must be a rho-contraction with rho in [0, 1). With ``nu = 0`` the
    result is ``y`` itself: ``f`` is not called, and a ``-0.0`` coordinate
    of ``y`` is not turned into ``0.0``.
    """
    x, x_prev = space.check(x), space.check(x_prev)
    return _step(space, T, x, x_prev, delta_n, psi_n, nu_n, lambda p: space.check(f(p)))


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
    The schedules come from the memos of ``config.schedules`` (see
    :class:`~fpiter.schedules.Schedules`): a run evaluates ``psi(n)``,
    ``nu(n)`` and ``xi(n)`` only where no earlier run with the same instance
    did. A fixed inertia rule is read once, before the loop; the adaptive
    one is ``Schedules.delta_bar`` evaluated inline, on the same memos and
    with the same bits. A rule that can only give 0 (``zero`` mode, or
    ``constant`` with ``delta_value = 0``) makes an inertial engine take its
    twin's plain step: it forms no ``x_n - x_{n-1}`` and records
    ``delta_n = 0``.
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
    :mod:`fpiter.space`), and only what the engine reads: a work vector
    always, two iterate slots for every engine but CQ, the default anchor
    for the anchor engines, and one 0-d coefficient register (see the
    comment above ``_blend``). ``x_{n+1}`` goes into slot ``n % 2``, over
    ``x_{n-1}``, which no step reads once ``x_n - x_{n-1}`` is formed in the
    work vector. That vector then holds ``w``, one product of each
    combination and the default contraction's ``rho x_n``. CQ keeps its
    iterate in its cut block (see :func:`~fpiter.operators._cq_block`), the
    rows ``[c, q, x_n, x_0]``, into which it copies ``x_0`` twice at the
    start: ``y`` and then the first cut normal go into the first row, and
    ``x_{n+1}`` into the third, over ``x_n``. ``T`` is lent the vector that
    will receive ``y`` or the step's result, by the contract of
    :class:`~fpiter.operators.Operator`. So only an operator that returns
    another array and a caller's contraction allocate in the loop. The
    caller's ``x_init``, ``x_init_prev`` and ``anchor`` are only read, never
    written. A point handed to a callback is a workspace vector that later
    iterations overwrite: a callback must copy any point it keeps.
    """
    inertial, blend = _ENGINES[_choice(algorithm, ALGORITHMS, "algorithm")]
    cq = algorithm == "cq"
    sched = config.schedules
    psi, nu, xi = sched.psi, sched.nu, sched.xi
    psis, nus, xis, caps = sched._memos
    adaptive = sched.delta_mode == "adaptive"  # only the cap reads the norm
    # a fixed rule is read once; one that can only give 0 leaves delta_n = 0:
    # the twin's plain step
    delta = sched.delta(0, 0.0) if inertial and not adaptive else 0.0
    inertial = inertial and (adaptive or delta > 0.0)
    space = T.space
    x = x0 = space.check(x_init)
    x_prev = x if x_init_prev is None else space.check(x_init_prev)
    u = None if anchor is None else space.check(anchor)

    def vector():
        return _aligned_empty(space.size)

    work = vector()  # allocated first: a wide run then faults in fewer fresh pages
    # the blend map; the Mann engines and cq never call theirs (nu_n = 0)
    if blend == "anchor":
        if u is None:
            u = np.multiply(config.anchor_scale, x, vector())
        v = lambda p: u  # noqa: E731
    elif contraction is None:
        # rho x is finite for a finite x and 0 <= rho < 1: no check
        rho = np.array(config.contraction_rho, np.float64)  # 0-d, see _blend
        v = lambda p: np.multiply(rho, p, work)  # noqa: E731
    else:
        v = lambda p: space.check(contraction(p))  # noqa: E731
    if cq:
        cut = _cq_block(space, x0, x0)
        x = cut[4]
        try:
            x0x0 = space._inner(x0, x0)
        except _FP_ERRORS:  # where warnings are errors: inf, as where numpy warns
            x0x0 = math.inf
    else:
        slots = (vector(), vector())
    reg = np.empty(())  # the coefficient register (see _blend)

    metric = config.error_metric
    tolerance = config.tolerance
    last = config.max_iterations
    clock = time.perf_counter

    errors, deltas, elapsed = [], [], []
    reason = TerminalReason.MAX_ITERATIONS
    diff = None
    start = clock()
    # the schedules are dict lookups in the memos, made here, with no call per
    # step; a miss evaluates the schedule here too and stores it (see
    # Schedules). get, not a subscript in a try: a KeyError raised per miss
    # costs a cold run more than the schedule call itself
    for n in range(last + 1):
        err = float(metric(x))
        if inertial:
            # one difference serves the inertia cap and the extrapolation
            diff = np.subtract(x, x_prev, work)
            if adaptive:
                # Schedules.delta_bar(n, ||diff||), statement for statement
                norm = space._norm(diff)
                if not norm >= 0.0:
                    raise ValueError(f"diff_norm must be nonnegative, got {norm}")
                delta = caps.get(n)
                if delta is None:
                    delta = caps.setdefault(n, sched._cap(n))
                if delta > 0.0 and norm > 0.0:
                    xi_n = xis.get(n)
                    if xi_n is None:
                        xi_n = xis.setdefault(n, xi(n))
                    if not xi_n >= 0.0:
                        raise ValueError(f"xi({n}) must be nonnegative, got {xi_n}")
                    ratio = xi_n / norm
                    if not delta < ratio:  # min(ratio, cap), a NaN ratio included
                        delta = ratio
                    while delta > 0.0 and delta * norm > xi_n:
                        delta = math.nextafter(delta, 0.0)
        errors.append(err)
        deltas.append(delta)
        elapsed.append(clock() - start)
        if err < tolerance:
            reason = TerminalReason.TOLERANCE_MET
            break
        if n == last:
            break
        psi_n = psis.get(n)
        if psi_n is None:
            psi_n = psis.setdefault(n, psi(n))
        try:
            if cq:
                x_next = _cq(space, T, x0, x0x0, psi_n, cut, work, reg)
            else:
                nu_n = nus.get(n) if blend else 0.0
                if nu_n is None:
                    nu_n = nus.setdefault(n, nu(n))
                x_next = _step(
                    space, T, x, x_prev, delta, psi_n, nu_n, v, diff, slots[n % 2], work, reg
                )
        except SingularityError:
            reason = TerminalReason.SINGULARITY
            break
        x_prev, x = x, x_next
    return IterationTrace(tuple(errors), tuple(deltas), tuple(elapsed), reason)
