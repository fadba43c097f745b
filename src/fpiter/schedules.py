"""Iteration parameter sequences and the adaptive inertia rule.

The step rules in :mod:`fpiter.algorithms` mix three scalar sequences:

* ``psi(n)`` weights the current point against the operator image in the
  averaged (Mann) step,
* ``nu(n)`` weights the anchor / contraction term in the Halpern and
  viscosity steps,
* ``xi(n)`` budgets how far the inertial extrapolation may travel.

Defaults are the benchmark settings of every experiment: :func:`default_psi`,
``nu = inverse_linear``, :func:`default_xi` and ``eta = 4``.

The inertia coefficient delta_n multiplies the momentum term
``x_n - x_{n-1}``. In adaptive mode it is set to the largest admissible
value

    delta_bar_n = min(xi_n / ||x_n - x_{n-1}||, (n-1)/(n+eta-1))

(the ratio term is skipped when the iterates coincide), which enforces
``delta_n * ||x_n - x_{n-1}|| <= xi_n`` exactly and hence drives
``delta_n / nu_n * ||x_n - x_{n-1}||`` to zero, the condition the strong
convergence guarantees rest on.

The functions here are pure. A :class:`Schedules` memoizes what it has
evaluated (see there), so every run that shares an instance after the
first reads its sequences without a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

from .space import _choice

__all__ = [
    "Schedules",
    "InertiaDecayReport",
    "check_inertia_decay",
    "default_psi",
    "default_xi",
    "inverse_linear",
]

DELTA_MODES = ("adaptive", "constant", "zero")


def default_psi(n: int) -> float:
    """``psi_n = 1/(100 (n+1)^2)``, the default averaging weight; ``n`` is not checked."""
    return 1.0 / (100.0 * (n + 1) ** 2)


def default_xi(n: int) -> float:
    """``xi_n = 10/(n+1)^2``, the default inertia budget; ``n`` is not checked."""
    return 10.0 / (n + 1) ** 2


def inverse_linear(n: int) -> float:
    """1/(n+1): the default ``nu`` and the CQ and inertial Mann baselines' ``psi``."""
    return 1.0 / (n + 1)


@dataclass(frozen=True)
class Schedules:
    """Parameter sequences for one run.

    ``delta_mode`` selects how the inertia coefficient is produced:
    ``"adaptive"`` takes the cap ``delta_bar`` (maximal admissible inertia),
    ``"constant"`` always returns ``delta_value``, ``"zero"`` disables
    inertia and reproduces the non-inertial baselines bit for bit.

    A schedule (``psi``, ``nu``, ``xi``) must be a pure function of ``n``:
    each instance evaluates it at most once per index, at the first read, and
    keeps the value in a private memo, ``n -> value``, along with the clamped
    cap ``max((n-1)/(n+eta-1), 0)``. Every later read, by any run that shares
    the instance or by :meth:`delta_bar`, takes the value without a call.
    :func:`fpiter.algorithms.run` reads the memos inline and misses at the
    step where it first needs a value, so a run calls ``xi`` only where
    :meth:`delta_bar` would (never at n = 0 or 1, nor where the iterates
    coincide) and ``nu`` only in the engines that blend. Concurrent runs may
    share an instance: a value is stored by ``dict.setdefault``, which keeps
    the first one stored. Only runs on two threads that miss one index at the
    same moment may both evaluate it, and then they read the same value. The
    memos are not fields: ``dataclasses.replace`` gives a new instance with
    empty ones.
    """

    psi: Callable[[int], float] = default_psi
    nu: Callable[[int], float] = inverse_linear
    xi: Callable[[int], float] = default_xi
    eta: float = 4.0
    delta_mode: str = "adaptive"
    delta_value: float = 0.0

    def __post_init__(self):
        if not self.eta >= 3.0:
            raise ValueError(f"eta must be >= 3, got {self.eta}")
        _choice(self.delta_mode, DELTA_MODES, "delta_mode")
        if not 0.0 <= self.delta_value < math.inf:
            raise ValueError(f"delta_value must be finite and nonnegative, got {self.delta_value}")
        # the memos of psi, nu, xi and the cap, in that order (see above)
        object.__setattr__(self, "_memos", ({}, {}, {}, {}))

    def _cap(self, n: int) -> float:
        # the inertia cap (n-1)/(n+eta-1), clamped at 0 (n = 0 and 1)
        cap = (n - 1.0) / (n + self.eta - 1.0)
        return cap if cap > 0.0 else 0.0

    def _memo(self, memo: dict, f: Callable[[int], float], n: int) -> float:
        value = memo.get(n)
        return memo.setdefault(n, f(n)) if value is None else value

    def delta_bar(self, n: int, diff_norm: float) -> float:
        """Largest admissible inertia coefficient at step ``n``.

        ``diff_norm`` is ``||x_n - x_{n-1}||``. The result lies in [0, 1)
        and satisfies ``delta_bar * diff_norm <= xi(n)`` exactly; a negative
        cap (n = 0) clamps to 0, so the first step never extrapolates. The
        cap and ``xi(n)`` come from the memos; :func:`fpiter.algorithms.run`
        evaluates this rule inline, with the same bits.
        """
        if not diff_norm >= 0.0:
            raise ValueError(f"diff_norm must be nonnegative, got {diff_norm}")
        _, _, xis, caps = self._memos
        d = self._memo(caps, self._cap, n)
        if d > 0.0 and diff_norm > 0.0:
            xi_n = self._memo(xis, self.xi, n)
            if not xi_n >= 0.0:
                raise ValueError(f"xi({n}) must be nonnegative, got {xi_n}")
            d = min(xi_n / diff_norm, d)
            # rounding in the division can overshoot the budget by an ulp;
            # the bound must hold exactly
            while d > 0.0 and d * diff_norm > xi_n:
                d = math.nextafter(d, 0.0)
        return d

    def delta(self, n: int, diff_norm: float) -> float:
        """Inertia coefficient for step ``n`` under the configured mode."""
        if self.delta_mode == "zero":
            return 0.0
        if self.delta_mode == "constant":
            return self.delta_value
        return self.delta_bar(n, diff_norm)


@dataclass(frozen=True)
class InertiaDecayReport:
    """Diagnostic for the vanishing-inertia condition of a finished run."""

    ratios: Tuple[float, ...]
    trending_to_zero: bool


def check_inertia_decay(
    entries: Iterable[Sequence[float]], tolerance: float = 1e-2
) -> InertiaDecayReport:
    """Evaluate ``delta_n * ||x_n - x_{n-1}|| / nu_n`` along a run.

    ``entries`` is a sequence of ``(delta_n, nu_n, diff_norm)`` triples;
    a ``nu_n`` that is not finite and positive, or a ``delta_n`` or
    ``diff_norm`` that is not finite and nonnegative, raises ``ValueError``.
    The verdict is heuristic: the sequence must end below ``tolerance``
    and must not be still growing, i.e. the last ratio is no larger than
    the first or strictly below the peak (adaptive runs start at ratio 0,
    rise while inertia ramps up, then decay).
    """
    rows = list(entries)
    if not rows:
        raise ValueError("need at least one (delta, nu, diff_norm) entry")
    for n, (delta, nu, diff) in enumerate(rows):
        if not (math.isfinite(nu) and nu > 0.0):
            raise ValueError(f"nu_n must be finite and positive, got {nu} at entry {n}")
        for name, value in (("delta_n", delta), ("diff_norm", diff)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {value} at entry {n}"
                )
    ratios = tuple(delta * diff / nu for delta, nu, diff in rows)
    decayed = ratios[-1] <= ratios[0] or ratios[-1] < max(ratios)
    trending = decayed and ratios[-1] < tolerance
    return InertiaDecayReport(ratios=ratios, trending_to_zero=trending)
