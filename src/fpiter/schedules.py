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
convergence guarantees rest on. Everything here is pure and stateless.
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

    def delta_bar(self, n: int, diff_norm: float) -> float:
        """Largest admissible inertia coefficient at step ``n``.

        ``diff_norm`` is ``||x_n - x_{n-1}||``. The result lies in [0, 1)
        and satisfies ``delta_bar * diff_norm <= xi(n)`` exactly; a negative
        cap (n = 0) clamps to 0, so the first step never extrapolates.
        """
        if not diff_norm >= 0.0:
            raise ValueError(f"diff_norm must be nonnegative, got {diff_norm}")
        cap = (n - 1.0) / (n + self.eta - 1.0)
        if cap <= 0.0:
            return 0.0
        if diff_norm > 0.0:
            xi_n = self.xi(n)
            if not xi_n >= 0.0:
                raise ValueError(f"xi({n}) must be nonnegative, got {xi_n}")
            d = min(xi_n / diff_norm, cap)
            # rounding in the division can overshoot the budget by an ulp;
            # the bound must hold exactly
            while d > 0.0 and d * diff_norm > xi_n:
                d = math.nextafter(d, 0.0)
            return d
        return cap

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
