"""Preconfigured benchmark problems with their exact parameters.

Three problem families, each wrapped in an :class:`ExperimentSpec` that
bundles the fixed-point operator and its space, default run settings (among
them the error metric that the stopping rule tests), and initial points:

sfp
    Feasibility in discretized L2 on [0, 2*pi]: find x with
    ``integral x <= 1`` and ``||x - sin|| <= 4``. Operator: the
    forward-projection sweep with ``lam = 0.25`` (``sfp_operator``).
    Metric: :func:`sfp_residual_metric`, tolerance 1e-3. Four fixed starting
    functions: t2 = t^2/10, exp = e^(t/2)/3, pow2 = 2^t/16, sin2 = 3 sin(2t).

cfp
    Intersection of ``m + 1`` unit balls in R^N (default N = m = 30):
    outer ball at the origin, two fixed balls at +-e_1 whose intersection
    pins the solution to 0, the rest centered uniformly in
    ``(-1/sqrt(N), 1/sqrt(N))^N``, all held in one ``BallSet``.
    Operator: project the average of the inner projections by the outer
    one. Metric: sup norm of the iterate; runs go the full iteration
    budget. The CQ and inertial Mann baselines use ``psi_n = 1/(n+1)``
    (inertia fixed at 0.5 for the latter), the viscosity-style algorithms
    keep the default schedules with ``f(x) = 0.1 x``.

weber
    Weighted-distance minimization over the 8 corners of the cube
    [0, 10]^3 with unit weights; by symmetry the optimum is (5, 5, 5).
    Operator: the Weiszfeld map. Metric: Euclidean distance to the
    optimum. Initial points are sampled uniformly from (0, 10)^3.

Specs are immutable; independent cases may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .algorithms import RunConfig
from .operators import (
    AnchorSet,
    BallSet,
    Operator,
    SingularityError,
    _SFP_INTEGRAL_BOUND,
    _SFP_RADIUS,
    _check_sfp_args,
    _cfp_sweep,
    _frozen,
    _integral_divisor,
    _sfp_sweep,
    _weiszfeld,
    weiszfeld_map,
)
from .schedules import Schedules, inverse_linear
from .space import EuclideanSpace, InnerProductSpace, PeriodicGridSpace, _index

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "build_sfp",
    "build_cfp",
    "build_weber",
    "build_experiment",
    "sfp_residual_metric",
    "sup_norm",
    "fermat_weber_point",
]

def sfp_residual_metric(space: PeriodicGridSpace, mode: str = "damped"):
    """Half the squared residuals of both feasibility constraints.

    ``E(x) = 0.5 ||P_C x - x||^2 + 0.5 ||P_Q x - x||^2``; zero exactly on
    the intersection. ``mode`` selects the integral-halfspace variant and
    should match the operator being iterated; a bad ``mode`` or a non-grid
    space is rejected here, not at the first call, and a bad point when
    the metric is called.

    Neither projection is formed. With ``a = integral x`` and
    ``b = ||x - sin||^2``, ``P_C x - x`` is the constant ``k = (1 - a)/d``
    (``d`` the mode's divisor) when ``a > 1``, so its squared norm is
    ``k^2 sum(w)``; and ``P_Q x - x = (4/sqrt(b) - 1)(x - sin)`` when
    ``b > 16``, with squared norm ``(4/sqrt(b) - 1)^2 b``. A term is 0 where
    its constraint holds. The two forms agree to rounding, not bit for bit.
    ``b`` is expanded as ``<x, x> - 2 <x, sin> + <sin, sin>``, the last
    term computed once here, and the grid's inner product forms no
    weighted product, so a call writes no vector of grid size.
    """
    metric = _sfp_residual(space, _integral_divisor(space, mode))
    return lambda x: metric(space.check(x))


def _sfp_residual(space, divisor):
    # sfp_residual_metric past its checks, on the mode's divisor, for the sfp spec's runs
    weight_sum = float(space.weights.sum())
    center = space.sin_nodes
    center_sq = space._inner(center, center)
    radius_sq = _SFP_RADIUS * _SFP_RADIUS  # 16.0 exactly

    def metric(x):
        a = space._integrate(x)
        # near x = sin, b can come out a few ulps below zero; that is
        # harmless, since only b > radius_sq reads it
        b = space._inner(x, x) - 2.0 * space._inner(x, center) + center_sq
        c_sq = q_sq = 0.0
        if a > _SFP_INTEGRAL_BOUND:
            k = (_SFP_INTEGRAL_BOUND - a) / divisor
            c_sq = k * k * weight_sum
        if b > radius_sq:
            s = _SFP_RADIUS / math.sqrt(b) - 1.0
            q_sq = s * s * b
        return 0.5 * c_sq + 0.5 * q_sq

    return metric


def sup_norm(x) -> float:
    """Largest coordinate magnitude."""
    # read at argmax (see fpiter.space), which returns a NaN as np.max would
    a = np.abs(x)
    return float(a.item(a.argmax()))


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """A benchmark instance: operator (and its ``space``), run defaults, initials.

    The stopping metric is ``defaults.error_metric``; callers change a
    run's cap, tolerance or schedules with ``dataclasses.replace`` on
    ``defaults``. ``initial_cases`` holds the fixed named starting points
    (empty for the randomly initialized problems, which provide
    ``sample_initial`` instead). ``algorithm_schedules`` carries
    per-algorithm schedule overrides (see :meth:`schedules_for`).
    ``details`` records only the build constants the spec does not already
    expose (a grid size or a dimension is ``space.size``). The operator and
    the metric are unchecked kernels; see :func:`fpiter.algorithms.run`.
    """

    id: str
    operator: Operator
    defaults: RunConfig
    initial_cases: Tuple[Tuple[str, np.ndarray], ...] = ()
    sample_initial: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    algorithm_schedules: Mapping[str, Schedules] = field(
        default_factory=lambda: MappingProxyType({})
    )
    details: Mapping[str, object] = field(default_factory=lambda: MappingProxyType({}))

    @property
    def space(self) -> InnerProductSpace:
        """The operator's space, read from it, not stored twice."""
        return self.operator.space

    def schedules_for(self, algorithm: str) -> Schedules:
        """``algorithm``'s override, else ``defaults.schedules``; unchecked."""
        return self.algorithm_schedules.get(algorithm, self.defaults.schedules)

    def make_initials(self, rng=None, count: int = 1):
        """Named starting points: the fixed cases, or ``count`` sampled ones.

        Only sampling reads ``rng``, a Generator or a seed for one. ``count``
        must be an integer of at least 1 (``ValueError`` otherwise), also
        where the fixed cases ignore it.
        """
        count = _index(count, "count")
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        if self.initial_cases:
            return list(self.initial_cases)
        if self.sample_initial is None:
            raise ValueError(f"experiment {self.id!r} has no initial points")
        if rng is None:
            raise ValueError("sampling initial points needs a Generator or a seed")
        rng = np.random.default_rng(rng)
        return [(f"rand{i}", self.sample_initial(rng)) for i in range(count)]


def build_sfp(
    grid_points: int = 1024, lam: float = 0.25, mode: str = "damped"
) -> ExperimentSpec:
    """Function-space feasibility benchmark on a uniform grid.

    The stopping rule is the residual metric dropping below 1e-3; the
    10000-iteration cap is only a safety net, hence its generous size.
    A ``lam`` outside ``(0, 2)`` or an unknown ``mode`` raises ``ValueError``
    here, before any run.
    """
    space = PeriodicGridSpace(grid_points)
    divisor = _check_sfp_args(space, lam, mode)
    # the sweep writes T(x) into the workspace vector run lends it
    operator = Operator(space, lambda x, out: _sfp_sweep(space, x, lam, divisor, out))
    cases = (
        ("t2", space.from_function(lambda t: t**2 / 10.0)),
        ("exp", space.from_function(lambda t: np.exp(t / 2.0) / 3.0)),
        ("pow2", space.from_function(lambda t: 2.0**t / 16.0)),
        ("sin2", space.from_function(lambda t: 3.0 * np.sin(2.0 * t))),
    )
    for _, x0 in cases:
        x0.setflags(write=False)
    defaults = RunConfig(error_metric=_sfp_residual(space, divisor), max_iterations=10000)
    return ExperimentSpec(
        id="sfp",
        operator=operator,
        defaults=defaults,
        initial_cases=cases,
        details=MappingProxyType({"lam": lam, "mode": mode}),
    )


def build_cfp(
    dim: int = 30,
    num_balls: int = 30,
    seed: int = 0,
) -> ExperimentSpec:
    """Random-balls feasibility benchmark in R^dim.

    ``num_balls`` counts the inner balls; the outer unit ball at the origin
    comes on top. Centers 1 and 2 sit at +-e_1 so the only common point is
    the origin, making ``sup_norm`` a true error measure. The remaining
    centers are drawn from ``(-1/sqrt(dim), 1/sqrt(dim))^dim`` with the
    given seed. There is no tolerance-based stopping in this benchmark;
    the tolerance is an unreachable sentinel so runs go the full
    1000-iteration budget.
    """
    space = EuclideanSpace(dim)
    num_balls = _index(num_balls, "num_balls")
    if num_balls < 2:
        raise ValueError(f"need at least two inner balls, got {num_balls}")
    centers = np.zeros((num_balls + 1, dim))
    centers[1, 0] = 1.0
    centers[2, 0] = -1.0
    if num_balls > 2:
        bound = 1.0 / np.sqrt(dim)
        rng = np.random.default_rng(seed)
        centers[3:] = rng.uniform(-bound, bound, size=(num_balls - 2, dim))
    balls = BallSet(centers, np.ones(num_balls + 1))
    # the sweep's constants, bound once: inner centers and radii, the outer ball
    inner, inner_radii = balls.centers[1:], balls.radii[1:]
    outer, outer_radius = balls.centers[0], balls.radii.item(0)
    # a result of dim doubles: the sweep returns a fresh one and ignores out
    operator = Operator(
        space, lambda x, out: _cfp_sweep(space, inner, inner_radii, outer, outer_radius, x)
    )
    defaults = RunConfig(error_metric=sup_norm, tolerance=1e-12, contraction_rho=0.1)
    baselines = MappingProxyType(
        {
            "cq": Schedules(psi=inverse_linear),
            "inertial-mann": Schedules(
                psi=inverse_linear, delta_mode="constant", delta_value=0.5
            ),
        }
    )
    return ExperimentSpec(
        id="cfp",
        operator=operator,
        defaults=defaults,
        sample_initial=lambda gen: gen.uniform(0.0, 10.0, dim),
        algorithm_schedules=baselines,
        details=MappingProxyType({"seed": seed, "centers": balls.centers}),
    )


_CUBE_CORNERS = np.array(
    [
        [0.0, 10.0, 0.0, 10.0, 0.0, 10.0, 0.0, 10.0],
        [0.0, 0.0, 10.0, 10.0, 0.0, 0.0, 10.0, 10.0],
        [0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0],
    ]
).T


def fermat_weber_point(space: InnerProductSpace, anchors: AnchorSet) -> np.ndarray:
    """Weighted-median reference solution by plain fixed-point iteration.

    First returns an anchor ``a_k`` that passes Kuhn's optimality test,
    ``||sum_{i != k} w_i (a_k - a_i)/||a_k - a_i|| || <= w_k``, where
    anchors at distance 0 from ``a_k`` add their weight to ``w_k``; the
    iteration only creeps toward such an optimum. Otherwise starts from
    the weighted mean of the anchors and iterates the Weiszfeld map until
    the step is at most 1e-12; ``ValueError`` if that takes more than
    20,000 steps. If the iteration runs into an anchor the optimum is
    (numerically) that anchor and it is returned.
    """
    points = anchors.anchors
    for point in points:
        diffs = point - points
        dists = np.sqrt(space._row_inners(diffs))
        apart = dists > 0
        pull = (anchors.weights[apart] / dists[apart]).dot(diffs[apart])
        if space.norm(pull) <= anchors.weights[~apart].sum():
            return point.copy()
    weights = anchors.weights / anchors.weights.sum()
    x = weights @ points
    for _ in range(20000):
        try:
            x_next = weiszfeld_map(space, anchors, x)
        except SingularityError:
            return x
        step = space.norm(x_next - x)
        if step <= 1e-12:
            return x_next
        x = x_next
    raise ValueError(
        f"the Weiszfeld iteration did not settle in 20,000 steps (last step {step:.2e})"
    )


def build_weber(anchors: Optional[AnchorSet] = None) -> ExperimentSpec:
    """Facility-location benchmark driven by the Weiszfeld map.

    Defaults to the 8 unit-weight anchors at the corners of [0, 10]^3,
    whose symmetry puts the optimum at (5, 5, 5). For a custom anchor set
    the reference optimum is computed by :func:`fermat_weber_point`, whose
    ``ValueError`` (no settled optimum) passes through.
    """
    cube = anchors is None
    if cube:
        anchors = AnchorSet(anchors=_CUBE_CORNERS, weights=np.ones(8))
    space = EuclideanSpace(anchors.anchors.shape[1])
    target = _frozen([5.0, 5.0, 5.0] if cube else fermat_weber_point(space, anchors))
    operator = Operator(space, lambda x, out: _weiszfeld(space, anchors, x))
    lo = float(anchors.anchors.min())
    hi = float(anchors.anchors.max())
    defaults = RunConfig(error_metric=lambda x: space._norm(x - target), tolerance=1e-4)
    return ExperimentSpec(
        id="weber",
        operator=operator,
        defaults=defaults,
        sample_initial=lambda gen: gen.uniform(lo, hi, space.size),
        details=MappingProxyType({"anchors": anchors, "target": target}),
    )


_BUILDERS = {"sfp": build_sfp, "cfp": build_cfp, "weber": build_weber}
EXPERIMENTS = tuple(_BUILDERS)


def build_experiment(experiment_id: str, **overrides) -> ExperimentSpec:
    """Dispatch to the builder for ``experiment_id`` with keyword overrides."""
    if experiment_id not in _BUILDERS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}, expected one of {EXPERIMENTS}"
        )
    return _BUILDERS[experiment_id](**overrides)
