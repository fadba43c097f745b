"""An exact three-coordinate oracle for the sfp runs.

Every sfp iterate lies in ``span{x_0, sin, 1}``: ``P_Q`` maps ``x`` to
``sin + s (x - sin)``, ``P_C`` adds a constant, and the extrapolation, the
averaging, the anchor ``0.9 x_0`` and the contraction ``0.9 x`` are linear
combinations. A run is therefore a recurrence on the coordinates ``c`` of
``x = B c`` with ``B = [x_0, sin, 1]``: norms come from the Gram matrix
``G = B^T W B`` and the integral from ``g = B^T w``. The recurrence below is
derived from the definitions of the operator, the metric and the engines and
shares no code with them; only the schedules (the parameter sequences
``psi_n``, ``nu_n``, ``delta_n``) are read from ``Schedules``.

It checks the grid kernels, the two-reduction metric and the engine
arithmetic: iteration counts and terminal reasons must be equal, and
``E_n`` and ``delta_n`` must agree to ``RTOL``. The two sides round
differently; at grid 1024 and ``lam`` in {0.25, 0.5, 1} they differ by at
most 3.6e-12 relative. (From ``lam = 1.5`` on, the adaptive inertia
amplifies that rounding to 1e-8 and beyond, so those runs are not compared.)
It is a test oracle, not a fast path: the sfp benchmark exists to measure
the per-node work that this recurrence skips.

A second oracle, :func:`project_onto_f`, gives the point each engine's
theorem names: the projection ``P_F`` onto ``F = C ∩ Q``, the fixed-point
set of the sweep in both projection modes. The tests below follow the runs
past the stopping tolerance (their metric never stops them) and check the
limit: ``P_F(u)`` for the Halpern engines, ``P_F(0) = 0`` for the viscosity
engines and ``P_F(x_0)``'s distance bound for cq.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fpiter.algorithms import RunConfig, TerminalReason, run
from fpiter.experiments import build_sfp, sfp_residual_metric
from fpiter.operators import (
    PROJECTION_MODES,
    Operator,
    project_integral_halfspace,
    project_l2_ball,
    sfp_operator,
)
from fpiter.schedules import Schedules
from fpiter.space import PeriodicGridSpace
from reference_spaces import RectangleGrid

RTOL = 1e-10
ENGINES = ("mmha", "mimha", "mmva", "mimva")
STARTS = {
    "t2": lambda t: t**2 / 10.0,
    "exp": lambda t: np.exp(t / 2.0) / 3.0,
    "pow2": lambda t: 2.0**t / 16.0,
    "sin2": lambda t: 3.0 * np.sin(2.0 * t),
}


def oracle(space, x0, algorithm, lam, mode, config):
    """``(E_n, delta_n, reason)`` of ``run`` from the 3-coordinate recurrence."""
    t = space.nodes
    basis = np.stack([x0, np.sin(t), np.ones_like(t)], axis=1)
    gram = basis.T @ (space.weights[:, None] * basis)
    g = basis.T @ space.weights
    length = space.interval_end
    divisor = length * length if mode == "damped" else length
    e_sin, e_one = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])

    def sq(v):
        return float(v @ gram @ v)

    def metric(c):
        # 0.5 ||P_C x - x||^2 + 0.5 ||P_Q x - x||^2 from the definitions:
        # P_C x - x is the constant k, P_Q x - x is (s - 1)(x - sin)
        a = float(g @ c)
        k = (1.0 - a) / divisor if a > 1.0 else 0.0
        b = sq(c - e_sin)
        s = 4.0 / math.sqrt(b) if b > 16.0 else 1.0
        return 0.5 * sq(k * e_one) + 0.5 * sq((s - 1.0) * (c - e_sin))

    def operator(c):
        b = sq(c - e_sin)
        p_q = e_sin + (4.0 / math.sqrt(b)) * (c - e_sin) if b > 16.0 else c
        z = c - lam * (c - p_q)
        a = float(g @ z)
        return z + ((1.0 - a) / divisor) * e_one if a > 1.0 else z

    sched = config.schedules
    inertial = algorithm in ("mimha", "mimva")
    c = c_prev = np.array([1.0, 0.0, 0.0])
    anchor = config.anchor_scale * c
    errors, deltas = [], []
    for n in range(config.max_iterations + 1):
        err = metric(c)
        delta = sched.delta(n, math.sqrt(sq(c - c_prev))) if inertial else 0.0
        errors.append(err)
        deltas.append(delta)
        if err < config.tolerance:
            return errors, deltas, TerminalReason.TOLERANCE_MET
        if n == config.max_iterations:
            break
        w = c + delta * (c - c_prev)
        psi = sched.psi(n)
        y = psi * w + (1.0 - psi) * operator(w)
        nu = sched.nu(n)
        v = anchor if algorithm in ("mmha", "mimha") else config.contraction_rho * c
        c_prev, c = c, nu * v + (1.0 - nu) * y
    return errors, deltas, TerminalReason.MAX_ITERATIONS


def sfp_on(space, lam, mode):
    """The operator and run defaults of ``build_sfp`` on any grid space."""
    operator = Operator(space, lambda x, out: sfp_operator(space, x, lam=lam, mode=mode))
    config = RunConfig(
        error_metric=sfp_residual_metric(space, mode),
        max_iterations=10000,
        tolerance=1e-3,
        schedules=Schedules(),
    )
    return operator, config


def assert_matches_oracle(operator, config, lam, mode):
    space = operator.space
    for algorithm in ENGINES:
        for name, f in STARTS.items():
            x0 = space.from_function(f)
            trace = run(algorithm, operator, config, x0)
            errors, deltas, reason = oracle(space, x0, algorithm, lam, mode, config)
            where = f"{algorithm} {name}"
            assert trace.terminal_reason is reason, where
            assert trace.iterations == len(errors) - 1, where
            np.testing.assert_allclose(trace.errors, errors, rtol=RTOL, atol=0.0, err_msg=where)
            np.testing.assert_allclose(trace.deltas, deltas, rtol=RTOL, atol=0.0, err_msg=where)


@pytest.mark.parametrize("mode", PROJECTION_MODES)
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_sfp_runs_match_the_oracle(lam, mode):
    spec = build_sfp(1024, lam=lam, mode=mode)
    assert_matches_oracle(spec.operator, spec.defaults, lam, mode)


@pytest.mark.parametrize("mode", PROJECTION_MODES)
def test_sfp_runs_match_the_oracle_on_rectangle_weights(mode):
    # sum(w) differs from L here, so the metric's constant term is checked
    # against ||1||^2 and not against a number that equals it by accident
    assert_matches_oracle(*sfp_on(RectangleGrid(1024), 0.25, mode), 0.25, mode)


def project_onto_f(space, u):
    """``P_F(u)``, the nearest point of ``{integral x <= 1, ||x - sin|| <= 4}``.

    ``u`` itself when it is feasible, else a single projection when that
    meets the other constraint, else the point where both are active. That
    point solves ``x - u + alpha 1 + beta (x - sin) = 0`` on the circle where
    the plane ``H = {integral x = 1}`` cuts the sphere: the circle's center
    is ``P_H(sin)``, its radius follows from Pythagoras, and ``x`` lies on it
    in the direction of ``u - sin`` with its integral part removed. Both
    multipliers are asserted nonnegative, so the point is optimal.
    """
    one = np.ones(space.size)
    sin = space.sin_nodes
    length = space.inner(one, one)  # integral x = <x, 1>, and <1, 1> is L

    def integral(v):
        return space.inner(v, one)

    a = integral(u)
    p_c = u if a <= 1.0 else u - ((a - 1.0) / length) * one
    if space.norm(p_c - sin) <= 4.0:
        return p_c
    r = u - sin
    p_q = sin + (4.0 / space.norm(r)) * r
    if integral(p_q) <= 1.0:
        return p_q
    center = sin + ((1.0 - integral(sin)) / length) * one
    radius = math.sqrt(16.0 - space.inner(center - sin, center - sin))
    m = r - ((a - integral(sin)) / length) * one
    beta = space.norm(m) / radius - 1.0
    alpha = (a - 1.0 + beta * (integral(sin) - 1.0)) / length
    assert alpha >= 0.0 and beta >= 0.0
    return center + (radius / space.norm(m)) * m


def distances_to(algorithm, mode, reference, iterations):
    """``||x_n - reference(space, x_0)||`` for n = 0..iterations, per start.

    The runs are those of ``build_sfp(256, mode=mode)``, but their metric
    records the distance and returns 1.0, so no run stops early.
    """
    spec = build_sfp(256, mode=mode)
    space = spec.space
    distances = {}
    for name, x0 in spec.initial_cases:
        target = reference(space, x0)
        d = distances[name] = []

        def metric(x, target=target, d=d):
            d.append(space.norm(x - target))
            return 1.0

        config = replace(spec.defaults, error_metric=metric, max_iterations=iterations)
        run(algorithm, spec.operator, config, x0)
    return distances


@pytest.mark.parametrize("u_scale", [0.9, 1.0])
def test_projection_onto_f_matches_dykstra(u_scale):
    # Dykstra's alternating projections with corrections converge to P_F(u);
    # here they settle to within 2e-15 of the closed form in 50 steps
    space = PeriodicGridSpace(256)
    for name, f in STARTS.items():
        u = u_scale * space.from_function(f)
        x, c_fix, q_fix = u, 0.0, 0.0
        for _ in range(200):
            y = project_integral_halfspace(space, x + c_fix, "exact")
            c_fix = x + c_fix - y
            x = project_l2_ball(space, y + q_fix)
            q_fix = y + q_fix - x
        assert space.norm(x - project_onto_f(space, u)) <= 1e-12, name


@pytest.mark.parametrize("mode", PROJECTION_MODES)
def test_cq_stays_within_its_bound(mode):
    # Nakajo and Takahashi: each x_n projects x_0 onto a set that contains F,
    # so ||x_n - x_0|| <= ||P_F(x_0) - x_0|| at every n, also past convergence
    space = PeriodicGridSpace(256)
    for name, d in distances_to("cq", mode, lambda space, x0: x0, 3000).items():
        x0 = space.from_function(STARTS[name])
        bound = space.norm(project_onto_f(space, x0) - x0)
        assert max(d) <= (1.0 + 1e-9) * bound, name


@pytest.mark.parametrize("mode", PROJECTION_MODES)
@pytest.mark.parametrize("algorithm", ["mmha", "mimha"])
def test_halpern_engines_approach_p_f_of_the_anchor(algorithm, mode):
    # x_n -> P_F(u) with u = 0.9 x_0, at the rate 1/n of nu_n = 1/(n+1):
    # n ||x_n - P_F(u)|| agrees at n = 1,000 and 2,000 within 1% (measured:
    # within 0.23%)
    def anchor_projection(space, x0):
        return project_onto_f(space, 0.9 * x0)

    for name, d in distances_to(algorithm, mode, anchor_projection, 2000).items():
        assert 2000 * d[2000] == pytest.approx(1000 * d[1000], rel=1e-2), name


@pytest.mark.parametrize("mode", PROJECTION_MODES)
@pytest.mark.parametrize("algorithm", ["mmva", "mimva"])
def test_viscosity_engines_approach_zero_at_the_contraction_rate(algorithm, mode):
    # x_n -> P_F(0) = 0 (0 lies in F) for f(x) = 0.9 x; once x_n is feasible
    # ||x_n|| decays as n^-(1 - rho) = n^-0.1. Its log-log slope between
    # n = 300 and 3,000 lies within 0.03 of -0.1 (measured: -0.0999 to -0.121)
    for name, d in distances_to(algorithm, mode, lambda space, x0: space.zeros(), 3000).items():
        slope = math.log10(d[3000] / d[300])
        assert abs(slope + 0.1) <= 0.03, name
