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
"""

import math
import numpy as np
import pytest

from fpiter.algorithms import RunConfig, TerminalReason, run
from fpiter.experiments import build_sfp, sfp_residual_metric
from fpiter.operators import PROJECTION_MODES, Operator, sfp_operator
from fpiter.schedules import Schedules
from fpiter.space import PeriodicGridSpace

RTOL = 1e-10
ENGINES = ("mmha", "mimha", "mmva", "mimva")
STARTS = {
    "t2": lambda t: t**2 / 10.0,
    "exp": lambda t: np.exp(t / 2.0) / 3.0,
    "pow2": lambda t: 2.0**t / 16.0,
    "sin2": lambda t: 3.0 * np.sin(2.0 * t),
}


class RectangleGrid(PeriodicGridSpace):
    """Rectangle-rule weights ``h``: their sum ``N h`` is not the length ``L``."""

    def __init__(self, num_points):
        super().__init__(num_points)
        weights = np.full(num_points, self.interval_end / (num_points - 1))
        weights.setflags(write=False)
        self.weights = weights


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
    operator = Operator(space, lambda x: sfp_operator(space, x, lam=lam, mode=mode))
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
