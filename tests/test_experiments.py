import math

import numpy as np
import pytest

from fpiter.algorithms import TerminalReason, run
from fpiter.experiments import (
    build_cfp,
    build_experiment,
    build_sfp,
    build_weber,
    fermat_weber_point,
    sup_norm,
)
from fpiter.operators import AnchorSet
from fpiter.space import TWO_PI


@pytest.fixture(scope="module")
def sfp():
    return build_sfp()


@pytest.fixture(scope="module")
def cfp():
    return build_cfp(seed=0)


@pytest.fixture(scope="module")
def weber():
    return build_weber()


class TestSfpSpec:
    def test_benchmark_constants(self, sfp):
        sched = sfp.defaults.schedules
        assert sched.psi_at(0) == 0.01
        assert sched.nu_at(0) == 1.0
        assert sched.xi_at(0) == 10.0
        assert sched.eta == 4.0
        assert sfp.details["lam"] == 0.25
        assert sfp.defaults.tolerance == 1e-3
        assert sfp.defaults.contraction_rho == 0.9
        assert sfp.defaults.anchor_scale == 0.9

    def test_metric_zero_on_solution(self, sfp):
        assert sfp.defaults.error_metric(sfp.space.zeros()) == 0.0

    def test_metric_positive_on_initial_cases(self, sfp):
        for name, x0 in sfp.initial_cases:
            assert sfp.defaults.error_metric(x0) > 0.0, name

    def test_quadratic_case_violates_integral_constraint(self, sfp):
        x0 = dict(sfp.initial_cases)["t2"]
        # integral of t^2/10 over [0, 2 pi] is (2 pi)^3 / 30
        assert sfp.space.integrate(x0) == pytest.approx(TWO_PI**3 / 30, rel=1e-6)
        assert sfp.space.integrate(x0) > 1.0

    def test_sine_case_violates_ball_constraint(self, sfp):
        x0 = dict(sfp.initial_cases)["sin2"]
        s = sfp.space.from_function(np.sin)
        r = x0 - s
        # orthogonality of the two sine modes: 9 pi + pi
        assert sfp.space.inner(r, r) == pytest.approx(10 * math.pi, rel=1e-6)
        assert sfp.space.inner(r, r) > 16.0

    def test_four_named_cases(self, sfp):
        assert [name for name, _ in sfp.initial_cases] == ["t2", "exp", "pow2", "sin2"]
        for _, x0 in sfp.initial_cases:
            assert x0.shape == (sfp.space.size,)

    def test_fixed_cases_returned_regardless_of_count(self, sfp):
        initials = sfp.make_initials(np.random.default_rng(0), count=7)
        assert len(initials) == 4


class TestCfpSpec:
    def test_origin_is_fixed_exactly(self, cfp):
        zero = cfp.space.zeros()
        assert np.array_equal(cfp.operator(zero), zero)

    def test_fixed_and_random_centers(self, cfp):
        centers = cfp.details["centers"]
        assert centers.shape == (31, 30)
        assert np.array_equal(centers[0], np.zeros(30))
        e1 = np.zeros(30)
        e1[0] = 1.0
        assert np.array_equal(centers[1], e1)
        assert np.array_equal(centers[2], -e1)
        bound = 1.0 / math.sqrt(30)
        assert np.abs(centers[3:]).max() < bound

    def test_centers_deterministic_per_seed(self):
        a = build_cfp(seed=5).details["centers"]
        b = build_cfp(seed=5).details["centers"]
        c = build_cfp(seed=6).details["centers"]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_initial_sampler_range(self, cfp):
        rng = np.random.default_rng(3)
        initials = cfp.make_initials(rng, count=5)
        assert len(initials) == 5
        assert initials[0][0] == "rand0"
        for _, x0 in initials:
            assert x0.shape == (30,)
            assert (x0 >= 0).all() and (x0 < 10).all()

    def test_baseline_schedules(self, cfp):
        assert cfp.schedules_for("cq").psi_at(0) == 1.0
        assert cfp.schedules_for("cq").psi_at(9) == pytest.approx(0.1)
        imann = cfp.schedules_for("inertial-mann")
        assert imann.delta_mode == "constant"
        assert imann.delta_value == 0.5
        # everything else keeps the default schedules
        assert cfp.schedules_for("mimva").psi_at(0) == 0.01
        assert cfp.defaults.contraction_rho == 0.1

    def test_metric_is_sup_norm(self, cfp):
        x = np.zeros(30)
        x[7] = -3.5
        assert cfp.defaults.error_metric(x) == 3.5
        assert sup_norm(x) == 3.5

    def test_run_to_budget_with_decreasing_error(self):
        from dataclasses import replace

        spec = build_cfp(dim=8, num_balls=6, seed=2)
        x0 = spec.make_initials(np.random.default_rng(2), 1)[0][1]
        config = replace(spec.defaults, max_iterations=200)
        trace = run("mimva", spec.operator, config, x0)
        assert trace.terminal_reason is TerminalReason.MAX_ITERATIONS
        assert len(trace.records) == 201
        assert trace.final_error < trace.records[0].error / 100

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            build_cfp(dim=0)
        with pytest.raises(ValueError):
            build_cfp(num_balls=1)


class TestWeberSpec:
    def test_anchor_geometry(self, weber):
        anchors = weber.details["anchors"].anchors
        assert anchors.shape == (8, 3)
        assert set(np.unique(anchors)) == {0.0, 10.0}
        assert np.array_equal(weber.details["anchors"].weights, np.ones(8))

    def test_metric_at_known_points(self, weber):
        assert weber.defaults.error_metric(np.array([5.0, 5.0, 5.0])) == 0.0
        assert weber.defaults.error_metric(np.zeros(3)) == pytest.approx(math.sqrt(75))

    def test_reference_point_by_plain_iteration(self, weber):
        point = fermat_weber_point(weber.space, weber.details["anchors"])
        assert np.allclose(point, [5.0, 5.0, 5.0], atol=1e-9)

    def test_custom_anchor_set_derives_target(self):
        # unit square corners: symmetric optimum at the center
        anchors = AnchorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(4)
        )
        spec = build_weber(anchors=anchors)
        assert np.allclose(spec.details["target"], [0.5, 0.5], atol=1e-9)

    def test_defaults(self, weber):
        assert weber.defaults.max_iterations == 1000
        assert weber.defaults.tolerance == 1e-4
        assert weber.defaults.contraction_rho == 0.9

    def test_short_run_decreases_error(self, weber):
        x0 = np.array([2.0, 8.0, 3.0])
        from dataclasses import replace

        config = replace(weber.defaults, max_iterations=50, tolerance=1e-30)
        trace = run("mimva", weber.operator, config, x0)
        assert trace.terminal_reason is TerminalReason.MAX_ITERATIONS
        assert trace.final_error < trace.records[0].error / 10


class TestBuildExperiment:
    def test_dispatch(self):
        assert build_experiment("weber").id == "weber"
        assert build_experiment("sfp", grid_points=64).space.num_points == 64

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_experiment("lasso")
