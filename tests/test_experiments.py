import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fpiter.algorithms import TerminalReason, run
from fpiter.experiments import (
    build_cfp,
    build_experiment,
    build_sfp,
    build_weber,
    fermat_weber_point,
    sfp_residual_metric,
    sup_norm,
)
from fpiter.operators import (
    PROJECTION_MODES,
    AnchorSet,
    BallSet,
    cfp_operator,
    project_integral_halfspace,
    project_l2_ball,
    sfp_operator,
    weiszfeld_map,
)
from fpiter.space import TWO_PI, EuclideanSpace, PeriodicGridSpace
from reference_spaces import RectangleGrid


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
        assert sched.psi(0) == 0.01
        assert sched.nu(0) == 1.0
        assert sched.xi(0) == 10.0
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

    def test_initial_cases_are_read_only(self, sfp):
        # every run of every suite starts from these arrays
        for _, x0 in sfp.initial_cases:
            with pytest.raises(ValueError, match="read-only"):
                x0[0] = 0.0

    def test_fixed_cases_returned_regardless_of_count(self, sfp):
        initials = sfp.make_initials(np.random.default_rng(0), count=7)
        assert len(initials) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "bogus"}, {"lam": 0.0}, {"lam": 2.0}, {"lam": float("nan")}],
        ids=["mode", "lam-0", "lam-2", "lam-nan"],
    )
    def test_bad_argument_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError, match="mode" if "mode" in kwargs else "lam"):
            build_sfp(64, **kwargs)


@pytest.mark.parametrize(
    "entry",
    [
        lambda mode: project_integral_halfspace(PeriodicGridSpace(64), np.full(64, np.nan), mode),
        lambda mode: sfp_operator(PeriodicGridSpace(64), np.full(64, np.nan), mode=mode),
        lambda mode: sfp_residual_metric(PeriodicGridSpace(64), mode),
        lambda mode: build_sfp(64, mode=mode),
    ],
    ids=["project_integral_halfspace", "sfp_operator", "sfp_residual_metric", "build_sfp"],
)
def test_unknown_mode_rejected_by_name_before_any_run(entry):
    # the mode is resolved where it enters, before a point is read (the NaN
    # point would raise another error) and before a metric or spec exists
    with pytest.raises(ValueError, match=r"unknown mode 'verbatim', expected one of"):
        entry("verbatim")


def vector_metric(space, mode, x):
    """``0.5 ||P_C x - x||^2 + 0.5 ||P_Q x - x||^2`` from the projected vectors."""
    rc = project_integral_halfspace(space, x, mode) - x
    rq = project_l2_ball(space, x) - x
    return 0.5 * space.inner(rc, rc) + 0.5 * space.inner(rq, rq)


class TestSfpResidualMetric:
    """The metric from scalar reductions against the projected-vector formula."""

    SPACES = pytest.mark.parametrize(
        "space", [PeriodicGridSpace(1024), RectangleGrid(257)], ids=["trapezoid", "rectangle"]
    )
    MODES = pytest.mark.parametrize("mode", PROJECTION_MODES)

    @staticmethod
    def constraints(space, x):
        r = x - space.sin_nodes
        return space.integrate(x), space.inner(r, r)

    def points(self, space):
        """Points inside and outside each set, away from both boundaries.

        Near a boundary a residual is small against ``x`` itself, and the
        vector formula's ``P x - x`` loses its digits to cancellation.
        """
        rng = np.random.default_rng(41)
        out = []
        while len(out) < 60:
            x = rng.normal(size=space.size) * rng.uniform(0.0, 3.0) + rng.uniform(-1.0, 1.0)
            a, b = self.constraints(space, x)
            if not (0.5 < a < 1.5 or 12.0 < b < 20.0):
                out.append(x)
        return out

    @SPACES
    @MODES
    def test_matches_vector_formula(self, space, mode):
        metric = sfp_residual_metric(space, mode)
        seen = set()
        for x in self.points(space):
            a, b = self.constraints(space, x)
            seen.add((a > 1.0, b > 16.0))
            expected = vector_metric(space, mode, x)
            assert metric(x) == pytest.approx(expected, rel=1e-12, abs=0.0)
        # inside both, outside C only, outside Q only, outside both
        assert seen == {(False, False), (True, False), (False, True), (True, True)}

    @SPACES
    @MODES
    def test_exactly_zero_on_the_intersection(self, space, mode):
        metric = sfp_residual_metric(space, mode)
        t = space.nodes
        for x in (space.zeros(), np.sin(t), 0.5 * np.sin(t) + 0.1, np.cos(t)):
            a, b = self.constraints(space, x)
            assert a <= 1.0 and b <= 16.0
            assert metric(x) == 0.0

    def test_rejects_bad_mode_and_space_when_built(self):
        with pytest.raises(ValueError, match="mode"):
            sfp_residual_metric(PeriodicGridSpace(64), "bogus")
        with pytest.raises(TypeError):
            sfp_residual_metric(EuclideanSpace(3))

    @pytest.mark.parametrize(
        "bad", [np.full(64, np.nan), np.full(64, np.inf), np.zeros(63)], ids=["nan", "inf", "shape"]
    )
    def test_rejects_bad_points(self, bad):
        with pytest.raises(ValueError):
            sfp_residual_metric(PeriodicGridSpace(64))(bad)


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

    def test_centers_are_the_ball_sets_read_only_rows(self, cfp):
        centers = cfp.details["centers"]
        with pytest.raises(ValueError, match="read-only"):
            centers[3, 0] = 0.0
        balls = BallSet(centers, np.ones(len(centers)))
        rng = np.random.default_rng(9)
        # points inside some inner balls, and CLI-like starts outside them all
        for x in [*rng.uniform(-0.5, 0.5, (3, 30)), *rng.uniform(0.0, 10.0, (3, 30))]:
            assert cfp_operator(cfp.space, balls, x).tobytes() == cfp.operator(x).tobytes()

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

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_initial_count_must_be_a_positive_integer(self, cfp, sfp, count):
        # sampled starts, and the fixed cases, which do not use the count
        for spec in (cfp, sfp):
            with pytest.raises(ValueError, match="count"):
                spec.make_initials(np.random.default_rng(3), count=count)

    def test_sampling_needs_a_generator(self, cfp, weber):
        for spec in (cfp, weber):
            with pytest.raises(ValueError, match="needs a Generator"):
                spec.make_initials(None, 2)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_seed_draws_what_its_generator_draws(self, cfp, weber, seed):
        for spec in (cfp, weber):
            by_seed = spec.make_initials([seed, 1], 3)
            by_generator = spec.make_initials(np.random.default_rng([seed, 1]), 3)
            assert [name for name, _ in by_seed] == [name for name, _ in by_generator]
            for (_, a), (_, b) in zip(by_seed, by_generator):
                assert a.tobytes() == b.tobytes()

    def test_a_spec_without_starts_says_so(self, cfp):
        bare = dataclasses.replace(cfp, sample_initial=None)
        with pytest.raises(ValueError, match="'cfp' has no initial points"):
            bare.make_initials(np.random.default_rng(3))

    def test_baseline_schedules(self, cfp):
        assert cfp.schedules_for("cq").psi(0) == 1.0
        assert cfp.schedules_for("cq").psi(9) == pytest.approx(0.1)
        imann = cfp.schedules_for("inertial-mann")
        assert imann.delta_mode == "constant"
        assert imann.delta_value == 0.5
        # everything else keeps the default schedules
        assert cfp.schedules_for("mimva").psi(0) == 0.01
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

    @pytest.mark.parametrize("seed", range(10))
    def test_cq_ends_inside_the_bench_bound(self, seed):
        # cq amplifies the sweep's rounding, so its last E_n moves with any
        # change to the sweep's bits; the cfp-balls gate takes cq's at < 0.5
        # (over seeds 0-199 the largest is 0.386). The start is the CLI's.
        spec = build_cfp(seed=seed)
        x0 = spec.make_initials(np.random.default_rng([seed, 1]))[0][1]
        config = dataclasses.replace(spec.defaults, schedules=spec.schedules_for("cq"))
        trace = run("cq", spec.operator, config, x0)
        assert trace.iterations == 1000
        assert trace.terminal_reason is TerminalReason.MAX_ITERATIONS
        assert trace.final_error < 0.5

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            build_cfp(dim=0)
        with pytest.raises(ValueError):
            build_cfp(num_balls=1)


class TestSupNorm:
    """``sup_norm`` reads the maximum at ``argmax``: the bits of ``np.max``, as a
    float, and a NaN where ``np.max`` gives one (its payload may differ)."""

    @staticmethod
    def assert_max_bits(x):
        got = sup_norm(x)
        with np.errstate(invalid="ignore"):  # a signaling NaN
            expected = float(np.max(np.abs(x)))
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=400, deadline=None, database=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)))
    def test_float_arrays(self, x):
        self.assert_max_bits(x)

    @pytest.mark.parametrize(
        "x",
        [
            [3, -4],
            np.array([3, -4, 2]),
            np.array([7, 1], dtype=np.uint8),
            [0.5, -2.5],
            [-0.0],
            np.array([-0.0, 0.0]),
            [1.0, -math.inf],
            [math.inf, math.nan],
            [1.0, math.nan, 2.0],
        ],
        ids=[
            "int-list", "int64", "uint8", "list", "neg-zero", "zeros", "inf", "nan-after-inf",
            "nan",
        ],
    )
    def test_other_inputs(self, x):
        self.assert_max_bits(x)

    def test_int_list_value(self):
        assert sup_norm([3, -4]) == 4.0


class TestWeberSpec:
    def test_anchor_geometry(self, weber):
        anchors = weber.details["anchors"].anchors
        assert anchors.shape == (8, 3)
        assert set(np.unique(anchors)) == {0.0, 10.0}
        assert np.array_equal(weber.details["anchors"].weights, np.ones(8))

    def test_target_is_read_only(self, weber):
        # the stopping metric reads the same array
        square = AnchorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(4)
        )
        for spec in (weber, build_weber(anchors=square)):
            with pytest.raises(ValueError, match="read-only"):
                spec.details["target"][0] = 0.0

    def test_metric_at_known_points(self, weber):
        assert weber.defaults.error_metric(np.array([5.0, 5.0, 5.0])) == 0.0
        assert weber.defaults.error_metric(np.zeros(3)) == pytest.approx(math.sqrt(75))

    def test_reference_point_by_plain_iteration(self, weber):
        point = fermat_weber_point(weber.space, weber.details["anchors"])
        assert np.allclose(point, [5.0, 5.0, 5.0], atol=1e-9)

    def test_reference_point_is_the_anchor_it_runs_into(self):
        # the weighted mean (0 + 10 + 2)/12 is the middle anchor, where the
        # map is undefined; Kuhn's test returns it before the map runs
        anchors = AnchorSet(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 10.0, 1.0]))
        assert fermat_weber_point(EuclideanSpace(1), anchors).tolist() == [1.0]

    def test_reference_point_steps_off_an_anchor_that_fails_kuhns_test(self):
        # no anchor passes Kuhn's test, and the weighted mean is exactly the
        # light anchor (0, 0), where the map is undefined. The optimum is on
        # the first axis at s - 1, where the cost's slope along it,
        # -1 + 2 s / sqrt(s^2 + 1) - 0.1, is 0: s^2 = 0.3025 / 0.6975
        anchors = AnchorSet(
            np.array([[2.0, 0.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]),
            np.array([1.0, 1.0, 1.0, 0.1]),
        )
        point = fermat_weber_point(EuclideanSpace(2), anchors)
        optimum = [math.sqrt(0.3025 / 0.6975) - 1.0, 0.0]
        assert np.allclose(point, optimum, rtol=0, atol=1e-9)
        assert np.array_equal(build_weber(anchors).details["target"], point)

    def test_reference_point_is_the_anchor_that_passes_kuhns_test(self):
        # the anchor at the origin weighs sqrt(2), what the other two pull
        # with, so it is the optimum (Kuhn's test holds with equality) and
        # the iterates would only creep toward it like 1/n
        anchors = AnchorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([math.sqrt(2.0), 1.0, 1.0])
        )
        assert fermat_weber_point(EuclideanSpace(2), anchors).tolist() == [0.0, 0.0]

    def test_coincident_anchors_add_their_weights_in_kuhns_test(self):
        # alone, each copy of (0, 0) weighs 1 against a pull of sqrt(2);
        # together they weigh 2 and hold the optimum there
        anchors = AnchorSet(
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(4)
        )
        assert fermat_weber_point(EuclideanSpace(2), anchors).tolist() == [0.0, 0.0]

    def test_reference_point_raises_at_the_step_cap(self, monkeypatch):
        # unit square corners: no anchor passes Kuhn's test, so the map runs,
        # and this one moves every point by 1 forever
        import fpiter.experiments

        calls = []

        def never_settles(space, anchors, x):
            calls.append(1)
            return x + 1.0

        monkeypatch.setattr(fpiter.experiments, "weiszfeld_map", never_settles)
        anchors = AnchorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(4)
        )
        with pytest.raises(ValueError, match="did not settle in 20,000 steps"):
            fermat_weber_point(EuclideanSpace(2), anchors)
        assert len(calls) == 20000

    def test_custom_anchor_set_derives_target(self):
        # unit square corners: symmetric optimum at the center
        anchors = AnchorSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(4)
        )
        spec = build_weber(anchors=anchors)
        assert np.allclose(spec.details["target"], [0.5, 0.5], atol=1e-9)

    def test_asymmetric_anchors_derive_the_weighted_median(self):
        # no symmetry: the reference iteration leaves the weighted mean and
        # stops where the weighted unit vectors to the anchors cancel
        anchors = AnchorSet(
            np.array([[0, 0, 0], [10, 0, 0], [0, 7, 0], [0, 0, 5], [3, 3, 9]], dtype=float),
            np.array([1.0, 2.0, 1.0, 1.5, 1.0]),
        )
        spec = build_weber(anchors=anchors)
        target = spec.details["target"]
        mean = anchors.weights @ anchors.anchors / anchors.weights.sum()
        assert np.linalg.norm(target - mean) > 1.0
        diffs = target - anchors.anchors
        units = diffs / np.linalg.norm(diffs, axis=1)[:, None]
        assert np.linalg.norm(anchors.weights @ units) < 1e-10
        assert spec.defaults.error_metric(target) == 0.0

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
        assert build_experiment("sfp", grid_points=64).space.size == 64

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_experiment("lasso")
