import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import fpiter
from fpiter.algorithms import (
    ALGORITHMS,
    RunConfig,
    TerminalReason,
    TraceRecord,
    _cq,
    _step,
    mann_step,
    mimha_step,
    mimva_step,
    run,
)
from fpiter.experiments import build_cfp, build_sfp, build_weber, sup_norm
from fpiter.operators import (
    PROJECTION_MODES,
    Ball,
    HalfSpace,
    Operator,
    SingularityError,
    project_ball,
    project_halfspace_pair,
)
from fpiter.schedules import Schedules
from fpiter.space import EuclideanSpace

R1 = EuclideanSpace(1)
R2 = EuclideanSpace(2)

ZERO_MAP = Operator(R1, lambda x, out: np.zeros(1))
ZERO_MAP_2D = Operator(R2, lambda x, out: np.zeros(2))
IDENTITY_2D = Operator(R2, lambda x, out: R2.check(x))


def arr(*values):
    return np.array([float(v) for v in values])


def inertial_mann(space, T, x, x_prev, delta_n, psi_n):
    """The inertial Mann update of ``run``, from the kernel it calls (``nu_n = 0``)."""
    return _step(space, T, space.check(x), space.check(x_prev), delta_n, psi_n, 0.0, None)


class TestMannStep:
    def test_identity_operator_is_inert(self):
        x = arr(1.5, -2.0)
        out = mann_step(R2, IDENTITY_2D, x, 0.25)
        assert np.allclose(out, x, rtol=0, atol=1e-15)

    def test_psi_one_keeps_current_point(self):
        x = arr(1.5, -2.0)
        assert np.array_equal(mann_step(R2, ZERO_MAP_2D, x, 1.0), x)

    def test_quarter_step_toward_zero(self):
        out = mann_step(R2, ZERO_MAP_2D, arr(2.0, 0.0), 0.25)
        assert np.array_equal(out, arr(0.5, 0.0))

    def test_psi_out_of_range(self):
        with pytest.raises(ValueError, match="psi"):
            mann_step(R2, ZERO_MAP_2D, arr(1.0, 1.0), 1.5)


class TestInertialMannStep:
    def test_zero_inertia_reduces_to_mann_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(size=2)
            x_prev = rng.normal(size=2)
            psi = rng.uniform(0, 1)
            a = inertial_mann(R2, ZERO_MAP_2D, x, x_prev, 0.0, psi)
            b = mann_step(R2, ZERO_MAP_2D, x, psi)
            assert np.array_equal(a, b)

    def test_equal_iterates_ignore_inertia(self):
        x = arr(3.0, -1.0)
        out = inertial_mann(R2, IDENTITY_2D, x, x, 0.9, 0.5)
        assert np.allclose(out, x, rtol=0, atol=1e-15)

    def test_one_dimensional_example(self):
        # one step of run: the constant schedule gives delta_0 = 0.5, and the
        # metric records the iterate itself
        config = RunConfig(
            error_metric=lambda x: float(x[0]),
            max_iterations=1,
            tolerance=1e-30,
            schedules=Schedules(psi=lambda n: 0.2, delta_mode="constant", delta_value=0.5),
        )
        trace = run("inertial-mann", ZERO_MAP, config, arr(2.0), x_init_prev=arr(0.0))
        # w = 3, result 0.2*3 + 0.8*0
        assert trace.deltas == (0.5, 0.5)
        assert trace.errors[1] == pytest.approx(0.6, rel=1e-15)

    def test_negative_inertia_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            inertial_mann(R1, ZERO_MAP, arr(1.0), arr(0.0), -0.1, 0.5)

    @pytest.mark.parametrize("algorithm", ["mimha", "mimva"])
    def test_nan_inertia_rejected(self, algorithm):
        # the zero map drops the NaN that w carries, so no operator check
        # sees it: the step returned a NaN point
        x, x_prev, nan = arr(2.0, 1.0), arr(1.0, 0.0), float("nan")
        with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
            if algorithm == "mimha":
                mimha_step(R2, ZERO_MAP_2D, x, x_prev, arr(0.0, 0.0), nan, 0.5, 0.5)
            else:
                mimva_step(R2, ZERO_MAP_2D, x, x_prev, lambda p: 0.5 * p, nan, 0.5, 0.5)


class TestCqStep:
    # _cq takes validated arrays and <x0, x0>, as run passes them
    def test_identity_operator_projects_onto_anchoring_cut(self):
        # y = x makes the first cut the whole space
        x = R2.check(arr(1.0, 1.0))
        x0 = R2.check(arr(3.0, 1.0))
        out = _cq(R2, IDENTITY_2D, x, x0, R2._inner(x0, x0), 0.5)
        # remaining cut: <x0 - x, u> <= <x0 - x, x>  =>  u_1 <= 1
        assert np.allclose(out, arr(1.0, 1.0), atol=1e-12)

    def test_start_equal_current_projects_onto_contraction_cut(self):
        x = R1.check(arr(4.0))
        out = _cq(R1, ZERO_MAP, x, x, 16.0, 0.0)
        # y = 0: cut is u <= 2; anchoring cut is degenerate
        assert out[0] == pytest.approx(2.0, rel=1e-12)

    def test_one_dimensional_case_analysis(self):
        out = _cq(R1, ZERO_MAP, R1.check(arr(4.0)), R1.check(arr(4.0)), 16.0, 0.0)
        assert out[0] == pytest.approx(2.0, rel=1e-12)

    def test_accepts_psi_equal_one(self):
        # the baseline schedule 1/(n+1) starts at exactly 1
        out = _cq(R1, ZERO_MAP, R1.check(arr(4.0)), R1.check(arr(4.0)), 16.0, 1.0)
        assert out[0] == pytest.approx(4.0)


class TestMimhaStep:
    def test_full_anchor_weight_returns_anchor(self):
        u = arr(1.0, 7.0)
        out = mimha_step(R2, ZERO_MAP_2D, arr(2.0, 2.0), arr(0.0, 0.0), u, 0.5, 0.2, 1.0)
        assert np.array_equal(out, u)

    def test_reduces_to_mann_without_anchor_and_inertia(self):
        x = arr(2.0, -4.0)
        x_prev = arr(1.0, 1.0)
        u = arr(9.0, 9.0)
        out = mimha_step(R2, ZERO_MAP_2D, x, x_prev, u, 0.0, 0.25, 0.0)
        assert np.array_equal(out, mann_step(R2, ZERO_MAP_2D, x, 0.25))

    def test_one_dimensional_example(self):
        out = mimha_step(R1, ZERO_MAP, arr(2.0), arr(0.0), arr(1.0), 0.5, 0.2, 0.1)
        # w = 3, y = 0.6, result 0.1*1 + 0.9*0.6
        assert out[0] == pytest.approx(0.64, rel=1e-15)

    @pytest.mark.parametrize("build", [lambda: build_sfp(256), build_weber], ids=["sfp", "weber"])
    def test_is_the_viscosity_step_with_a_constant_map(self, build):
        # Halpern's step is the viscosity step with f = u, bit for bit, also
        # with inertia (delta > 0)
        spec = build()
        space, T = spec.space, spec.operator
        rng = np.random.default_rng(8)
        for _, x in spec.make_initials(rng, count=3):
            x_prev, u = x + rng.normal(size=space.size), rng.uniform(1.0, 9.0, space.size)
            for delta, psi, nu in ((0.3, 0.5, 0.2), (0.9, 0.1, 0.7)):
                want = mimva_step(space, T, x, x_prev, lambda p: u, delta, psi, nu)
                got = mimha_step(space, T, x, x_prev, u, delta, psi, nu)
                assert got.tobytes() == want.tobytes()


class TestMimvaStep:
    def test_zero_contraction_full_weight(self):
        f = lambda x: np.zeros(2)  # noqa: E731
        out = mimva_step(R2, IDENTITY_2D, arr(3.0, 3.0), arr(1.0, 1.0), f, 0.3, 0.5, 1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_zero_inertia_matches_plain_viscosity_composition(self):
        rng = np.random.default_rng(42)
        f = lambda p: 0.9 * p  # noqa: E731
        for _ in range(20):
            x = rng.normal(size=2)
            x_prev = rng.normal(size=2)
            psi, nu = rng.uniform(0, 1, size=2)
            a = mimva_step(R2, ZERO_MAP_2D, x, x_prev, f, 0.0, psi, nu)
            b = R2.combine(nu, f(x), mann_step(R2, ZERO_MAP_2D, x, psi))
            assert np.array_equal(a, b)

    def test_one_dimensional_example(self):
        f = lambda x: 0.9 * x  # noqa: E731
        out = mimva_step(R1, ZERO_MAP, arr(2.0), arr(0.0), f, 0.5, 0.2, 0.1)
        # 0.1*(0.9*2) + 0.9*0.6
        assert out[0] == pytest.approx(0.72, rel=1e-15)


class TestFixedPointRetention:
    def test_steps_hold_fixed_points(self):
        # projection onto a ball fixes interior points exactly
        space = EuclideanSpace(2)
        ball = Ball(np.zeros(2), 8.0)
        T = Operator(space, lambda x, out: project_ball(space, ball, x))
        p = arr(2.0, -4.0)  # dyadic so the convex combinations are exact
        assert np.array_equal(mann_step(space, T, p, 0.25), p)
        assert np.array_equal(inertial_mann(space, T, p, p, 0.5, 0.25), p)
        out = mimha_step(space, T, p, p, arr(1.0, 1.0), 0.5, 0.25, 0.25)
        assert np.array_equal(out, 0.25 * arr(1.0, 1.0) + 0.75 * p)


class TestFejerMonotonicity:
    def test_mann_never_moves_away_from_a_fixed_point(self):
        space = EuclideanSpace(3)
        ball = Ball(np.zeros(3), 1.0)
        T = Operator(space, lambda x, out: project_ball(space, ball, x))
        p = np.zeros(3)  # fixed point of T
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = rng.normal(size=3) * 5
            for n in range(30):
                x_next = mann_step(space, T, x, 1.0 / (n + 2))
                assert space.norm(x_next - p) <= space.norm(x - p) + 1e-10
                x = x_next

    @pytest.mark.parametrize("mode", PROJECTION_MODES)
    def test_cq_never_moves_toward_its_start_on_sfp(self, mode):
        # Nakajo-Takahashi: x_n is the projection of x_0 onto the cut Q_n, and
        # x_{n+1} its projection onto a subset of Q_n, so it is no nearer x_0
        spec = build_sfp(1024, mode=mode)
        space = spec.space
        config = replace(spec.defaults, schedules=spec.schedules_for("cq"))
        for name, x0 in spec.initial_cases:
            # the cq step hands x_n to T, and run reuses x_n's storage
            iterates = []

            def copying(x, out):
                iterates.append(x.copy())
                return spec.operator(x, out)

            trace = run("cq", Operator(space, copying), config, x0)
            assert trace.terminal_reason is TerminalReason.TOLERANCE_MET, name
            assert len(iterates) == trace.iterations, name
            dists = [space.norm(x - x0) for x in iterates]
            assert all(a <= b for a, b in zip(dists, dists[1:])), name


def contracting_operator(space, rate=0.5):
    return Operator(space, lambda x, out: rate * space.check(x))


def metric_to_zero(space):
    return lambda x: space.norm(x)


class TestRun:
    def test_starts_inside_tolerance(self):
        space = EuclideanSpace(2)
        config = RunConfig(error_metric=metric_to_zero(space), tolerance=1e-3)
        trace = run("mann", contracting_operator(space), config, np.zeros(2))
        assert trace.terminal_reason is TerminalReason.TOLERANCE_MET
        assert len(trace.records) == 1
        assert trace.records[0].n == 0
        assert trace.iterations == 0

    def test_trace_shape_and_cap(self):
        space = EuclideanSpace(2)
        config = RunConfig(
            error_metric=metric_to_zero(space), max_iterations=25, tolerance=1e-30
        )
        trace = run("mann", IDENTITY_2D, config, arr(1.0, 1.0))
        assert trace.terminal_reason is TerminalReason.MAX_ITERATIONS
        assert len(trace.records) == 26  # records n = 0..25
        assert trace.iterations == 25
        assert [r.n for r in trace.records] == list(range(26))

    def test_converges_on_contraction(self):
        space = EuclideanSpace(2)
        config = RunConfig(error_metric=metric_to_zero(space), tolerance=1e-6)
        trace = run("mann", contracting_operator(space), config, arr(4.0, 4.0))
        assert trace.terminal_reason is TerminalReason.TOLERANCE_MET
        assert trace.final_error < 1e-6

    def test_numeric_determinism(self):
        space = EuclideanSpace(3)
        ball = Ball(np.ones(3), 2.0)
        T = Operator(space, lambda x, out: project_ball(space, ball, x))
        config = RunConfig(
            error_metric=lambda x: space.norm(x - np.ones(3)),
            max_iterations=40,
            tolerance=1e-9,
        )
        x0 = arr(5.0, -3.0, 2.0)
        first = run("mimva", T, config, x0)
        second = run("mimva", T, config, x0)
        assert [r.error for r in first.records] == [r.error for r in second.records]
        assert [r.delta for r in first.records] == [r.delta for r in second.records]
        assert first.terminal_reason == second.terminal_reason

    def test_inertia_recorded_and_first_step_inertia_free(self):
        space = EuclideanSpace(2)
        config = RunConfig(
            error_metric=metric_to_zero(space), max_iterations=10, tolerance=1e-30
        )
        trace = run("mimva", contracting_operator(space), config, arr(2.0, 2.0))
        assert trace.records[0].delta == 0.0
        assert trace.records[1].delta == 0.0  # cap (n-1)/(n+eta-1) is 0 at n=1
        assert any(r.delta > 0 for r in trace.records[2:])

    def test_non_inertial_algorithms_record_zero_delta(self):
        space = EuclideanSpace(2)
        # the constant schedule would give every inertial engine delta 0.7
        for schedules in (Schedules(), Schedules(delta_mode="constant", delta_value=0.7)):
            config = RunConfig(
                error_metric=metric_to_zero(space),
                max_iterations=5,
                tolerance=1e-30,
                schedules=schedules,
            )
            for algorithm in ("mann", "cq", "mmha", "mmva"):
                trace = run(algorithm, contracting_operator(space), config, arr(2.0, 2.0))
                assert all(r.delta == 0.0 for r in trace.records)

    def test_zero_mode_reproduces_non_inertial_baselines_bitwise(self):
        space = EuclideanSpace(3)
        ball = Ball(np.zeros(3), 1.0)
        T = Operator(space, lambda x, out: project_ball(space, ball, x))
        config = RunConfig(
            error_metric=metric_to_zero(space), max_iterations=30, tolerance=1e-30
        )
        zeroed = RunConfig(
            error_metric=config.error_metric,
            max_iterations=30,
            tolerance=1e-30,
            schedules=Schedules(delta_mode="zero"),
        )
        x0 = arr(4.0, 1.0, -2.0)
        for base, modified in (("mmha", "mimha"), ("mmva", "mimva")):
            a = run(base, T, config, x0)
            b = run(modified, T, zeroed, x0)
            assert [r.error for r in a.records] == [r.error for r in b.records]
            assert [r.delta for r in a.records] == [r.delta for r in b.records]

    @pytest.mark.parametrize(
        "build",
        [build_weber, build_cfp, lambda: build_sfp(grid_points=256)],
        ids=["weber", "cfp", "sfp"],
    )
    @pytest.mark.parametrize("mann, viscosity", [("mann", "mmva"), ("inertial-mann", "mimva")])
    def test_mann_engines_are_the_viscosity_engines_at_nu_zero_bitwise(
        self, build, mann, viscosity
    ):
        spec = build()
        schedules = spec.schedules_for(mann)
        config = replace(spec.defaults, schedules=schedules)
        unblended = replace(config, schedules=replace(schedules, nu=lambda n: 0.0))
        x0 = spec.make_initials(1)[0][1]
        a = run(mann, spec.operator, config, x0)
        b = run(viscosity, spec.operator, unblended, x0)
        assert np.array(a.errors).tobytes() == np.array(b.errors).tobytes()
        assert np.array(a.deltas).tobytes() == np.array(b.deltas).tobytes()
        assert a.terminal_reason is b.terminal_reason

    def test_singularity_terminates_run(self):
        space = EuclideanSpace(2)

        def exploding(x, out):
            raise SingularityError("undefined here")

        T = Operator(space, exploding)
        config = RunConfig(error_metric=metric_to_zero(space), tolerance=1e-9)
        trace = run("mann", T, config, arr(1.0, 1.0))
        assert trace.terminal_reason is TerminalReason.SINGULARITY
        assert len(trace.records) == 1

    def test_explicit_previous_point_and_anchor(self):
        space = EuclideanSpace(1)
        T = Operator(space, lambda x, out: np.zeros(1))
        config = RunConfig(
            error_metric=metric_to_zero(space),
            max_iterations=1,
            tolerance=1e-30,
            schedules=Schedules(delta_mode="constant", delta_value=0.5),
        )
        trace = run(
            "mimha", T, config, arr(2.0), x_init_prev=arr(0.0), anchor=arr(1.0)
        )
        # n=0: nu=1 so x_1 = anchor; error at n=1 is |anchor|
        assert trace.records[1].error == pytest.approx(1.0)

    def test_records_rebuilt_from_the_columns(self):
        # a replay with the public step reproduces what run recorded per
        # iteration, and the records rebuilt from the columns hold it
        spec = build_weber()
        space, T = spec.space, spec.operator
        sched = spec.schedules_for("mimva")
        config = replace(spec.defaults, max_iterations=60, schedules=sched)
        x0 = spec.make_initials(np.random.default_rng(5))[0][1]
        trace = run("mimva", T, config, x0)

        rho = config.contraction_rho
        x_prev = x = x0
        expected = []
        for n in range(config.max_iterations + 1):
            delta = sched.delta(n, space.norm(x - x_prev))
            expected.append((n, float(config.error_metric(x)), delta))
            if n == config.max_iterations:
                break
            x_next = mimva_step(
                space, T, x, x_prev, lambda p: rho * p, delta, sched.psi(n), sched.nu(n)
            )
            x_prev, x = x, x_next

        records = trace.records
        assert all(type(r) is TraceRecord for r in records)
        assert [(r.n, r.error, r.delta) for r in records] == expected
        assert any(r.delta > 0 for r in records)
        assert [r.elapsed_s for r in records] == list(trace.elapsed)
        assert list(trace.elapsed) == sorted(trace.elapsed)
        assert trace.errors == tuple(e for _, e, _ in expected)
        assert trace.iterations == records[-1].n == 60
        assert trace.final_error == records[-1].error

    def test_unknown_algorithm(self):
        space = EuclideanSpace(1)
        config = RunConfig(error_metric=metric_to_zero(space))
        with pytest.raises(ValueError, match="unknown algorithm"):
            run("sgd", ZERO_MAP, config, arr(1.0))

    def test_all_listed_algorithms_run(self):
        space = EuclideanSpace(2)
        ball = Ball(np.zeros(2), 1.0)
        T = Operator(space, lambda x, out: project_ball(space, ball, x))
        config = RunConfig(
            error_metric=metric_to_zero(space), max_iterations=8, tolerance=1e-30
        )
        for algorithm in ALGORITHMS:
            trace = run(algorithm, T, config, arr(3.0, 0.5))
            assert trace.iterations == 8


class TestRunValidatesWhereArraysEnter:
    # the metric and the operators here do not validate, so only the checks
    # inside run can raise
    CONFIG = RunConfig(
        error_metric=lambda x: float(np.abs(x).max()), max_iterations=5, tolerance=1e-30
    )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_output_raises(self, algorithm, bad):
        T = Operator(R2, lambda x, out: np.full(2, bad))
        with pytest.raises(ValueError, match="finite"):
            run(algorithm, T, self.CONFIG, arr(1.0, 2.0))

    @pytest.mark.parametrize("algorithm", ("mmva", "mimva"))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_contraction_output_raises(self, algorithm, bad):
        with pytest.raises(ValueError, match="finite"):
            run(
                algorithm,
                ZERO_MAP_2D,
                self.CONFIG,
                arr(1.0, 2.0),
                contraction=lambda x: np.full(2, bad),
            )

    def test_nan_inertia_budget_raises_by_name(self):
        # xi(n) is first read at n = 2; a NaN budget made delta_2 NaN, and
        # the run died one step later on a NaN diff_norm
        config = replace(self.CONFIG, schedules=Schedules(xi=lambda n: float("nan")))
        with pytest.raises(ValueError, match=r"xi\(2\) must be nonnegative, got nan"):
            run("mimha", ZERO_MAP_2D, config, arr(1.0, 2.0), x_init_prev=arr(0.0, 0.0))

    def test_non_finite_start_raises(self):
        with pytest.raises(ValueError, match="finite"):
            run("mann", ZERO_MAP_2D, self.CONFIG, arr(1.0, np.nan))

    @pytest.mark.parametrize("entry", ["x_init", "x_init_prev", "anchor"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (arr(np.nan, 0.0), "finite"),
            (arr(0.0, np.inf), "finite"),
            (np.zeros(3), "coordinates"),
            (np.array([1.0 + 2.0j, 3.0]), "complex"),
            (np.array(["1", "2"]), "string"),
        ],
        ids=["nan", "inf", "shape", "complex", "string"],
    )
    def test_bad_entry_array_raises_before_the_first_step(self, entry, bad, message):
        # every array the caller passes is checked on entry, before T is called
        calls = []
        T = Operator(R2, lambda x, out: calls.append(1) or np.zeros(2))
        arrays = {"x_init": arr(1.0, 2.0), "x_init_prev": arr(0.5, 1.0), "anchor": arr(0.0, 1.0)}
        arrays[entry] = bad
        with pytest.raises(ValueError, match=message):
            run("mimha", T, self.CONFIG, **arrays)
        assert calls == []

    def test_cq_overflow_raises(self):
        # x - y overflows to inf in the CQ half-space normal
        T = Operator(EuclideanSpace(3), lambda x, out: -x)
        config = RunConfig(error_metric=sup_norm, max_iterations=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                run("cq", T, config, np.full(3, 1.5e308))

    def test_cq_overflowing_squared_norm_names_the_cut_normals(self):
        # x - y = 1.98 x is finite, but its squared norm overflows
        T = Operator(R2, lambda x, out: -x)
        config = RunConfig(error_metric=sup_norm, max_iterations=3)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="cut normals"):
                run("cq", T, config, arr(1e200, 0.0))


def reference_cq_errors(space, T, config, x_init):
    """The ``E_n`` of a CQ run, from public functions only.

    Each step is :func:`mann_step`, the two cuts written from their defining
    formulas with ``space.inner``, and :func:`project_halfspace_pair`.
    """
    x0 = x = space.check(x_init)
    errors = []
    for n in range(config.max_iterations + 1):
        errors.append(float(config.error_metric(x)))
        if errors[-1] < config.tolerance or n == config.max_iterations:
            break
        y = mann_step(space, T, x, config.schedules.psi(n))
        # ||y - u|| <= ||x - u||, the cut through (x + y)/2, and <x - u, x - x0> <= 0
        c = HalfSpace(x - y, space.inner(x - y, x) - 0.5 * space.inner(x - y, x - y))
        q = HalfSpace(x0 - x, space.inner(x0 - x, x))
        x = project_halfspace_pair(space, c, q, x0)
    return errors


class TestCqRunMatchesPublicSteps:
    """A CQ run gives, bit for bit, the ``E_n`` of the same iteration built
    from public functions, which form every Gram scalar on every step."""

    @staticmethod
    def assert_same_errors(spec, config, starts):
        config = replace(config, schedules=spec.schedules_for("cq"))
        for name, start in starts:
            trace = run("cq", spec.operator, config, start)
            want = reference_cq_errors(spec.space, spec.operator, config, start)
            assert np.array(trace.errors).tobytes() == np.array(want).tobytes(), name

    def test_cfp(self):
        spec = build_cfp(seed=0)
        config = replace(spec.defaults, max_iterations=200)
        starts = spec.make_initials(np.random.default_rng(5), 3)
        self.assert_same_errors(spec, config, starts)

    def test_sfp(self):
        spec = build_sfp(1024)
        self.assert_same_errors(spec, spec.defaults, spec.initial_cases)

    def test_weber(self):
        spec = build_weber()
        config = replace(spec.defaults, max_iterations=300)
        starts = spec.make_initials(np.random.default_rng(6), 3)
        self.assert_same_errors(spec, config, starts)


NON_CQ = tuple(a for a in ALGORITHMS if a != "cq")


def counted_checks(monkeypatch, space):
    """The list that gets one entry per ``space.check`` call from now on."""
    calls = []
    check = space.check

    def counted(x):
        calls.append(1)
        return check(x)

    monkeypatch.setattr(space, "check", counted)
    return calls


class TestValidationCount:
    """``run`` checks the start point and each operator output, and no more.

    The experiment specs iterate unchecked kernels and their metrics take
    the run's points as given, so a non-cq engine makes exactly one
    ``space.check`` call per iteration plus one for the start point. Pinned
    exactly, so that no change adds or hides a check.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_space_checks_per_cfp_iteration(self, algorithm, monkeypatch):
        spec = build_cfp(seed=0)
        calls = counted_checks(monkeypatch, spec.space)
        config = replace(
            spec.defaults, max_iterations=200, schedules=spec.schedules_for(algorithm)
        )
        start = spec.make_initials(np.random.default_rng(1))[0][1]
        trace = run(algorithm, spec.operator, config, start)
        assert trace.iterations == 200
        if algorithm == "cq":
            # the start point, then T(x) and the projected point per iteration
            # (the squared norms of the cut normals certify them); but x_0 lies
            # in both cuts of the first step (psi_0 = 1 makes them the whole
            # space), so that projection returns x_0 unchecked
            assert len(calls) == 2 * trace.iterations
        else:
            assert len(calls) == trace.iterations + 1

    def test_cq_inner_products_per_iteration(self, monkeypatch):
        # <x_0, x_0> once per run; per iteration the two squared normal
        # norms, the two cut offsets, <c, q> and <a_i, x_0>
        space = EuclideanSpace(3)
        calls = []
        inner = space._inner
        monkeypatch.setattr(space, "_inner", lambda u, v: calls.append(1) or inner(u, v))
        T = Operator(space, lambda x, out: 0.5 * x)
        config = RunConfig(error_metric=sup_norm, max_iterations=50, tolerance=1e-300)
        trace = run("cq", T, config, arr(1.0, 2.0, 3.0))
        assert trace.iterations == 50
        assert len(calls) == 1 + 7 * trace.iterations

    @pytest.mark.parametrize("algorithm", NON_CQ)
    def test_space_checks_per_sfp_iteration(self, algorithm, monkeypatch):
        spec = build_sfp(1024)
        calls = counted_checks(monkeypatch, spec.space)
        for name, start in spec.initial_cases:
            calls.clear()
            trace = run(algorithm, spec.operator, spec.defaults, start)
            assert trace.terminal_reason is TerminalReason.TOLERANCE_MET, name
            assert len(calls) == trace.iterations + 1, name

    @pytest.mark.parametrize("algorithm", NON_CQ)
    def test_space_checks_per_weber_iteration(self, algorithm, monkeypatch):
        spec = build_weber()
        calls = counted_checks(monkeypatch, spec.space)
        config = replace(spec.defaults, schedules=spec.schedules_for(algorithm))
        # the blended engines run to the cap, the others meet the tolerance
        blended = algorithm not in ("mann", "inertial-mann")
        reason = TerminalReason.MAX_ITERATIONS if blended else TerminalReason.TOLERANCE_MET
        for _, start in spec.make_initials(np.random.default_rng(3), 2):
            calls.clear()
            trace = run(algorithm, spec.operator, config, start)
            assert trace.terminal_reason is reason
            assert len(calls) == trace.iterations + 1


class TestSpecOperatorsPassNonFiniteOn:
    """A spec's unchecked operator maps a non-finite point to a non-finite
    result, so ``run``'s check of the operator output still ends the run."""

    @pytest.mark.parametrize("algorithm", ("inertial-mann", "mimha", "mimva"))
    @pytest.mark.parametrize(
        "build", [lambda: build_sfp(64), build_cfp, build_weber], ids=["sfp", "cfp", "weber"]
    )
    def test_overflowing_extrapolation_raises(self, build, algorithm):
        spec = build()
        schedules = replace(
            spec.schedules_for(algorithm), delta_mode="constant", delta_value=0.5
        )
        config = replace(spec.defaults, schedules=schedules)
        size = spec.space.size
        # w = x + 0.5 (x - x_prev) overflows to inf in the first step
        x_init, x_init_prev = np.full(size, 1e308), np.full(size, -1e308)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="finite"):
                run(algorithm, spec.operator, config, x_init, x_init_prev)


class TestInertiaNormCount:
    def test_constant_inertia_takes_no_norm(self, monkeypatch):
        # the constant delta rule ignores ||x_n - x_{n-1}||, so the only norms
        # of a cfp inertial-mann run are the operator's outer-ball projections
        spec = build_cfp(seed=0)
        space = spec.space
        sched = spec.schedules_for("inertial-mann")
        assert sched.delta_mode == "constant"
        calls = []
        norm = space._norm

        def counted(x):
            calls.append(1)
            return norm(x)

        monkeypatch.setattr(space, "_norm", counted)
        config = replace(spec.defaults, max_iterations=100, tolerance=1e-300, schedules=sched)
        start = spec.make_initials(np.random.default_rng(1))[0][1]
        trace = run("inertial-mann", spec.operator, config, start)
        assert trace.iterations == 100
        assert set(trace.deltas) == {0.5}
        assert len(calls) == 100


def budget_run(spec, algorithm, iterations):
    """The run the per-iteration counts take: to the cap, from the first seeded start."""
    config = replace(
        spec.defaults,
        max_iterations=iterations,
        tolerance=1e-300,
        schedules=spec.schedules_for(algorithm),
    )
    start = spec.make_initials(np.random.default_rng(1))[0][1]
    trace = run(algorithm, spec.operator, config, start)
    assert trace.iterations == iterations
    return trace


def profiled_run(spec, algorithm, iterations):
    """Python frames opened in fpiter's files, and ``ufunc.reduce`` calls, in one run."""
    package = os.path.dirname(fpiter.__file__) + os.sep
    counts = {"calls": 0, "reduces": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            counts["calls"] += 1
        elif event == "c_call" and getattr(arg, "__name__", None) == "reduce":
            counts["reduces"] += 1

    sys.setprofile(profile)
    try:
        budget_run(spec, algorithm, iterations)
    finally:
        sys.setprofile(None)
    return counts


class TestCallBudget:
    """A deterministic guard on the per-iteration cost of the narrow runs.

    On weber and cfp an iteration costs little arithmetic and many calls, so
    the number of Python frames and of ``ufunc.reduce`` calls (about 1 µs of
    set-up each, see :mod:`fpiter.space`) stands in for the time. Per
    iteration is the difference between a 200- and a 100-iteration run, so
    the run's set-up and its first steps (no inertia yet) drop out.
    """

    @pytest.mark.parametrize(
        "build, algorithm, calls, reduces",
        [
            (build_weber, "mimha", 17, 1),
            (build_weber, "mimva", 17, 1),
            (build_cfp, "mimva", 18, 0),
            (build_cfp, "mmva", 14, 0),
            (build_cfp, "inertial-mann", 13, 0),
            (build_cfp, "cq", 29, 0),
        ],
    )
    def test_calls_per_iteration(self, build, algorithm, calls, reduces):
        spec = build()
        short = profiled_run(spec, algorithm, 100)
        long = profiled_run(spec, algorithm, 200)
        assert long["calls"] - short["calls"] <= calls * 100
        assert long["reduces"] - short["reduces"] == reduces * 100


class OperandTypes:
    """numpy for ``fpiter.algorithms``, but ``multiply``, ``add`` and ``subtract``
    count their operands: Python and numpy scalars, and 0-d arrays."""

    def __init__(self):
        self.scalars = self.registers = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _count(self, ufunc, a, b, *rest):
        for operand in (a, b):
            if isinstance(operand, (int, float, np.generic)):
                self.scalars += 1
            elif isinstance(operand, np.ndarray) and operand.ndim == 0:
                self.registers += 1
        return ufunc(a, b, *rest)

    def multiply(self, *args):
        return self._count(np.multiply, *args)

    def add(self, *args):
        return self._count(np.add, *args)

    def subtract(self, *args):
        return self._count(np.subtract, *args)


class TestNoScalarOperand:
    """Every scalar·vector product of a step reads a 0-d array, the coefficient
    register or the default contraction's ``rho`` (see the comment above
    ``fpiter.algorithms._blend``), never a Python or numpy scalar, which takes
    numpy's slower scalar path. Per iteration as in :class:`TestCallBudget`,
    so ``run``'s one-time default anchor product drops out."""

    @pytest.mark.parametrize(
        "build, algorithm, registers",
        [
            (build_weber, "mimha", 5),
            (build_weber, "mimva", 6),
            (build_cfp, "mmva", 5),
            (build_cfp, "mimva", 6),
            (build_cfp, "inertial-mann", 3),
            (build_cfp, "cq", 2),
        ],
    )
    def test_step_products_read_registers(self, build, algorithm, registers, monkeypatch):
        spec = build()
        counts = []
        for iterations in (100, 200):
            proxy = OperandTypes()
            monkeypatch.setattr(fpiter.algorithms, "np", proxy)
            budget_run(spec, algorithm, iterations)
            counts.append((proxy.scalars, proxy.registers))
        (short_scalars, short_registers), (long_scalars, long_registers) = counts
        assert long_scalars - short_scalars == 0
        assert long_registers - short_registers == registers * 100


class TestCoefficientRegisters:
    """Reusing the register keeps every coefficient: each step of a run (one
    register for all its products and steps) and each public step (a fresh
    register) equals its product-by-product formula in Python floats, in
    ``_blend``'s operand order."""

    @pytest.mark.parametrize("dim", [3, 30])
    def test_steps_equal_the_float_formula(self, dim):
        space = EuclideanSpace(dim)
        rng = np.random.default_rng(dim)
        shift = rng.normal(size=dim)
        T = Operator(space, lambda w, out: np.add(np.multiply(w, 0.5, out), shift, out))
        steps = 200
        # run reads xi at n = steps too: the last entry's delta
        psis, nus, xis = rng.uniform(0.0, 1.0, size=(3, steps + 1)).tolist()
        rho = float(rng.uniform(0.0, 1.0))
        schedules = Schedules(psi=psis.__getitem__, nu=nus.__getitem__, xi=xis.__getitem__)
        points = []
        config = RunConfig(
            error_metric=lambda x: points.append(x.tolist()) or 1.0,
            max_iterations=steps,
            tolerance=1e-300,
            schedules=schedules,
            contraction_rho=rho,
        )
        trace = run("mimva", T, config, rng.normal(size=dim), rng.normal(size=dim))
        assert trace.iterations == steps
        assert sum(d > 0.0 for d in trace.deltas) > steps // 2
        x_prev = points[0]
        for n, (x, x_next) in enumerate(zip(points, points[1:])):
            delta, psi, nu = trace.deltas[n], psis[n], nus[n]
            w = x if delta == 0.0 else [a + (a - b) * delta for a, b in zip(x, x_prev)]
            tw = T(np.array(w), None).tolist()
            y = [a * psi + b * (1.0 - psi) for a, b in zip(w, tw)]
            want = [rho * a * nu + b * (1.0 - nu) for a, b in zip(x, y)]
            public = mimva_step(space, T, x, x_prev, lambda p: rho * p, delta, psi, nu)
            assert np.array(x_next).tobytes() == np.array(want).tobytes(), n
            assert public.tobytes() == np.array(want).tobytes(), n
            x_prev = x

    def test_blend_range_is_closed(self):
        x, x_prev, u = arr(2.0, -1.0), arr(1.0, 0.5), arr(3.0, 4.0)
        assert np.array_equal(mann_step(R2, ZERO_MAP_2D, x, 1.0), x)
        assert np.array_equal(mann_step(R2, ZERO_MAP_2D, x, 0.0), np.zeros(2))
        assert np.array_equal(mimha_step(R2, ZERO_MAP_2D, x, x_prev, u, 0.5, 0.0, 1.0), u)
        y = mimha_step(R2, ZERO_MAP_2D, x, x_prev, u, 0.5, 1.0, 0.0)
        assert np.array_equal(y, arr(2.5, -1.75))
        for bad in (math.nextafter(1.0, 2.0), -5e-324):
            with pytest.raises(ValueError, match="psi must lie in"):
                mann_step(R2, ZERO_MAP_2D, x, bad)
            with pytest.raises(ValueError, match="psi must lie in"):
                mimha_step(R2, ZERO_MAP_2D, x, x_prev, u, 0.5, bad, 0.5)
            with pytest.raises(ValueError, match="nu must lie in"):
                mimha_step(R2, ZERO_MAP_2D, x, x_prev, u, 0.5, 0.5, bad)


class TestRunConfigValidation:
    def test_bounds(self):
        metric = lambda x: 0.0  # noqa: E731
        with pytest.raises(ValueError):
            RunConfig(error_metric=metric, max_iterations=0)
        with pytest.raises(ValueError):
            RunConfig(error_metric=metric, tolerance=0.0)
        with pytest.raises(ValueError):
            RunConfig(error_metric=metric, contraction_rho=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="anchor_scale"):
                RunConfig(error_metric=metric, anchor_scale=bad)

    def test_max_iterations_must_be_an_integer(self):
        metric = lambda x: 0.0  # noqa: E731
        config = RunConfig(error_metric=metric)
        for bad in (10.5, 10.0, np.float64(3.0), "10", None):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                replace(config, max_iterations=bad)
        numpy_cap = replace(config, max_iterations=np.int64(7), error_metric=lambda x: 1.0)
        T = Operator(EuclideanSpace(2), lambda x, out: 0.5 * x)
        assert run("mann", T, numpy_cap, np.ones(2)).iterations == 7
