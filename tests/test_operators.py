import math

import numpy as np
import pytest

from fpiter.operators import (
    ANCHOR_SINGULARITY_TOL,
    PROJECTION_MODES,
    AnchorSet,
    Ball,
    BallSet,
    HalfSpace,
    InfeasibleSetError,
    Operator,
    SingularityError,
    cfp_operator,
    project_ball,
    project_halfspace,
    project_halfspace_pair,
    project_integral_halfspace,
    project_l2_ball,
    sfp_operator,
    weiszfeld_map,
)
from fpiter.operators import (
    _cq_halfspaces,
    _integral_divisor,
    _project_ball,
    _project_halfspace,
    _project_halfspace_pair,
    _project_integral_halfspace,
    _sfp_sweep,
    _weiszfeld,
)
from fpiter.space import TWO_PI, EuclideanSpace, InnerProductSpace, PeriodicGridSpace
from reference_spaces import DoubledDotSpace, brute_force_pair_projection

R2 = EuclideanSpace(2)
GRID = PeriodicGridSpace(1024)
R30 = EuclideanSpace(30)
# non-uniform weights, so a row-norm that ignored them would show
WEIGHTED30 = InnerProductSpace(30, np.random.default_rng(7).uniform(0.2, 3.0, 30))
# a one-pass inner product, so a row-norm in the base class's form would show
GRID30 = PeriodicGridSpace(30)


ROW_NORM_SPACES = pytest.mark.parametrize(
    "space",
    [R30, WEIGHTED30, GRID30, DoubledDotSpace(30, np.ones(30))],
    ids=["euclidean", "weighted", "grid", "inner-only"],
)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes (``-0.0`` and ``0.0`` differ here)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pair_kernel(space, h1, h2, x):
    """The pair kernel on the three squared norms that its callers form."""
    a1, a2 = h1.normal, h2.normal
    g11, g22 = space._inner(a1, a1), space._inner(a2, a2)
    return _project_halfspace_pair(
        space, a1, h1.offset, a2, h2.offset, g11, g22, x, space._inner(x, x)
    )

CUBE_ANCHORS = AnchorSet(
    anchors=np.array(
        [
            [0.0, 0.0, 0.0],
            [10.0, 0.0, 0.0],
            [0.0, 10.0, 0.0],
            [10.0, 10.0, 0.0],
            [0.0, 0.0, 10.0],
            [10.0, 0.0, 10.0],
            [0.0, 10.0, 10.0],
            [10.0, 10.0, 10.0],
        ]
    ),
    weights=np.ones(8),
)


class TestHalfSpaceProjection:
    def test_feasible_point_unchanged(self):
        h = HalfSpace(np.array([1.0, 0.0]), 0.0)
        x = np.array([-1.0, 5.0])
        assert np.array_equal(project_halfspace(R2, h, x), x)

    def test_axis_projection(self):
        h = HalfSpace(np.array([1.0, 0.0]), 0.0)
        assert np.allclose(project_halfspace(R2, h, [2.0, 3.0]), [0.0, 3.0], atol=1e-15)

    def test_diagonal_projection(self):
        h = HalfSpace(np.array([1.0, 1.0]), 0.0)
        assert np.allclose(project_halfspace(R2, h, [1.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_zero_normal_whole_space(self):
        h = HalfSpace(np.zeros(2), 0.0)
        x = np.array([7.0, -3.0])
        assert np.array_equal(project_halfspace(R2, h, x), x)

    def test_empty_halfspace_raises(self):
        h = HalfSpace(np.zeros(2), -1.0)
        with pytest.raises(InfeasibleSetError):
            project_halfspace(R2, h, [0.0, 0.0])

    def test_grid_space_projection_respects_quadrature(self):
        normal = np.ones(GRID.size)
        h = HalfSpace(normal, 1.0)
        x = np.ones(GRID.size)
        out = project_halfspace(GRID, h, x)
        assert GRID.inner(normal, out) <= 1.0 + 1e-10


class TestBallProjection:
    def test_interior_point_unchanged(self):
        ball = Ball(np.zeros(2), 1.0)
        x = np.array([0.5, 0.0])
        assert np.array_equal(project_ball(R2, ball, x), x)

    def test_radial_projection(self):
        ball = Ball(np.zeros(2), 1.0)
        assert np.allclose(project_ball(R2, ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_boundary_point_uses_feasible_branch(self):
        space = EuclideanSpace(4)
        ball = Ball(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        origin = space.zeros()
        assert np.array_equal(project_ball(space, ball, origin), origin)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)

    @pytest.mark.parametrize(
        "make, stored",
        [
            (lambda a: Ball(a, 1.0), lambda s: s.center),
            (lambda a: HalfSpace(a, 0.0), lambda s: s.normal),
        ],
        ids=["ball", "halfspace"],
    )
    def test_sets_keep_a_read_only_copy_of_the_callers_array(self, make, stored):
        given = np.zeros(2)
        kept = stored(make(given))
        given[0] = 5.0
        assert same_bits(kept, np.zeros(2))
        assert not kept.flags.writeable

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_ball_and_ball_set_share_the_radius_rule(self, bad):
        # an infinite radius used to pass Ball and fail only in a BallSet
        with pytest.raises(ValueError, match="ball radius must be finite and strictly positive"):
            Ball(np.zeros(2), bad)
        with pytest.raises(ValueError, match="ball radii must be finite and strictly positive"):
            BallSet(np.zeros((3, 2)), [1.0, bad, 1.0])


class TestIntegralHalfspaceProjection:
    def test_feasible_function_unchanged(self):
        x = GRID.zeros()
        assert np.array_equal(project_integral_halfspace(GRID, x), x)

    def test_damped_correction_on_constant_one(self):
        x = np.ones(GRID.size)
        out = project_integral_halfspace(GRID, x, mode="damped")
        expected = 1.0 + (1.0 - TWO_PI) / (4 * math.pi**2)
        assert np.allclose(out, expected, rtol=1e-12)

    def test_exact_mode_lands_on_boundary(self):
        x = np.ones(GRID.size)
        out = project_integral_halfspace(GRID, x, mode="exact")
        expected = 1.0 + (1.0 - TWO_PI) / TWO_PI
        assert np.allclose(out, expected, rtol=1e-12)
        assert GRID.integrate(out) == pytest.approx(1.0, abs=1e-10)

    def test_damped_moves_toward_but_not_onto_the_set(self):
        x = np.ones(GRID.size)
        out = project_integral_halfspace(GRID, x, mode="damped")
        assert 1.0 < GRID.integrate(out) < GRID.integrate(x)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            project_integral_halfspace(GRID, GRID.zeros(), mode="verbatim")
        with pytest.raises(TypeError):
            project_integral_halfspace(EuclideanSpace(3), np.zeros(3))


class TestSinBallProjection:
    def test_center_unchanged(self):
        s = GRID.from_function(np.sin)
        assert np.array_equal(project_l2_ball(GRID, s), s)

    def test_zero_is_inside(self):
        x = GRID.zeros()  # squared distance to sin is pi <= 16
        assert np.array_equal(project_l2_ball(GRID, x), x)

    def test_shifted_sin_projects_radially(self):
        s = GRID.from_function(np.sin)
        x = s + 8.0  # squared distance 64 * 2 pi
        out = project_l2_ball(GRID, x)
        expected = s + 32.0 / math.sqrt(128 * math.pi)
        assert np.allclose(out, expected, rtol=1e-10)
        r = out - s
        assert GRID.inner(r, r) <= 16.0 + 1e-8


class TestCqHalfspaces:
    # _cq_halfspaces takes validated arrays, as the CQ step of run passes them
    def test_equal_iterates_give_whole_space(self):
        x = np.array([1.0, 2.0])
        c, c_offset, q, q_offset, g11, _ = _cq_halfspaces(R2, x, x, np.array([5.0, 5.0]))
        assert np.array_equal(c, np.zeros(2))
        assert c_offset == 0.0
        assert g11 == 0.0

    def test_start_at_current_gives_whole_space_cut(self):
        x = np.array([1.0, 2.0])
        y = np.array([0.5, 0.5])
        c, c_offset, q, q_offset, _, g22 = _cq_halfspaces(R2, x, y, x)
        assert np.array_equal(q, np.zeros(2))
        assert q_offset == 0.0
        assert g22 == 0.0

    def test_hand_expanded_example(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 0.0])
        x0 = np.array([2.0, 0.0])
        c, c_offset, q, q_offset, g11, g22 = _cq_halfspaces(R2, x, y, x0)
        assert (g11, g22) == (1.0, 1.0)
        # ||y - u|| <= ||x - u||  <=>  u_1 <= 1/2
        assert np.allclose(c, [1.0, 0.0])
        assert c_offset == pytest.approx(0.5)
        # <x - u, x - x0> <= 0  <=>  u_1 <= 1 (normal rescaled by -1)
        assert np.allclose(q, [1.0, 0.0])
        assert q_offset == pytest.approx(1.0)

    def test_sets_agree_with_defining_inequalities(self):
        rng = np.random.default_rng(31)
        space = EuclideanSpace(4)
        for _ in range(200):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            x0 = rng.normal(size=4)
            u = rng.normal(size=4) * 2
            c, c_offset, q, q_offset, g11, g22 = _cq_halfspaces(space, x, y, x0)
            # the squared norms of the normals, with the space's bits
            assert g11 == space.inner(c, c)
            assert g22 == space.inner(q, q)
            in_c = space.norm(y - u) <= space.norm(x - u)
            in_c_half = space.inner(c, u) <= c_offset + 1e-9
            assert in_c == in_c_half or abs(space.norm(y - u) - space.norm(x - u)) < 1e-7
            in_q = space.inner(x - u, x - x0) <= 0
            in_q_half = space.inner(q, u) <= q_offset + 1e-9
            assert in_q == in_q_half or abs(space.inner(x - u, x - x0)) < 1e-7

    def test_overflowing_normal_rejected(self):
        x = np.full(2, 1.5e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            _cq_halfspaces(R2, x, -x, x)

    @pytest.mark.parametrize("x0", [[0.0, 1.0], [-1e200, 0.0]], ids=["c", "both"])
    def test_normal_with_overflowing_squared_norm_rejected(self, x0):
        # x - y = (2e200, 0) is finite, but its squared norm overflows
        x = np.array([1e200, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="cut normals"):
            _cq_halfspaces(R2, x, -x, np.array(x0))

    def test_finite_normal_squared_norms_pass(self):
        # ||x - y||^2 = 4e300 is large but finite
        x = np.array([1e150, 0.0])
        *_, g11, g22 = _cq_halfspaces(R2, x, -x, np.array([0.0, 1.0]))
        assert math.isfinite(g11) and math.isfinite(g22)


class TestHalfspacePairProjection:
    def test_corner(self):
        h1 = HalfSpace(np.array([1.0, 0.0]), 0.0)
        h2 = HalfSpace(np.array([0.0, 1.0]), 0.0)
        assert np.allclose(
            project_halfspace_pair(R2, h1, h2, [1.0, 1.0]), [0.0, 0.0], atol=1e-15
        )

    def test_feasible_point_unchanged(self):
        h1 = HalfSpace(np.array([1.0, 0.0]), 0.0)
        h2 = HalfSpace(np.array([0.0, 1.0]), 0.0)
        x = np.array([-1.0, -1.0])
        assert np.array_equal(project_halfspace_pair(R2, h1, h2, x), x)

    def test_redundant_constraint(self):
        h1 = HalfSpace(np.array([1.0, 0.0]), 0.0)
        h2 = HalfSpace(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(
            project_halfspace_pair(R2, h1, h2, [2.0, 0.0]), [0.0, 0.0], atol=1e-15
        )

    def test_whole_space_cut_reduces_to_single_projection(self):
        h1 = HalfSpace(np.zeros(2), 0.0)
        h2 = HalfSpace(np.array([1.0, 0.0]), 0.0)
        assert np.allclose(
            project_halfspace_pair(R2, h1, h2, [3.0, 1.0]), [0.0, 1.0], atol=1e-15
        )

    def test_empty_intersection_raises(self):
        h1 = HalfSpace(np.array([1.0, 0.0]), -1.0)  # x1 <= -1
        h2 = HalfSpace(np.array([-1.0, 0.0]), -1.0)  # x1 >= 1
        with pytest.raises(InfeasibleSetError):
            project_halfspace_pair(R2, h1, h2, [0.0, 0.0])

    def test_matches_oracle_smoke(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            space = EuclideanSpace(dim)
            a1 = rng.normal(size=dim)
            a2 = rng.normal(size=dim)
            z = rng.normal(size=dim) * 2
            b1 = a1 @ z + abs(rng.normal() * 0.3)
            b2 = a2 @ z + abs(rng.normal() * 0.3)
            x = rng.normal(size=dim) * 3
            mine = project_halfspace_pair(space, HalfSpace(a1, b1), HalfSpace(a2, b2), x)
            oracle = brute_force_pair_projection(a1, b1, a2, b2, x)
            assert np.linalg.norm(mine - oracle) <= 1e-8


class TestCqKernelsMatchWrappers:
    """The unchecked kernels that a run calls give the public functions' bits."""

    SPACES = pytest.mark.parametrize(
        "space", [R30, WEIGHTED30], ids=["euclidean", "weighted"]
    )

    @SPACES
    def test_single_and_pair_projections(self, space):
        rng = np.random.default_rng(22)
        branches = set()
        for _ in range(400):
            a1, a2 = rng.normal(size=30), rng.normal(size=30)
            z = rng.normal(size=30)
            h1 = HalfSpace(a1, float(space.inner(a1, z)) + rng.uniform(-1.0, 3.0))
            h2 = HalfSpace(a2, float(space.inner(a2, z)) + rng.uniform(-1.0, 3.0))
            x = z + rng.normal(size=30) * rng.uniform(0.1, 3.0)
            for hs in (h1, h2):
                assert same_bits(
                    project_halfspace(space, hs, x),
                    _project_halfspace(
                        space, hs.normal, hs.offset, space.inner(hs.normal, hs.normal),
                        x, space.inner(hs.normal, x),
                    ),
                )
            out = project_halfspace_pair(space, h1, h2, x)
            assert same_bits(out, pair_kernel(space, h1, h2, x))
            branches.add(
                "x" if out is x
                else "p1" if same_bits(out, project_halfspace(space, h1, x))
                else "p2" if same_bits(out, project_halfspace(space, h2, x))
                else "both"
            )
        # every case of the active-set analysis was exercised
        assert branches == {"x", "p1", "p2", "both"}

    def test_pair_kernel_takes_the_squared_norms_from_its_caller(self, monkeypatch):
        space = EuclideanSpace(30)
        plain = EuclideanSpace(30)  # uncounted, to tell the branches apart
        rng = np.random.default_rng(24)
        inner = space._inner
        grams = []
        calls = []

        def counted(u, v):
            calls.append(1)
            if u is v:
                grams.append(u)
            return inner(u, v)

        monkeypatch.setattr(space, "_inner", counted)
        check = space.check
        checks = []
        monkeypatch.setattr(space, "check", lambda u: checks.append(1) or check(u))
        both_active = 0
        for _ in range(200):
            a1, a2, z = rng.normal(size=30), rng.normal(size=30), rng.normal(size=30)
            h1 = HalfSpace(a1, float(a1 @ z) + rng.uniform(-1.0, 3.0))
            h2 = HalfSpace(a2, float(a2 @ z) + rng.uniform(-1.0, 3.0))
            x = z + rng.normal(size=30) * 2.0
            g11, g22, xx = plain._inner(a1, a1), plain._inner(a2, a2), plain._inner(x, x)
            grams.clear()
            calls.clear()
            checks.clear()
            out = _project_halfspace_pair(space, a1, h1.offset, a2, h2.offset, g11, g22, x, xx)
            # <a_i, a_i> and ||x||^2 come from the caller and are not formed again
            assert grams == []
            if not (
                out is x
                or same_bits(out, project_halfspace(plain, h1, x))
                or same_bits(out, project_halfspace(plain, h2, x))
            ):
                both_active += 1
                # <a_1, a_2> and <a_i, x> once each; the single projections
                # are tested from these, never formed
                assert len(calls) == 3
                assert len(checks) == 1
        assert both_active > 0

    def test_cq_sets_of_a_cfp_step(self):
        space = R30
        rng = np.random.default_rng(23)
        balls = TestCfpOperator().paper_balls()
        x0 = rng.uniform(0.0, 10.0, 30)
        x = x0
        for n in range(20):
            psi = 1.0 / (n + 2)
            y = psi * x + (1.0 - psi) * cfp_operator(space, balls, x)
            cuts = _cq_halfspaces(space, x, y, x0)
            c, c_offset, q, q_offset, _, _ = cuts
            out = project_halfspace_pair(space, HalfSpace(c, c_offset), HalfSpace(q, q_offset), x0)
            assert same_bits(out, _project_halfspace_pair(space, *cuts, x0, space._inner(x0, x0)))
            x = out


NAN2 = np.array([np.nan, 0.0])
INF2 = np.array([0.0, np.inf])
WRONG = np.zeros(3)
BAD_ARRAYS = pytest.mark.parametrize("bad", [NAN2, INF2, WRONG], ids=["nan", "inf", "shape"])
H = HalfSpace(np.array([1.0, 0.0]), 0.0)


def reference_pair_projection(space, h1, h2, x):
    """The trial-projection procedure: form each single projection as a
    vector and test it against the other constraint with two more inner
    products; then solve the 2x2 Gram system."""

    def within(hs, u):
        slack = 1e-12 * (1.0 + abs(hs.offset) + space.norm(hs.normal) * space.norm(u))
        return space.inner(hs.normal, u) <= hs.offset + slack

    if within(h1, x) and within(h2, x):
        return x
    p1 = project_halfspace(space, h1, x)
    if within(h2, p1):
        return p1
    p2 = project_halfspace(space, h2, x)
    if within(h1, p2):
        return p2
    a1, a2 = h1.normal, h2.normal
    g11, g22, g12 = space.inner(a1, a1), space.inner(a2, a2), space.inner(a1, a2)
    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * g11 * g22:
        raise InfeasibleSetError("half-space intersection is empty")
    r1 = space.inner(a1, x) - h1.offset
    r2 = space.inner(a2, x) - h2.offset
    mu1 = (g22 * r1 - g12 * r2) / det
    mu2 = (g11 * r2 - g12 * r1) / det
    tol = 1e-12 * (1.0 + abs(mu1) + abs(mu2))
    if mu1 < -tol or mu2 < -tol:
        raise InfeasibleSetError("half-space intersection is empty")
    return space.check((x - a1 * max(mu1, 0.0)) - a2 * max(mu2, 0.0))


def pair_outcome(projection, space, h1, h2, x):
    """The returned bits, or the raised error's type and message."""
    try:
        return projection(space, h1, h2, x).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestPairProjectionMatchesTrialProjections:
    """Deciding the active set from Gram scalars returns the trial-projection
    procedure's bits, or raises its error, on every case and border."""

    SPACES = pytest.mark.parametrize(
        "space", [R30, WEIGHTED30, PeriodicGridSpace(30)], ids=["euclidean", "weighted", "grid"]
    )

    @staticmethod
    def branch(space, h1, h2, x):
        out = pair_kernel(space, h1, h2, x)
        if out is x:
            return "x"
        if same_bits(out, project_halfspace(space, h1, x)):
            return "p1"
        return "p2" if same_bits(out, project_halfspace(space, h2, x)) else "both"

    def assert_same(self, space, h1, h2, x):
        want = pair_outcome(reference_pair_projection, space, h1, h2, x)
        assert pair_outcome(pair_kernel, space, h1, h2, x) == want
        assert pair_outcome(project_halfspace_pair, space, h1, h2, x) == want

    @SPACES
    def test_each_active_set(self, space):
        rng = np.random.default_rng(31)
        a1, a2 = rng.normal(size=30), rng.normal(size=30)
        a2 -= a1 * (space.inner(a1, a2) / space.inner(a1, a1))  # <a1, a2> = 0
        z = rng.normal(size=30)
        cases = {
            "x": (z, 1.0, 1.0),
            "p1": (z + a1, 0.5, 1.0),
            "p2": (z + a2, 1.0, 0.5),
            "both": (z + a1 + a2, 0.5, 0.5),
        }
        for branch, (x, s1, s2) in cases.items():
            h1 = HalfSpace(a1, space.inner(a1, z) + s1 * space.inner(a1, a1))
            h2 = HalfSpace(a2, space.inner(a2, z) + s2 * space.inner(a2, a2))
            assert self.branch(space, h1, h2, x) == branch
            self.assert_same(space, h1, h2, x)

    @SPACES
    def test_single_projection_on_the_other_boundary(self, space):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a1, x = rng.normal(size=30), rng.normal(size=30) * 3.0
            h1 = HalfSpace(a1, space.inner(a1, x) - rng.uniform(0.1, 2.0))
            p1 = project_halfspace(space, h1, x)
            # <a1, a2> > 0 puts x outside h2 while p1 lies on its boundary
            a2 = a1 + rng.normal(size=30) * 0.5
            h2 = HalfSpace(a2, space.inner(a2, p1))
            assert space.inner(a2, x) > h2.offset
            assert self.branch(space, h1, h2, x) == "p1"
            self.assert_same(space, h1, h2, x)
            self.assert_same(space, h2, h1, x)

    def test_single_projection_within_the_slack_of_the_other_boundary(self):
        # p1 = (0, 5) overshoots h2 by 1e-11, inside the slack
        # 1e-12 (1 + |b2| + ||a2|| ||p1||) ~ 1.3e-11 only with ||p1|| = 5
        x = np.array([10.0, 5.0])
        h1 = HalfSpace(np.array([1.0, 0.0]), 0.0)
        h2 = HalfSpace(np.array([1.0, 1.0]), 5.0 - 1e-11)
        assert self.branch(R2, h1, h2, x) == "p1"
        self.assert_same(R2, h1, h2, x)
        self.assert_same(R2, h2, h1, x)

    @SPACES
    def test_point_on_a_boundary(self, space):
        rng = np.random.default_rng(33)
        for _ in range(200):
            a1, a2, x = rng.normal(size=30), rng.normal(size=30), rng.normal(size=30)
            on = HalfSpace(a1, space.inner(a1, x))
            other = HalfSpace(a2, space.inner(a2, x) + rng.uniform(-2.0, 1.0))
            self.assert_same(space, on, other, x)
            self.assert_same(space, other, on, x)

    @SPACES
    def test_opposing_parallel_normals(self, space):
        rng = np.random.default_rng(34)
        seen = set()
        for _ in range(200):
            a, x = rng.normal(size=30), rng.normal(size=30)
            ax = space.inner(a, x)
            # the slab {ax + lo <= <a, u> <= ax + hi}, empty when lo > hi
            lo, hi = rng.uniform(-2.0, 2.0, 2)
            c = rng.uniform(0.5, 2.0)
            h1 = HalfSpace(a, ax + hi)
            h2 = HalfSpace(-c * a, -c * (ax + lo))
            seen.add(pair_outcome(reference_pair_projection, space, h1, h2, x)[0])
            self.assert_same(space, h1, h2, x)
            self.assert_same(space, h2, h1, x)
        assert InfeasibleSetError in seen and len(seen) > 1

    @SPACES
    def test_zero_normal(self, space):
        rng = np.random.default_rng(35)
        zero = np.zeros(30)
        for _ in range(50):
            a, x = rng.normal(size=30), rng.normal(size=30)
            for h0 in (HalfSpace(zero, -1.0), HalfSpace(zero, 0.0)):
                h = HalfSpace(a, space.inner(a, x) + rng.uniform(-2.0, 2.0))
                self.assert_same(space, h0, h, x)
                self.assert_same(space, h, h0, x)
        with pytest.raises(InfeasibleSetError, match="zero normal"):
            pair_kernel(space, HalfSpace(zero, -1.0), HalfSpace(zero, 0.0), x)

    @SPACES
    def test_random_pairs(self, space):
        rng = np.random.default_rng(36)
        for _ in range(500):
            a1, a2, z = rng.normal(size=30), rng.normal(size=30), rng.normal(size=30)
            if rng.uniform() < 0.2:
                a2 = a1 * rng.uniform(-2.0, 2.0)
            h1 = HalfSpace(a1, space.inner(a1, z) + rng.uniform(-1.0, 3.0))
            h2 = HalfSpace(a2, space.inner(a2, z) + rng.uniform(-1.0, 3.0))
            x = z + rng.normal(size=30) * rng.uniform(0.1, 5.0)
            self.assert_same(space, h1, h2, x)


class TestCqWrappersValidate:
    @BAD_ARRAYS
    def test_project_halfspace(self, bad):
        with pytest.raises(ValueError):
            project_halfspace(R2, H, bad)
        with pytest.raises(ValueError):
            project_halfspace(R2, HalfSpace(bad, 0.0), np.ones(2))

    @BAD_ARRAYS
    def test_project_halfspace_pair(self, bad):
        with pytest.raises(ValueError):
            project_halfspace_pair(R2, H, H, bad)
        with pytest.raises(ValueError):
            project_halfspace_pair(R2, HalfSpace(bad, 0.0), H, np.ones(2))
        with pytest.raises(ValueError):
            project_halfspace_pair(R2, H, HalfSpace(bad, 0.0), np.ones(2))

    @pytest.mark.parametrize("offset", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "inf"])
    def test_non_finite_offset_rejected(self, offset):
        bad = HalfSpace(np.array([1.0, 0.0]), offset)
        x = np.ones(2)
        for project in (
            lambda: project_halfspace(R2, bad, x),
            lambda: project_halfspace_pair(R2, bad, H, x),
            lambda: project_halfspace_pair(R2, H, bad, x),
        ):
            with pytest.raises(ValueError, match="offset must be finite"):
                project()

    def test_list_normal_accepted(self):
        out = project_halfspace(R2, HalfSpace([1.0, 0.0], 0.0), [2.0, 1.0])
        assert np.array_equal(out, [0.0, 1.0])

    def test_normal_with_overflowing_squared_norm_rejected(self):
        # a = (1e200, 0) is finite, but <a, a> overflows: every multiplier
        # would be 0, and x = (1, 1) would come back outside {u_1 <= 0}
        big = HalfSpace(np.array([1e200, 0.0]), 0.0)
        below = HalfSpace(np.array([0.0, 1.0]), 0.0)
        x = np.ones(2)
        for project, name in (
            (lambda: project_halfspace(R2, big, x), "half-space"),
            (lambda: project_halfspace_pair(R2, big, below, x), "h1"),
            (lambda: project_halfspace_pair(R2, below, big, x), "h2"),
        ):
            with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=f"^{name} normal must have a finite squared norm"
            ):
                project()

    def test_large_normal_with_finite_squared_norm_projects(self):
        # <a, a> = 1e300 is large but finite
        a = HalfSpace(np.array([1e150, 0.0]), 0.0)
        out = project_halfspace(R2, a, np.ones(2))
        assert np.allclose(out, [0.0, 1.0], rtol=0.0, atol=1e-15)
        out = project_halfspace_pair(R2, a, HalfSpace(np.array([0.0, 1.0]), 0.0), np.ones(2))
        assert np.allclose(out, [0.0, 0.0], rtol=0.0, atol=1e-15)


class TestSfpOperator:
    def test_zero_is_fixed_exactly(self):
        zero = GRID.zeros()
        assert np.array_equal(sfp_operator(GRID, zero), zero)

    def test_sin_is_fixed(self):
        s = GRID.from_function(np.sin)
        assert np.array_equal(sfp_operator(GRID, s, lam=0.25), s)

    def test_constant_one_chains_the_projections(self):
        x = np.ones(GRID.size)
        # distance^2 to sin is 3 pi <= 16, so the ball projection is inert
        # and only the integral half-space moves the point
        out = sfp_operator(GRID, x, lam=0.25, mode="damped")
        expected = project_integral_halfspace(GRID, x, mode="damped")
        assert np.allclose(out, expected, rtol=1e-14)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError, match="lam"):
            sfp_operator(GRID, GRID.zeros(), lam=3.0)
        with pytest.raises(ValueError, match="lam"):
            sfp_operator(GRID, GRID.zeros(), lam=0.0)


class TestSfpKernelsMatchWrappers:
    """The sfp kernels give the public projections' bits, on every branch."""

    MODES = pytest.mark.parametrize("mode", PROJECTION_MODES)

    @staticmethod
    def points():
        t = GRID.nodes
        rng = np.random.default_rng(31)
        fixed = [GRID.zeros(), np.ones(GRID.size), 3.0 * np.sin(2.0 * t), np.sin(t) + 8.0]
        noisy = [
            rng.normal(size=GRID.size) * rng.uniform(0.0, 3.0) + rng.uniform(-1.0, 1.0)
            for _ in range(40)
        ]
        return fixed + noisy

    @staticmethod
    def sin_ball_before_caching(space, x):
        # project_l2_ball as it was when it computed sin(nodes) on every call
        center = np.sin(space.nodes)
        r = x - center
        b = space.inner(r, r)
        if b <= 16.0:
            return x
        return center + (4.0 / np.sqrt(b)) * r

    def test_sin_ball(self):
        branches = set()
        for x in self.points():
            out = project_l2_ball(GRID, x)
            assert same_bits(out, _project_ball(GRID, GRID.sin_nodes, 4.0, x))
            assert same_bits(out, self.sin_ball_before_caching(GRID, x))
            branches.add(out is x)
        assert branches == {True, False}

    @MODES
    def test_integral_halfspace(self, mode):
        branches = set()
        for x in self.points():
            out = project_integral_halfspace(GRID, x, mode)
            divisor = _integral_divisor(GRID, mode)
            assert same_bits(out, _project_integral_halfspace(GRID, x, divisor))
            branches.add(out is x)
        assert branches == {True, False}

    @MODES
    @pytest.mark.parametrize("lam", [0.25, 1.5])
    def test_operator_composes_the_wrappers(self, mode, lam):
        # the closed form sin + (1 - lam + lam 4/||d||) d rounds differently
        # from x - lam (x - P_Q x) outside the ball; inside, both are x. The
        # sweep kernel given an out vector (NaN, which it must not read)
        # writes the fresh form's bits into it.
        eps = np.finfo(np.float64).eps
        branches = set()
        for x in self.points():
            p_q = project_l2_ball(GRID, x)
            expected = project_integral_halfspace(GRID, x - lam * (x - p_q), mode)
            out = sfp_operator(GRID, x, lam=lam, mode=mode)
            into = np.full(GRID.size, np.nan)
            assert _sfp_sweep(GRID, x, lam, _integral_divisor(GRID, mode), into) is into
            assert same_bits(into, out)
            if p_q is x:
                assert same_bits(out, expected)
            else:
                assert np.abs(out - expected).max() <= 4 * eps * np.abs(expected).max()
            branches.add(p_q is x)
        assert branches == {True, False}

    @pytest.mark.parametrize(
        "bad",
        [np.where(GRID.nodes > 3.0, np.nan, 0.0), np.where(GRID.nodes > 3.0, np.inf, 0.0),
         np.zeros(GRID.size - 1)],
        ids=["nan", "inf", "shape"],
    )
    def test_wrappers_reject_bad_points(self, bad):
        for mode in PROJECTION_MODES:
            with pytest.raises(ValueError):
                project_integral_halfspace(GRID, bad, mode)
            with pytest.raises(ValueError):
                sfp_operator(GRID, bad, mode=mode)
        with pytest.raises(ValueError):
            project_l2_ball(GRID, bad)

    def test_wrappers_reject_a_non_grid_space(self):
        x = np.zeros(3)
        for call in (
            lambda: project_l2_ball(EuclideanSpace(3), x),
            lambda: project_integral_halfspace(EuclideanSpace(3), x),
            lambda: sfp_operator(EuclideanSpace(3), x),
        ):
            with pytest.raises(TypeError):
                call()

    def test_operator_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            sfp_operator(GRID, GRID.zeros(), mode="verbatim")

    def test_cached_center(self):
        center = GRID.sin_nodes
        assert same_bits(center, np.sin(GRID.nodes))
        assert not center.flags.writeable
        with pytest.raises(ValueError):
            center[0] = 1.0


class TestCfpOperator:
    def paper_balls(self, dim=30, extra=28, seed=2):
        rng = np.random.default_rng(seed)
        centers = np.zeros((3 + extra, dim))
        centers[1, 0] = 1.0
        centers[2, 0] = -1.0
        bound = 1.0 / np.sqrt(dim)
        centers[3:] = rng.uniform(-bound, bound, size=(extra, dim))
        return [Ball(c, 1.0) for c in centers]

    def test_origin_fixed_exactly(self):
        space = EuclideanSpace(30)
        balls = self.paper_balls()
        assert np.array_equal(cfp_operator(space, balls, space.zeros()), space.zeros())

    def test_single_inner_ball_identity_inside(self):
        space = EuclideanSpace(3)
        ball = Ball(space.zeros(), 1.0)
        x = np.array([0.1, 0.2, -0.3])
        assert np.array_equal(cfp_operator(space, [ball, ball], x), x)

    def test_two_ball_average(self):
        space = EuclideanSpace(2)
        balls = [
            Ball(np.zeros(2), 1.0),
            Ball(np.array([1.0, 0.0]), 1.0),
            Ball(np.array([-1.0, 0.0]), 1.0),
        ]
        out = cfp_operator(space, balls, np.array([0.0, 3.0]))
        assert np.allclose(out, [0.0, 3.0 / np.sqrt(10)], rtol=1e-12)

    def test_needs_outer_and_inner(self):
        space = EuclideanSpace(2)
        with pytest.raises(ValueError):
            cfp_operator(space, [], np.zeros(2))
        with pytest.raises(ValueError):
            cfp_operator(space, [Ball(np.zeros(2), 1.0)], np.zeros(2))

    def test_non_finite_ball_center_rejected_at_entry(self):
        space = EuclideanSpace(2)
        balls = [Ball(np.zeros(2), 1.0), Ball(np.array([np.nan, 0.0]), 1.0)]
        with pytest.raises(ValueError, match="finite"):
            cfp_operator(space, balls, np.zeros(2))

    def test_center_dimension_must_match_space(self):
        balls = BallSet(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="coordinates"):
            cfp_operator(EuclideanSpace(3), balls, np.zeros(3))

    def test_non_finite_point_rejected(self):
        balls = BallSet(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            cfp_operator(R2, balls, np.array([np.inf, 0.0]))


def reference_cfp(space, balls, x):
    """The per-ball loop: project onto each inner ball, sum in order, average,
    then project onto the outer ball."""
    total = np.zeros(space.size)
    for ball in balls[1:]:
        total = total + project_ball(space, ball, x)
    return project_ball(space, balls[0], total / (len(balls) - 1))


def cfp_case(space, kind, rng):
    """Balls and a point that lies inside, on the boundary of or outside them."""
    m = 30
    centers = rng.uniform(-0.2, 0.2, size=(m + 1, space.size))
    radii = rng.uniform(0.5, 2.0, size=m + 1)
    if kind == "inside":
        centers = rng.uniform(-0.02, 0.02, size=(m + 1, space.size))
        x = rng.uniform(-0.01, 0.01, space.size)
    elif kind == "outside":
        x = rng.uniform(0.0, 10.0, space.size)
    elif kind == "mixed":
        x = rng.uniform(-0.1, 0.1, space.size)
        radii = rng.uniform(0.3, 1.5, size=m + 1)
    else:  # boundary: every other radius is the point's exact distance
        x = rng.uniform(-1.0, 1.0, space.size)
        for i in range(0, m + 1, 2):
            radii[i] = space.norm(x - centers[i])
    return [Ball(c, r) for c, r in zip(centers, radii)], x


# the sweep adds sum (s_i - 1)(x - c_i) / m to x where the loop sums the
# projections c_i + s_i (x - c_i); the two agree to this many eps times the
# largest coordinate of x, the centers and the loop's result (the worst case
# measured over the cases below is 3.06)
CFP_LOOP_EPS = 4.0


def assert_near_loop(space, balls, x, out):
    expected = reference_cfp(space, balls, x)
    scale = max(
        np.max(np.abs(x)),
        max(np.max(np.abs(b.center)) for b in balls),
        np.max(np.abs(expected)),
    )
    assert np.max(np.abs(out - expected)) <= CFP_LOOP_EPS * np.finfo(float).eps * scale


def inner_branches(space, balls, x):
    """Which projection branches the inner balls take at ``x``."""
    return {"inside" if space.norm(x - b.center) <= b.radius else "outside" for b in balls[1:]}


class TestCfpOperatorMatchesPerBallLoop:
    @ROW_NORM_SPACES
    @pytest.mark.parametrize(
        "kind, branches",
        [
            ("inside", {"inside"}),
            ("boundary", {"inside", "outside"}),
            ("outside", {"outside"}),
            ("mixed", {"inside", "outside"}),
        ],
    )
    def test_agrees_within_rounding(self, space, kind, branches):
        rng = np.random.default_rng(11)
        hit = set()
        for _ in range(25):
            balls, x = cfp_case(space, kind, rng)
            hit |= inner_branches(space, balls, x)
            ball_set = BallSet([b.center for b in balls], [b.radius for b in balls])
            out = cfp_operator(space, ball_set, x)
            assert same_bits(cfp_operator(space, balls, x), out)
            assert_near_loop(space, balls, x, out)
        assert hit == branches

    @ROW_NORM_SPACES
    def test_paper_balls_along_a_run(self, space):
        balls = TestCfpOperator().paper_balls()
        x = np.random.default_rng(4).uniform(0.0, 10.0, 30)
        hit = set()
        for _ in range(50):
            hit |= inner_branches(space, balls, x)
            out = cfp_operator(space, balls, x)
            assert_near_loop(space, balls, x, out)
            x = 0.5 * x + 0.5 * out
        assert hit == {"inside", "outside"}

    @ROW_NORM_SPACES
    def test_common_points_are_fixed_exactly(self, space):
        # an inside ball adds an exact zero, so a point of every ball is
        # returned bit for bit
        rng = np.random.default_rng(12)
        for _ in range(25):
            balls, x = cfp_case(space, "inside", rng)
            assert inner_branches(space, balls, x) == {"inside"}
            assert same_bits(cfp_operator(space, balls, x), x)


class TestBallSet:
    def test_arrays_are_read_only_copies(self):
        centers = np.zeros((3, 2))
        balls = BallSet(centers, np.ones(3))
        assert centers.flags.writeable
        with pytest.raises(ValueError):
            balls.centers[0, 0] = 1.0
        with pytest.raises(ValueError):
            balls.radii[0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        centers = np.zeros((3, 2))
        centers[1, 1] = bad
        with pytest.raises(ValueError, match="centers must be finite"):
            BallSet(centers, np.ones(3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="radii"):
            BallSet(np.zeros((3, 2)), np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize(
        "centers, radii",
        [
            (np.zeros((3, 2)), np.ones(2)),
            (np.zeros((3, 2)), np.ones((3, 1))),
            (np.zeros(3), np.ones(3)),
            (np.zeros((3, 2, 1)), np.ones(3)),
            (np.zeros((3, 0)), np.ones(3)),
        ],
        ids=["too-few-radii", "radii-2d", "centers-1d", "centers-3d", "zero-width"],
    )
    def test_mismatched_shapes_rejected(self, centers, radii):
        with pytest.raises(ValueError):
            BallSet(centers, radii)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_balls_rejected(self, count):
        with pytest.raises(ValueError, match="outer ball"):
            BallSet(np.zeros((count, 2)), np.ones(count))


class TestWeiszfeldMap:
    def test_cube_center_is_fixed(self):
        space = EuclideanSpace(3)
        center = np.array([5.0, 5.0, 5.0])
        out = weiszfeld_map(space, CUBE_ANCHORS, center)
        assert np.linalg.norm(out - center) <= 1e-12

    def test_single_anchor_collapses(self):
        space = EuclideanSpace(2)
        anchors = AnchorSet(np.array([[1.0, 2.0]]), np.array([1.0]))
        out = weiszfeld_map(space, anchors, np.array([5.0, -7.0]))
        assert np.allclose(out, [1.0, 2.0], rtol=1e-15)

    def test_equidistant_pair_gives_midpoint(self):
        space = EuclideanSpace(2)
        anchors = AnchorSet(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))
        out = weiszfeld_map(space, anchors, np.array([1.0, 1.0]))
        assert np.allclose(out, [1.0, 0.0], atol=1e-14)

    def test_singularity_at_anchor(self):
        space = EuclideanSpace(3)
        with pytest.raises(SingularityError):
            weiszfeld_map(space, CUBE_ANCHORS, np.array([10.0, 0.0, 0.0]))
        with pytest.raises(SingularityError):
            weiszfeld_map(space, CUBE_ANCHORS, np.array([1e-13, 0.0, 0.0]))

    def test_a_nan_distance_does_not_hide_a_singular_anchor(self):
        # on the grid, x - (-x) = 2e308 overflows and its row inner is
        # inf - inf: the distances are [0, nan], and the 0 must decide
        space = PeriodicGridSpace(4)
        x = np.array([1e308, 0.0, 0.0, 0.0])
        anchors = AnchorSet(np.array([-x, x]), np.ones(2))
        with np.errstate(all="ignore"):
            assert np.isnan(space._row_inners(x - anchors.anchors)).tolist() == [True, False]
            with pytest.raises(SingularityError):
                weiszfeld_map(space, anchors, x)

    def test_singularity_verdict_is_any_distance_within_the_tolerance(self):
        tol = ANCHOR_SINGULARITY_TOL
        space = EuclideanSpace(3)
        verdicts = []
        for d in (math.nextafter(tol, 0.0), tol, math.nextafter(tol, math.inf)):
            x = np.array([d, 0.0, 0.0])  # d from the anchor at the origin, exactly
            dists = np.sqrt(space._row_inners(x - CUBE_ANCHORS.anchors))
            verdict = bool((dists <= tol).any())
            verdicts.append(verdict)
            if verdict:
                with pytest.raises(SingularityError):
                    weiszfeld_map(space, CUBE_ANCHORS, x)
            else:
                weiszfeld_map(space, CUBE_ANCHORS, x)
        # the three points straddle the tolerance, so both verdicts are met
        assert verdicts[0] and not verdicts[-1]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="anchors have 3 coordinates, space has 2"):
            weiszfeld_map(EuclideanSpace(2), CUBE_ANCHORS, np.array([1.0, 2.0]))

    def test_output_is_convex_combination_of_anchors(self):
        space = EuclideanSpace(3)
        rng = np.random.default_rng(33)
        for _ in range(200):
            x = rng.uniform(0.5, 9.5, 3)
            out = weiszfeld_map(space, CUBE_ANCHORS, x)
            dists = np.linalg.norm(CUBE_ANCHORS.anchors - x, axis=1)
            lams = (CUBE_ANCHORS.weights / dists) / np.sum(CUBE_ANCHORS.weights / dists)
            assert (lams >= 0).all()
            assert np.sum(lams) == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(out, lams @ CUBE_ANCHORS.anchors, atol=1e-10)

    @pytest.mark.parametrize(
        "space, anchors",
        [
            (EuclideanSpace(3), CUBE_ANCHORS),
            (
                InnerProductSpace(4, [0.3, 1.7, 1.0, 2.5]),
                AnchorSet(np.random.default_rng(36).normal(size=(6, 4)), np.arange(1.0, 7.0)),
            ),
            (
                PeriodicGridSpace(4, interval_end=3.0),  # weights 0.5, 1, 1, 0.5
                AnchorSet(np.random.default_rng(37).normal(size=(6, 4)), np.arange(1.0, 7.0)),
            ),
        ],
        ids=["euclidean-cube", "weighted", "grid"],
    )
    def test_matches_per_anchor_norm_loop_bit_for_bit(self, space, anchors):
        # each distance is the space's own norm of x - a_i
        rng = np.random.default_rng(35)
        for _ in range(200):
            x = rng.uniform(-1.0, 9.5, space.size)
            dists = np.array([space.norm(x - a) for a in anchors.anchors])
            coef = anchors.weights / dists
            expected = (coef @ anchors.anchors) / coef.sum()
            assert same_bits(weiszfeld_map(space, anchors, x), expected)

    @pytest.mark.parametrize("space", [EuclideanSpace(3), GRID30], ids=["euclidean", "grid"])
    def test_kernel_keeps_the_bits_of_the_matmul_form(self, space):
        # np.dot and np.add.reduce reach the dgemv and the reduction that
        # coef @ points and coef.sum() do
        rng = np.random.default_rng(38)
        anchors = AnchorSet(rng.normal(size=(7, space.size)) * 5.0, rng.uniform(0.5, 3.0, 7))
        for _ in range(5000):
            x = rng.normal(size=space.size) * 10.0
            coef = anchors.weights / np.sqrt(space._row_inners(x - anchors.anchors))
            expected = (coef @ anchors.anchors) / coef.sum()
            assert same_bits(_weiszfeld(space, anchors, x), expected)

    def test_not_globally_nonexpansive(self):
        # the map expands radially near anchors; frozen counterexample
        space = EuclideanSpace(3)
        v = np.ones(3) / np.sqrt(3)
        x, y = 0.2 * v, 0.4 * v
        tx = weiszfeld_map(space, CUBE_ANCHORS, x)
        ty = weiszfeld_map(space, CUBE_ANCHORS, y)
        assert np.linalg.norm(tx - ty) > 3.0 * np.linalg.norm(x - y)

    def test_contraction_near_the_optimum(self):
        space = EuclideanSpace(3)
        center = np.array([5.0, 5.0, 5.0])
        rng = np.random.default_rng(34)
        for _ in range(500):
            x = center + rng.uniform(-1, 1, 3) * 4 / np.sqrt(3)
            y = center + rng.uniform(-1, 1, 3) * 4 / np.sqrt(3)
            lhs = np.linalg.norm(
                weiszfeld_map(space, CUBE_ANCHORS, x) - weiszfeld_map(space, CUBE_ANCHORS, y)
            )
            assert lhs <= np.linalg.norm(x - y) + 1e-10


class TestAnchorSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnchorSet(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            AnchorSet(np.zeros((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            AnchorSet(np.zeros((2, 2)), np.array([1.0]))
        # zero-width rows are named here, not later as a space of no coordinates
        with pytest.raises(ValueError, match="anchors must be .* dim >= 1"):
            AnchorSet(np.zeros((3, 0)), np.ones(3))

    def test_arrays_are_read_only_copies(self):
        points = np.zeros((2, 2))
        weights = np.ones(2)
        anchors = AnchorSet(points, weights)
        assert points.flags.writeable and weights.flags.writeable
        assert not np.shares_memory(anchors.anchors, points)
        assert not np.shares_memory(anchors.weights, weights)
        with pytest.raises(ValueError):
            anchors.anchors[0, 0] = 1.0
        with pytest.raises(ValueError):
            anchors.weights[0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            AnchorSet(np.zeros((2, 2)), np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        points = np.zeros((2, 2))
        points[1, 0] = bad
        with pytest.raises(ValueError, match="anchors must be finite"):
            AnchorSet(points, np.ones(2))

    def test_from_csv_with_header(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("x,y,w\n0,0,1\n2,0,1\n")
        anchors = AnchorSet.from_csv(path)
        assert anchors.anchors.shape == (2, 2)
        assert np.array_equal(anchors.weights, [1.0, 1.0])

    def test_from_csv_without_header(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("0,0,0,1\n10,10,10,2\n")
        anchors = AnchorSet.from_csv(path)
        assert anchors.anchors.shape == (2, 3)
        assert np.array_equal(anchors.weights, [1.0, 2.0])

    def test_from_csv_byte_order_mark(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a byte-order mark; it must not
        # reach the first cell of a headerless file
        path = tmp_path / "anchors.csv"
        path.write_text("0,0,1\n2,0,1\n0,2,1\n", encoding="utf-8-sig")
        anchors = AnchorSet.from_csv(path)
        assert np.array_equal(anchors.anchors, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(anchors.weights, [1.0, 1.0, 1.0])

    def test_from_csv_empty_file(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("x,y,w\n")
        with pytest.raises(ValueError):
            AnchorSet.from_csv(path)

    def test_from_csv_skips_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("\nx, y, w\n\n0, 1, 2\n , ,\n3,4,5\n\n")
        anchors = AnchorSet.from_csv(path)
        assert np.array_equal(anchors.anchors, [[0.0, 1.0], [3.0, 4.0]])
        assert np.array_equal(anchors.weights, [2.0, 5.0])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("10,,0,1\n", 1),
            ("x,y,w\n0,0,1\n1,,1\n", 3),
            ("0,0,1\n0,1,1,\n", 2),  # trailing comma
            ("0,0,1\n\n10,0\n", 3),  # ragged
            ("0,0,1\n10,0,1,1\n", 2),
            ("0,0,1\n1,one,1\n", 2),  # non-numeric after the data began
            ("0,O,1\n10,0,1\n", 1),  # a typo in the first row is no header
            ("x,y,w\n0,O,1\n10,0,1\n", 2),  # only the first line may be a header
            ("x,y,w\n\nx,y,w\n0,0,1\n", 3),
        ],
    )
    def test_from_csv_malformed_row_named(self, tmp_path, text, line):
        path = tmp_path / "anchors.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"anchors.csv, line {line}: "):
            AnchorSet.from_csv(path)

    def test_from_csv_one_column_rejected(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ValueError, match="one coordinate plus a weight"):
            AnchorSet.from_csv(path)


class TestOperatorWrapper:
    def test_callable_on_points(self):
        space = EuclideanSpace(2)
        op = Operator(space, lambda x, out: 0.5 * space.check(x))
        assert np.allclose(op([2.0, 4.0]), [1.0, 2.0])
