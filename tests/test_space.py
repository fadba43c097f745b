import math

import numpy as np
import pytest

from fpiter.space import TWO_PI, EuclideanSpace, InnerProductSpace, PeriodicGridSpace


def midpoint_quadrature(f, n=2_000_000, length=TWO_PI):
    """Independent high-resolution oracle: composite midpoint rule."""
    h = length / n
    t = (np.arange(n) + 0.5) * h
    return float(np.sum(f(t)) * h)


class TestEuclidean:
    def test_inner_is_dot_product(self):
        space = EuclideanSpace(2)
        assert space.inner([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_norm(self):
        space = EuclideanSpace(3)
        assert space.norm([3.0, 4.0, 0.0]) == 5.0
        assert space.norm(space.zeros()) == 0.0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            EuclideanSpace(0)
        space = EuclideanSpace(3)
        with pytest.raises(ValueError, match="coordinates"):
            space.inner([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        space = EuclideanSpace(2)
        with pytest.raises(ValueError, match="finite"):
            space.check([np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            space.check([np.inf, 0.0])

    def test_inner_has_the_bits_of_the_weighted_dot(self):
        # the override drops the multiply by the unit weights; 1.0 * v is
        # exact, so every result, overflow included, keeps its bits
        rng = np.random.default_rng(31)
        special = np.array(
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
        )
        for dim in (1, 3, 8, 30, 257):
            space = EuclideanSpace(dim)
            for _ in range(100):
                x = rng.normal(size=dim) * 10.0 ** rng.integers(-320, 308, size=dim)
                y = rng.normal(size=dim) * 10.0 ** rng.integers(-320, 308, size=dim)
                for v in (x, y):
                    picks = rng.random(dim) < 0.3
                    v[picks] = rng.choice(special, size=int(picks.sum()))
                with np.errstate(over="ignore", invalid="ignore"):
                    got = space._inner(x, y)
                    want = float(np.dot(space.weights * x, y))
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestPeriodicGrid:
    def test_weights_sum_to_interval(self):
        for n in (2, 3, 7, 1024):
            space = PeriodicGridSpace(n)
            assert np.sum(space.weights) == pytest.approx(TWO_PI, rel=1e-12)

    def test_constant_inner_product(self):
        space = PeriodicGridSpace(64)
        ones = np.ones(space.size)
        assert space.inner(ones, ones) == pytest.approx(TWO_PI, abs=1e-10)

    def test_sin_squared_against_oracle(self):
        space = PeriodicGridSpace(1024)
        s = space.from_function(np.sin)
        oracle = midpoint_quadrature(lambda t: np.sin(t) ** 2)
        assert oracle == pytest.approx(math.pi, abs=1e-9)
        assert space.inner(s, s) == pytest.approx(math.pi, abs=1e-6)
        assert space.norm(s) == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_linear_polynomials_integrate_exactly(self):
        # trapezoid is exact on degree <= 1
        space = PeriodicGridSpace(257)
        for alpha, beta in ((1.0, 0.0), (-0.7, 2.5), (0.3, -1.0)):
            values = space.from_function(lambda t: alpha * t + beta)
            analytic = alpha * TWO_PI**2 / 2 + beta * TWO_PI
            assert space.integrate(values) == pytest.approx(analytic, rel=1e-12)

    def test_from_function_and_nodes(self):
        space = PeriodicGridSpace(16, interval_end=4.0)
        assert space.nodes[0] == 0.0
        assert space.nodes[-1] == 4.0
        values = space.from_function(lambda t: 2 * t)
        assert values[-1] == 8.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            PeriodicGridSpace(1)

    @pytest.mark.parametrize("end", [0.0, -1.0, math.inf, math.nan])
    def test_interval_end_must_be_finite_and_positive(self, end):
        with pytest.raises(ValueError, match="interval end"):
            PeriodicGridSpace(8, end)


class TestCombine:
    def test_endpoints(self):
        space = EuclideanSpace(2)
        x = np.array([1.0, -2.0])
        y = np.array([0.5, 3.0])
        assert np.array_equal(space.combine(1.0, x, y), x)
        assert np.array_equal(space.combine(0.0, x, y), y)

    def test_quarter_mix(self):
        space = EuclideanSpace(2)
        out = space.combine(0.25, [4.0, 0.0], [0.0, 4.0])
        assert np.allclose(out, [1.0, 3.0], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        space = EuclideanSpace(2)
        with pytest.raises(ValueError):
            space.combine(0.5, [1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "space", [EuclideanSpace(7), PeriodicGridSpace(129)], ids=["euclidean", "grid"]
)
class TestInnerProductLaws:
    def test_cauchy_schwarz(self, space):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.normal(size=space.size)
            y = rng.normal(size=space.size)
            assert abs(space.inner(x, y)) <= space.norm(x) * space.norm(y) + 1e-10

    def test_parallelogram_law(self, space):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = rng.normal(size=space.size)
            y = rng.normal(size=space.size)
            lhs = space.norm(x + y) ** 2 + space.norm(x - y) ** 2
            rhs = 2 * space.norm(x) ** 2 + 2 * space.norm(y) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_symmetry_and_bilinearity(self, space):
        rng = np.random.default_rng(13)
        x = rng.normal(size=space.size)
        y = rng.normal(size=space.size)
        z = rng.normal(size=space.size)
        assert space.inner(x, y) == pytest.approx(space.inner(y, x), rel=1e-12)
        assert space.inner(2.5 * x + z, y) == pytest.approx(
            2.5 * space.inner(x, y) + space.inner(z, y), rel=1e-9, abs=1e-12
        )


def test_weights_are_copied_and_the_callers_array_left_writeable():
    weights = np.array([1.0, 2.0, 0.5])
    space = InnerProductSpace(3, weights)
    assert weights.flags.writeable
    assert not space.weights.flags.writeable
    assert not np.shares_memory(space.weights, weights)
    weights[0] = 7.0
    assert space.inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_weights_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="weights must be finite"):
        InnerProductSpace(2, [1.0, bad])

