import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpiter.experiments import build_cfp, build_sfp
from fpiter.space import TWO_PI, EuclideanSpace, InnerProductSpace, PeriodicGridSpace
from reference_spaces import ERROR_MODES, DoubledDotSpace, RectangleGrid


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


class TestOnePassGridProduct:
    """The grid's ``h dot(x, y)`` plus two endpoint terms against ``dot(w * x, y)``."""

    @pytest.mark.parametrize("num_points", [2, 3, 4, 1024, 32768])
    @pytest.mark.parametrize(
        "make", [PeriodicGridSpace, RectangleGrid], ids=["trapezoid", "rectangle"]
    )
    def test_matches_the_weighted_dot_to_a_few_ulps(self, make, num_points):
        # the two forms round differently; each error is a few ulps of the
        # terms' absolute sum, and of the norm itself (no cancellation)
        space = make(num_points)
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(41)
        for _ in range(100):
            x, y = rng.normal(size=space.size), rng.normal(size=space.size)
            want = float(np.dot(space.weights * x, y))
            scale = float(np.dot(space.weights, np.abs(x * y)))
            assert abs(space._inner(x, y) - want) <= 8 * eps * scale
            norm = math.sqrt(np.dot(space.weights * x, x))
            assert abs(space._norm(x) - norm) <= 8 * eps * norm
            assert space.inner(x, y) == space._inner(x, y)


@pytest.mark.parametrize("num_points", [2, 3, 17, 30, 1025, 4099])
@pytest.mark.parametrize(
    "make",
    [
        EuclideanSpace,
        lambda n: InnerProductSpace(n, np.random.default_rng(n).uniform(0.2, 3.0, n)),
        PeriodicGridSpace,
        lambda n: DoubledDotSpace(n, np.ones(n)),
    ],
    ids=["euclidean", "weighted", "grid", "inner-only"],
)
def test_row_inners_match_inner_bit_for_bit(make, num_points):
    # the ball sweep and the Weiszfeld map take their distances from the row
    # form and promise the bits of the per-point norm; rows of one stack
    # start at every offset, the per-point copies on fresh storage
    space = make(num_points)
    rows = np.random.default_rng(43).normal(size=(9, num_points))
    got = space._inners(rows, rows)
    want = [space._inner(row.copy(), row.copy()) for row in rows]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "space",
    [
        EuclideanSpace(3),
        EuclideanSpace(30),
        PeriodicGridSpace(1024),
        InnerProductSpace(30, np.random.default_rng(44).uniform(0.2, 3.0, 30)),
    ],
    ids=["euclidean-3", "euclidean-30", "grid-1024", "weighted-30"],
)
def test_broadcast_pairs_match_inner_bit_for_bit(space):
    # cq forms its cut scalars as _inners(block[:2, None], block) over the
    # rows [c, q, x_n, x_0] and promises the bits of _inner(row_i, row_j),
    # the left operand first (the grid's end terms are not symmetric)
    rng = np.random.default_rng(45)
    for _ in range(20):
        block = rng.normal(size=(4, space.size)) * rng.uniform(0.1, 10.0, size=(4, 1))
        got = space._inners(block[:2, None], block)
        want = [[space._inner(u.copy(), v.copy()) for v in block] for u in block[:2]]
        assert got.shape == (2, 4)
        assert got.tobytes() == np.array(want).tobytes()


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, t):
        space = EuclideanSpace(2)
        with pytest.raises(ValueError, match="weight t must be finite"):
            space.combine(t, [1.0, 2.0], [3.0, 4.0])


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
    with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
        InnerProductSpace(2, [1.0, bad])


def test_weights_must_match_the_size():
    with pytest.raises(ValueError, match=r"weights need shape \(3,\), got \(2,\)"):
        InnerProductSpace(3, [1.0, 2.0])


@pytest.mark.parametrize(
    "make",
    [
        EuclideanSpace,
        PeriodicGridSpace,
        lambda size: InnerProductSpace(size, np.ones(3)),
    ],
    ids=["euclidean", "grid", "weighted"],
)
@pytest.mark.parametrize("size", [1024.7, 3.0, "12"])
def test_sizes_must_be_integers(make, size):
    # operator.index, not int(): a float or a string is not truncated
    with pytest.raises(ValueError, match="must be an integer"):
        make(size)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_sfp(grid_points=64.5),
        lambda: build_cfp(dim=3.5),
        lambda: build_cfp(num_balls=2.5),
    ],
    ids=["sfp-grid", "cfp-dim", "cfp-balls"],
)
def test_builders_reject_non_integer_sizes(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_integer_sizes_of_any_index_type_are_accepted():
    assert EuclideanSpace(np.int64(3)).size == 3
    grid = PeriodicGridSpace(np.int32(12))
    assert grid.size == 12
    assert type(grid.size) is int


# a signaling NaN: no arithmetic makes one, but a caller's bits may hold it
SIGNALING_NAN = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64).item()
# entries that decide or strain the finiteness certificate dot(x, x): the
# non-finite values, signed zeros, subnormals, the largest double and
# entries whose squares (or their sum) overflow
SPECIAL_ENTRIES = [
    math.inf, -math.inf, math.nan, SIGNALING_NAN, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e200, -1e200, 1.4e154, -1.4e154, 1.0, -2.5,
]


def is_signaling_nan(v) -> bool:
    bits = np.float64(v).view(np.uint64).item()
    return math.isnan(v) and not bits & (1 << 51)


ENTRIES = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(width=64))


@st.composite
def checked_points(draw):
    """A space, and a view of ``space.size`` drawn entries, contiguous or strided.

    The gaps of a strided view hold NaN, so a check that read past the view's
    entries would reject a finite one.
    """
    grid = draw(st.booleans())
    size = draw(st.integers(2 if grid else 1, 24))
    space = PeriodicGridSpace(size) if grid else EuclideanSpace(size)
    entries = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    stride = draw(st.integers(1, 3))
    base = np.full(size * stride, math.nan)
    view = base[::stride]
    view[:] = entries
    return space, view


class TestCheckRejectsNonRealEntries:
    """A float64 conversion drops an imaginary part, parses a string,
    counts a time in its units and reads ``None`` as NaN; ``check`` names
    each and raises before numpy converts or warns."""

    @pytest.mark.parametrize(
        "x, named",
        [
            (np.array([1.0 + 2.0j, 3.0]), "complex"),
            ([1.0 + 0.0j, 3.0], "complex"),
            (np.array([1.0, 3.0], dtype=np.complex64), "complex"),
            (np.array(["1", "2"]), "string"),
            ([1.0, "2"], "string"),
            (np.array([b"1", b"2"]), "bytes"),
            (np.array(["1", 2.0], dtype=object), "string"),
            (np.array([2.0j, 1.0], dtype=object), "complex"),
            (np.array([2.0j, "1"], dtype=object), "complex and string"),
            (np.array([1, 2], dtype="timedelta64[s]"), "timedelta"),
            (np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), "datetime"),
            ([1.0, None], "None"),
            (np.array([None, 2.0], dtype=object), "None"),
            ([None, None], "None"),
        ],
        ids=[
            "complex", "complex-list", "complex64", "strings", "string-in-list",
            "bytes", "object-string", "object-complex", "object-both", "timedelta", "datetime",
            "none-in-list", "object-none", "all-none",
        ],
    )
    def test_named_and_rejected_before_any_warning(self, x, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^coordinates must be real numbers, got {named} entries$"
            with pytest.raises(ValueError, match=message):
                EuclideanSpace(2).check(x)

    @pytest.mark.parametrize(
        "x",
        [
            [1, 2],
            np.array([1, 2], dtype=np.int8),
            np.array([1, 2], dtype=np.uint64),
            np.array([1.0, 2.0], dtype=np.float32),
            np.array([1.0, 2.0], dtype=">f8"),
            np.array([1, 2.0], dtype=object),
            [True, 2],
        ],
        ids=["int-list", "int8", "uint64", "float32", "big-endian", "object", "bool"],
    )
    def test_real_entries_still_convert(self, x):
        got = EuclideanSpace(2).check(x)
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]


class TestFiniteCertificate:
    """``check``'s squared-norm certificate gives the verdict of ``np.isfinite(x).all()``."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(checked_points())
    @example((EuclideanSpace(2), np.array([1e200, math.inf])))
    @example((EuclideanSpace(2), np.array([math.inf, 1e200])))
    @example((PeriodicGridSpace(3), np.array([1.4e154, 1.4e154, 0.0])))
    @example((EuclideanSpace(3), np.array([-math.inf, math.inf, math.nan])))
    @example((PeriodicGridSpace(2), np.array([1.0, SIGNALING_NAN])))
    def test_accepts_exactly_the_finite_points(self, case):
        space, x = case
        finite = bool(np.isfinite(x).all())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if finite:
                assert space.check(x) is x
            else:
                with pytest.raises(ValueError, match=r"^coordinates must be finite \(no NaN or Inf\)$"):
                    space.check(x)
        # numpy warns only of an entry whose square may overflow, and of a
        # signaling NaN; an inf or a quiet NaN never warns
        allowed = set()
        if np.abs(x[np.isfinite(x)]).max(initial=0.0) >= 1e150:
            allowed.add("overflow encountered in dot")
        if any(is_signaling_nan(v) for v in x.tolist()):
            allowed.add("invalid value encountered in dot")
        assert {(w.category, str(w.message)) for w in caught} <= {
            (RuntimeWarning, m) for m in allowed
        }

    @pytest.mark.parametrize("mode", ERROR_MODES)
    @pytest.mark.parametrize(
        "entries",
        [
            [1e200, 1e200], [1.4e154, 1.4e154, 0.0], [1.7976931348623157e308, 1.0],
            [1e200, math.inf], [math.inf, 1e200], [1.0, SIGNALING_NAN], [1e200, math.nan],
        ],
        ids=[
            "squares-overflow", "sum-overflows", "largest-double", "big-then-inf",
            "inf-then-big", "signaling-nan", "big-then-nan",
        ],
    )
    @pytest.mark.parametrize("make", [EuclideanSpace, PeriodicGridSpace])
    def test_verdict_holds_where_warnings_are_errors(self, make, entries, mode):
        # the squared norm's overflow or invalid value raises there; the
        # elementwise test still decides, as where numpy only warns
        x = np.array(entries)
        space = make(x.size)
        with ERROR_MODES[mode]():
            if np.isfinite(x).all():
                assert space.check(x) is x
            else:
                with pytest.raises(ValueError, match=r"^coordinates must be finite"):
                    space.check(x)

    @pytest.mark.parametrize("make", [EuclideanSpace, PeriodicGridSpace])
    def test_finite_check_allocates_no_mask(self, make):
        # np.isfinite(x).all() would form a 32 KiB bool mask of a 32,768-node
        # vector; the certificate forms one scalar
        space = make(32768)
        x = np.sin(np.arange(32768.0))
        space.check(x)
        tracemalloc.start()
        try:
            space.check(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096


def float_bits(v: float) -> int:
    return np.float64(v).view(np.uint64).item()


class TestEuclideanNorm:
    """The one-dot ``_norm`` keeps the bits of the base form ``sqrt(max(<x, x>, 0))``."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(ENTRIES, min_size=1, max_size=40).map(np.array))
    @example(np.zeros(3))
    @example(np.array([-0.0, -0.0]))
    @example(np.array([5e-324, -5e-324, 2.2250738585072014e-308]))
    @example(np.array([1e200, -1e200]))  # the squared norm overflows to inf
    @example(np.array([1.0, math.nan]))
    def test_keeps_the_bits_of_the_base_form(self, x):
        space = EuclideanSpace(x.size)
        with np.errstate(all="ignore"):
            expected = math.sqrt(max(space._inner(x, x), 0.0))
            got = space._norm(x)
        assert type(got) is float
        assert float_bits(got) == float_bits(expected)
