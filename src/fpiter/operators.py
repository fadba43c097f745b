"""Projections and nonexpansive maps used by the iteration engines.

Closed convex sets come in three flavors here: half-spaces
``{u : <a, u> <= b}``, balls ``{u : ||u - c|| <= r}``, and the two
integral-constrained sets of the discretized function-space benchmark.
Their metric projections are closed-form. The fixed-point maps the solvers
iterate are built from them: the forward-projection sweep
(:func:`sfp_operator`), the averaged projections onto a :class:`BallSet`
(:func:`cfp_operator`) and the Weiszfeld step.

The projections and the three composite maps come in two layers: public
functions that validate their arguments, and private kernels that take
validated arrays (the rule is stated in :func:`fpiter.algorithms.run`)
and check at most the points they project to; the sweep and map kernels
``_sfp_sweep``, ``_cfp_sweep`` and ``_weiszfeld`` check nothing. Their
optional ``out`` vectors are a run's workspace (see :class:`Operator`) or
the sweep's own result; without them results are fresh.

All functions are pure but for the ``out`` vectors they are given; the
small dataclasses are frozen. A note on nonexpansiveness: every
projection here, and the half-space/ball composites, satisfy
``||T x - T y|| <= ||x - y||``. The Weiszfeld map does not: it is a strong
contraction near the weighted-median point but expansive near the
anchors, so callers must keep iterates away from the anchor set (see
:class:`SingularityError`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .space import InnerProductSpace, PeriodicGridSpace, _aligned_empty, _check_positive, _choice

__all__ = [
    "HalfSpace",
    "Ball",
    "BallSet",
    "AnchorSet",
    "Operator",
    "InfeasibleSetError",
    "SingularityError",
    "PROJECTION_MODES",
    "project_halfspace",
    "project_ball",
    "project_integral_halfspace",
    "project_l2_ball",
    "project_halfspace_pair",
    "sfp_operator",
    "cfp_operator",
    "weiszfeld_map",
]

# "damped" scales the integral-halfspace correction by 1/L^2 instead of the
# metrically correct 1/L; it moves toward the set without reaching the
# boundary in one application. Kept because the reference benchmark runs
# use it; "exact" is the true metric projection.
PROJECTION_MODES = ("damped", "exact")

# the sfp sets C = {x : integral x <= bound} and Q = {x : ||x - sin|| <= radius}
_SFP_INTEGRAL_BOUND = 1.0
_SFP_RADIUS = 4.0

ANCHOR_SINGULARITY_TOL = 1e-12


class InfeasibleSetError(ValueError):
    """Projection target is empty (or numerically indistinguishable from empty)."""


class SingularityError(ArithmeticError):
    """Operator evaluated at a point where it is undefined."""


def _frozen(values) -> np.ndarray:
    # the one storage rule of the dataclasses below: a read-only float64
    # copy, so a caller who later writes into the array changes nothing here
    stored = np.array(values, dtype=np.float64)
    stored.setflags(write=False)
    return stored


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """``{u : <normal, u> <= offset}`` under a space's inner product.

    A zero normal makes the set the whole space when ``offset >= 0`` and
    empty otherwise. ``normal`` is stored as a read-only float64 copy.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _frozen(self.normal))


def _row_set(rows, values, rows_name, values_name, min_rows, shape_error):
    """Read-only float64 copies of ``(m, d)`` rows and their ``(m,)`` values.

    Rows that are not two-dimensional, fewer than ``min_rows`` or without
    a coordinate raise ``shape_error``; the rows must be finite and the
    values pass :func:`fpiter.space._check_positive`.
    """
    rows = _frozen(rows)
    if rows.ndim != 2 or rows.shape[0] < min_rows or rows.shape[1] < 1:
        raise ValueError(shape_error)
    if not np.isfinite(rows).all():
        raise ValueError(f"{rows_name} must be finite")
    values = _frozen(values)
    if values.shape != rows.shape[:1]:
        raise ValueError(f"{values_name} need shape {rows.shape[:1]}, got {values.shape}")
    _check_positive(values, values_name)
    return rows, values


def _check_width(space, rows, name) -> None:
    # the one test of a row set's width against the space it is used in
    if rows.shape[1] != space.size:
        raise ValueError(f"{name} have {rows.shape[1]} coordinates, space has {space.size}")


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball ``{u : ||u - center|| <= radius}``; the radius is finite and > 0.

    ``center`` is stored as a read-only float64 copy.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center))
        _check_positive(self.radius, "ball radius")


@dataclass(frozen=True, eq=False)
class BallSet:
    """Closed balls ``{u : ||u - centers[i]|| <= radii[i]}``, one per row.

    ``centers`` is an ``(m, dim)`` array with ``m >= 2`` and ``radii`` has
    shape ``(m,)``; centers must be finite and radii finite and strictly
    positive. Row 0 is the outer ball of :func:`cfp_operator`, the other
    rows its inner balls. Both arrays are copied and made read-only.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers, radii = _row_set(
            self.centers, self.radii, "ball centers", "ball radii", 2,
            "need an outer ball plus at least one inner ball as an (m, dim) array, dim >= 1",
        )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Weighted anchor points for the Weiszfeld map.

    ``anchors`` has one finite point per row; ``weights`` are finite and
    strictly positive. Both arrays are copied and made read-only.
    """

    anchors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        anchors, weights = _row_set(
            self.anchors, self.weights, "anchors", "anchor weights", 1,
            "anchors must be a nonempty (m, dim) array, dim >= 1",
        )
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_csv(cls, path) -> "AnchorSet":
        """Load anchors from CSV: one anchor per row, weight in the last column.

        Blank lines are skipped, and so is the first nonblank line if none
        of its cells is a number (a header). Every other row is a data row:
        it needs the first one's number of cells, all numeric and none empty
        (so no trailing comma), or ``ValueError`` names its line.
        """
        rows, header = [], False
        # utf-8-sig drops the byte-order mark that spreadsheets write first
        with open(Path(path), newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for raw in reader:
                cells = [c.strip() for c in raw]
                if not any(cells):
                    continue
                where = f"{path}, line {reader.line_num}"
                try:
                    values = [float(c) for c in cells if c]
                except ValueError as exc:
                    # a second non-numeric line, or a first one with a
                    # number in it ("0,O,1"), is a broken row, not a header
                    if rows or header or any(map(_is_number, cells)):
                        raise ValueError(f"{where}: {exc}") from None
                    header = True
                    continue
                width = len(rows[0]) if rows else len(cells)
                if len(values) != len(cells) or len(cells) != width:
                    raise ValueError(f"{where}: expected {width} nonempty cells, got {raw}")
                rows.append(values)
        if not rows:
            raise ValueError(f"no anchor rows found in {path}")
        data = np.asarray(rows, dtype=np.float64)
        if data.shape[1] < 2:
            raise ValueError("anchor rows need at least one coordinate plus a weight")
        return cls(anchors=data[:, :-1], weights=data[:, -1])


@dataclass(frozen=True, eq=False)
class Operator:
    """A self-map of ``space``, callable on points.

    ``T(x, out)`` calls ``func(x, out)``; this is the one statement of
    the contract. ``out`` is ``None`` or a point-sized vector that is not
    ``x``, and ``func`` must not read it. ``func`` may write ``T(x)`` into
    ``out`` and return it, or it may return any other array (a fresh one,
    or ``x`` itself). :func:`fpiter.algorithms.run` lends ``func`` the
    workspace vector that receives the step's result (``x_{n+1}``, or
    cq's ``y``), so an operator that writes into ``out`` allocates nothing
    per iteration; one that ignores ``out``, as a custom operator may, is
    just as correct. ``T(x)`` passes ``out=None``. ``func`` need not check
    its input; see :func:`fpiter.algorithms.run`.
    """

    space: InnerProductSpace
    func: Callable[[np.ndarray, np.ndarray | None], np.ndarray] = field(repr=False)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.func(x, out)


def _checked_halfspace(space, normal, offset, name: str) -> tuple[np.ndarray, float]:
    # the checked normal of {u : <normal, u> <= offset}, and <a, a>; a finite
    # normal whose squared norm overflows would make every multiplier 0 and
    # is rejected
    if not math.isfinite(offset):
        raise ValueError(f"half-space offset must be finite, got {offset}")
    normal = space.check(normal)
    sq = space._inner(normal, normal)
    if not math.isfinite(sq):
        raise ValueError(f"{name} normal must have a finite squared norm, got {sq}")
    return normal, sq


def _within(b, normal_norm, au, u_norm) -> bool:
    # <a, u> <= b with a backward-error sized slack, so borderline points
    # count as feasible; au is <a, u> and u_norm is ||u||
    return au <= b + 1e-12 * (1.0 + abs(b) + normal_norm * u_norm)


def _single_scalars(t, ax, sq, bx, g12, xx, x_norm):
    # <b, p> and ||p|| of the single projection p = x - t a (p = x when t is
    # None), from <a, x>, <a, a>, <b, x>, <a, b>, ||x||^2 and ||x||
    if t is None:
        return bx, x_norm
    return bx - t * g12, math.sqrt(max(xx - 2.0 * t * ax + t * t * sq, 0.0))


def project_halfspace(space: InnerProductSpace, hs: HalfSpace, x) -> np.ndarray:
    """Metric projection onto ``{u : <a, u> <= b}``.

    Returns ``x`` when feasible, otherwise ``x - ((<a,x> - b)/||a||^2) a``.
    Raises :class:`InfeasibleSetError` for the empty half-space (zero
    normal with negative offset), and ``ValueError`` for a normal whose
    squared norm is not finite.
    """
    x = space.check(x)
    b = hs.offset
    a, sq = _checked_halfspace(space, hs.normal, b, "half-space")
    return _project_halfspace(space, a, b, sq, x, space._inner(a, x))


def _multiplier(b, sq, ax):
    # t of the single projection x - t a onto {u : <a, u> <= b}, or None when
    # x is feasible; sq is <a, a> and ax is <a, x>
    if ax <= b:
        return None
    if sq == 0.0:
        raise InfeasibleSetError(
            "half-space with zero normal and negative offset is empty"
        )
    return (ax - b) / sq


def _project_halfspace(space, a, b, sq, x, ax, out=None):
    # onto {u : <a, u> <= b}; ``out`` (neither x nor a) receives the projected point
    t = _multiplier(b, sq, ax)
    if t is None:
        return x
    return space.check(np.subtract(x, np.multiply(a, t, out), out))


def project_ball(space: InnerProductSpace, ball: Ball, x) -> np.ndarray:
    """Metric projection onto a closed ball.

    Points with ``||x - c|| <= r`` (boundary included) are returned
    unchanged; outside points are pulled radially onto the sphere.
    """
    x = space.check(x)
    # the output check catches an x - center that overflows
    return space.check(_project_ball(space, space.check(ball.center), ball.radius, x))


def _project_ball(space, c, r, x):
    # x if inside, else c + (r/||x - c||)(x - c), built in the difference
    d = x - c
    dist = space._norm(d)
    if dist <= r:
        return x
    return np.add(c, np.multiply(d, r / dist, d), d)


def _check_grid(space) -> None:
    if not isinstance(space, PeriodicGridSpace):
        raise TypeError("the integral and sin-ball projections need a grid space")


def _integral_divisor(space, mode) -> float:
    # the integral correction on a grid is (1 - a)/divisor; the one check of ``mode``
    _check_grid(space)
    _choice(mode, PROJECTION_MODES, "mode")
    length = space.interval_end
    return length * length if mode == "damped" else length


def project_integral_halfspace(
    space: PeriodicGridSpace, x, mode: str = "damped"
) -> np.ndarray:
    """Projection onto ``{x : integral of x over [0, L] <= 1}`` on a grid space.

    With ``a`` the quadrature of ``x``: feasible points (``a <= 1``) are
    returned unchanged. Otherwise ``exact`` adds the constant
    ``(1 - a)/L`` (the metric projection, landing on the boundary), while
    ``damped`` adds ``(1 - a)/L^2``, an under-relaxed correction that only
    moves toward the set. Both variants are firmly nonexpansive.
    """
    divisor = _integral_divisor(space, mode)
    return _project_integral_halfspace(space, space.check(x), divisor)


def _project_integral_halfspace(space, x, divisor, out=None):
    # ``out`` receives the shifted point; a feasible ``x`` comes back as is
    a = space._integrate(x)
    if a <= _SFP_INTEGRAL_BOUND:
        return x
    return np.add(x, (_SFP_INTEGRAL_BOUND - a) / divisor, out)


def project_l2_ball(space: PeriodicGridSpace, x) -> np.ndarray:
    """Projection onto ``{x : integral of |x(t) - sin(t)|^2 dt <= 16}``.

    The set is the radius-4 quadrature-norm ball centered at ``sin``;
    points with ``||x - sin|| <= 4`` are returned unchanged, outside points
    are mapped to ``sin + 4 (x - sin)/||x - sin||``.
    """
    _check_grid(space)
    return _project_ball(space, space.sin_nodes, _SFP_RADIUS, space.check(x))


def project_halfspace_pair(
    space: InnerProductSpace, h1: HalfSpace, h2: HalfSpace, x
) -> np.ndarray:
    """Exact metric projection onto the intersection of two half-spaces.

    Case analysis on the active set: return ``x`` when feasible; a
    single-constraint projection when it satisfies the other constraint
    (then it is optimal for the intersection too); otherwise both
    constraints are active and the point is ``x - mu1 a1 - mu2 a2`` with
    multipliers from the 2x2 Gram system. If no case produces a feasible
    point with nonnegative multipliers the intersection is empty and
    :class:`InfeasibleSetError` is raised.

    The cases are decided from six scalars, ``<a_i, a_j>``, ``<a_i, x>``
    and ``||x||^2``: the single projection ``p1 = x - t a1`` has
    ``<a2, p1> = <a2, x> - t <a1, a2>`` and
    ``||p1||^2 = ||x||^2 - 2 t <a1, x> + t^2 ||a1||^2``, and likewise for
    ``p2``. Only the returned point is formed as a vector and checked. A
    normal whose squared norm is not finite raises ``ValueError``.
    """
    x = space.check(x)
    b1, b2 = h1.offset, h2.offset
    a1, g11 = _checked_halfspace(space, h1.normal, b1, "h1")
    a2, g22 = _checked_halfspace(space, h2.normal, b2, "h2")
    return _project_halfspace_pair(space, a1, b1, a2, b2, g11, g22, x, space._inner(x, x))


def _project_halfspace_pair(space, a1, b1, a2, b2, g11, g22, x, xx, out=None, scratch=None):
    # onto {u : <a1, u> <= b1} and {u : <a2, u> <= b2}; the caller forms
    # g11 = <a1, a1>, g22 = <a2, a2> and xx = <x, x>; ``out`` receives the
    # projected point and ``scratch`` the second product of the two-active
    # case; neither may be x or a normal
    g12 = space._inner(a1, a2)
    ax1 = space._inner(a1, x)
    ax2 = space._inner(a2, x)
    # the same bits as space._norm(a1), space._norm(a2) and space._norm(x)
    n1 = math.sqrt(max(g11, 0.0))
    n2 = math.sqrt(max(g22, 0.0))
    x_norm = math.sqrt(max(xx, 0.0))
    if _within(b1, n1, ax1, x_norm) and _within(b2, n2, ax2, x_norm):
        return x
    # a single projection that meets the other cut is optimal (see the public form)
    t1 = _multiplier(b1, g11, ax1)
    if _within(b2, n2, *_single_scalars(t1, ax1, g11, ax2, g12, xx, x_norm)):
        return _project_halfspace(space, a1, b1, g11, x, ax1, out)
    t2 = _multiplier(b2, g22, ax2)
    if _within(b1, n1, *_single_scalars(t2, ax2, g22, ax1, g12, xx, x_norm)):
        return _project_halfspace(space, a2, b2, g22, x, ax2, out)

    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * g11 * g22:
        # parallel (or degenerate) normals that the single projections could
        # not reconcile: opposing half-spaces with no overlap
        raise InfeasibleSetError("half-space intersection is empty")
    r1 = ax1 - b1
    r2 = ax2 - b2
    mu1 = (g22 * r1 - g12 * r2) / det
    mu2 = (g11 * r2 - g12 * r1) / det
    tol = 1e-12 * (1.0 + abs(mu1) + abs(mu2))
    if mu1 < -tol or mu2 < -tol:
        raise InfeasibleSetError("half-space intersection is empty")
    # (x - mu1 a1) - mu2 a2, in that order
    p = np.subtract(x, np.multiply(a1, max(mu1, 0.0), out), out)
    return space.check(np.subtract(p, np.multiply(a2, max(mu2, 0.0), scratch), out))


def _cq_halfspaces(space, x_n, y_n, x_0, c_out=None, q_out=None):
    """Half-space forms of the two sets cut by a CQ-type projection step.

    With ``c = x - y``, ``{u : ||y - u|| <= ||x - u||}`` is the cut through
    the midpoint, ``{u : <c, u> <= <c, x> - <c, c>/2}``. This offset's
    rounding error scales with ``||c||``; that of the equal offset
    ``(||x||^2 - ||y||^2)/2`` is about ``eps ||x||^2``, which moves the cut
    by O(1) once ``c`` is rounding noise, so the cut could exclude the
    fixed-point set. ``{u : <x - u, x - x0> <= 0}`` is
    ``{u : <x0 - x, u> <= <x0 - x, x>}``. Degenerate inputs (``y = x`` or
    ``x0 = x``) give zero normals with offset 0, i.e. the whole space.

    Returns ``(c, c_offset, q, q_offset, <c, c>, <q, q>)``, plain values in
    the argument order of :func:`_project_halfspace_pair`. The two squared
    norms are formed first; they certify the normals (see
    :mod:`fpiter.space`), and a non-finite one raises ``ValueError``.

    ``c_out`` and ``q_out`` receive the two normals; ``c_out`` may be the
    storage of ``y_n``, which is read before the normal overwrites it.
    """
    c_normal = np.subtract(x_n, y_n, c_out)
    q_normal = np.subtract(x_0, x_n, q_out)
    g11 = space._inner(c_normal, c_normal)
    g22 = space._inner(q_normal, q_normal)
    if not (math.isfinite(g11) and math.isfinite(g22)):
        raise ValueError("CQ cut normals must have finite squared norms")
    c_offset = space._inner(c_normal, x_n) - 0.5 * g11
    q_offset = space._inner(q_normal, x_n)
    return c_normal, c_offset, q_normal, q_offset, g11, g22


def _check_sfp_args(space, lam, mode) -> float:
    # returns the divisor; build_sfp calls it too, so bad args fail before any run
    if not 0.0 < lam < 2.0:
        raise ValueError(f"lam must lie in (0, 2), got {lam}")
    return _integral_divisor(space, mode)


def sfp_operator(
    space: PeriodicGridSpace, x, lam: float = 0.25, mode: str = "damped"
) -> np.ndarray:
    """One forward-projection sweep ``x -> P_C(x - lam (x - P_Q x))``.

    ``P_Q`` is :func:`project_l2_ball` and ``P_C`` is
    :func:`project_integral_halfspace`; the linear map between their spaces
    is the identity, so the sweep is nonexpansive exactly when
    ``0 < lam < 2``. With ``d = x - sin`` the inner step is ``x`` when
    ``||d|| <= 4`` and ``sin + (1 - lam + lam 4/||d||) d`` otherwise, in
    three grid passes. That equals the composed projections inside the ball
    and agrees with them to rounding outside, not bit for bit. ``lam``,
    ``mode`` and ``x`` are checked once; a point so large that the sweep
    overflows gives a non-finite result, which :func:`fpiter.algorithms.run`
    rejects. The result is one fresh 64-byte-aligned vector, and no other
    grid-sized temporary is made.
    """
    divisor = _check_sfp_args(space, lam, mode)
    return _sfp_sweep(space, space.check(x), lam, divisor)


def _sfp_sweep(space, x, lam, divisor, out=None):
    # sfp_operator's kernel; z (out or a fresh aligned vector) holds x - sin, then the step
    z = np.subtract(x, space.sin_nodes, _aligned_empty(space.size) if out is None else out)
    dist = space._norm(z)
    if dist <= _SFP_RADIUS:
        np.copyto(z, x)
    else:
        np.add(space.sin_nodes, np.multiply(z, 1.0 - lam + lam * (_SFP_RADIUS / dist), z), z)
    return _project_integral_halfspace(space, z, divisor, z)


def cfp_operator(
    space: InnerProductSpace, balls: BallSet | Sequence[Ball], x
) -> np.ndarray:
    """Averaged-projection sweep ``x -> P_0((1/m) sum_{i=1..m} P_i x)``.

    Ball 0 is the outer set applied last; the remaining balls are
    projected independently and averaged. Composition of nonexpansive maps,
    hence nonexpansive; fixes any common point of all the balls. ``balls``
    is a :class:`BallSet` or a sequence of :class:`Ball` (turned into one
    here). The inner balls are swept at once from the ``(m, dim)`` array of
    differences ``d_i = x - c_i`` and its row norms (see
    :mod:`fpiter.space`): as ``P_i x - x = (s_i - 1) d_i`` with
    ``s_i = r_i / max(||d_i||, r_i)``, the average is
    ``x + (1/m) sum_i (s_i - 1) d_i``, one matrix-vector product. A ball
    that holds ``x`` (boundary included) adds an exact zero, so every
    common point of the balls is returned bit for bit (but for a ``-0.0``
    coordinate, which comes back as ``0.0``); elsewhere the result agrees
    with the per-ball :func:`project_ball` loop to rounding, not bit for
    bit. Only ``x`` and the width of the centers are validated here: a
    point so large that ``x - center`` overflows gives a non-finite result,
    which :func:`fpiter.algorithms.run` rejects.
    """
    if not isinstance(balls, BallSet):
        balls = list(balls)
        balls = BallSet([b.center for b in balls], [b.radius for b in balls])
    x = space.check(x)
    _check_width(space, balls.centers, "ball centers")
    centers, radii = balls.centers, balls.radii
    count = np.array(len(radii) - 1, np.float64)
    return _cfp_sweep(space, centers[1:], radii[1:], count, centers[0], radii.item(0), x)


def _cfp_sweep(space, centers, radii, count, outer_center, outer_radius, x):
    # the sweep of cfp_operator (stated there) over the inner balls' centers
    # and radii, on a validated x and centers of the space's width; ``count``
    # is len(radii) as a 0-d float64 array, so the divisor takes numpy's
    # array path (see the comment above fpiter.algorithms._blend)
    diffs = x - centers
    dists = np.sqrt(space._row_inners(diffs))
    reach = np.maximum(dists, radii)
    steps = (radii - reach) / reach
    avg = x + steps.dot(diffs) / count
    return _project_ball(space, outer_center, outer_radius, avg)


def weiszfeld_map(space: InnerProductSpace, anchors: AnchorSet, x) -> np.ndarray:
    """Weighted-harmonic-mean step toward the weighted-median of the anchors.

    ``T(x) = (sum_i w_i a_i / d_i) / (sum_i w_i / d_i)`` with
    ``d_i = ||x - a_i||``, computed for all anchors at once as row norms
    (see :mod:`fpiter.space`). Undefined at the
    anchors themselves: points within ``1e-12`` of an anchor raise
    :class:`SingularityError` and the caller decides the perturbation
    policy. The output is a convex combination of the anchors with
    coefficients proportional to ``w_i / d_i``.
    """
    x = space.check(x)
    _check_width(space, anchors.anchors, "anchors")
    return _weiszfeld(space, anchors, x)


def _weiszfeld(space, anchors, x):
    # the map of weiszfeld_map on a validated x and anchors of the space's width
    points = anchors.anchors
    d2 = space._row_inners(x - points)
    dists = np.sqrt(d2, d2)
    # the verdict of (dists <= tol).any(), read at argmin (see fpiter.space);
    # argmin returns a NaN distance first, which would hide a singular
    # anchor, so a NaN falls back to the fmin reduction, which skips it
    nearest = dists.item(dists.argmin())
    if math.isnan(nearest):
        nearest = np.fmin.reduce(dists)
    if nearest <= ANCHOR_SINGULARITY_TOL:
        raise SingularityError("evaluation point coincides with an anchor")
    coef = anchors.weights / dists
    # the dgemv and the reduction of coef @ points and coef.sum(), without
    # the gufunc and method dispatch (the reduction rule of fpiter.space)
    return coef.dot(points) / np.add.reduce(coef)
