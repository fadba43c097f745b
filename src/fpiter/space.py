"""Real inner-product spaces over dense float64 coordinate arrays.

Two geometries cover everything the iteration engines need: Euclidean R^n
with the dot product, and real functions on an interval [0, L] sampled on a
uniform grid, where the inner product is the composite-trapezoid quadrature
of f*g (default L = 2*pi). Points are plain one-dimensional numpy arrays;
a space validates membership (length and finiteness) and supplies the
inner product, norm and affine combinations. Finiteness has one
certificate: a finite squared norm ``dot(x, x)`` proves every entry finite,
since an inf or NaN entry makes it inf or NaN and no term is negative.
Only a non-finite squared norm falls back to the elementwise test, which
decides; a finite point whose squared norm overflows (an entry above about
1.3e154) passes at the cost of that pass plus numpy's overflow warning. A
signaling NaN, which no arithmetic makes, costs an invalid-value warning.

Each space states its inner product once, as ``_inner``. The row form
``_row_inners`` (``<r, r>`` for each row of an ``(m, size)`` stack) calls
it on each row; only ``EuclideanSpace`` replaces that loop, by one
``np.vecdot``, which sums a row in ``dot``'s order and keeps its bits.
The ball sweep and the Weiszfeld map take their distances from it.

Reductions of one-dimensional operands call the method ``x.dot(y)``: it
is the C routine that ``np.dot`` wraps, with the same bits, but without
the Python-level ``__array_function__`` dispatch that every ``np.dot``
call passes through first, a quarter to a half of the call's time on
narrow vectors. ``np.vecdot`` is kept for row stacks only; on
one-dimensional operands it, and ``@``, are slower than the method.
``EuclideanSpace`` takes its norm from one ``x.dot(x)`` as well. An
extremum, whose value does not depend on the order it is taken in, reads
one entry, ``a.item(a.argmin())`` or ``argmax``: on a narrow vector a
``ufunc.reduce`` call costs about three times as much, some 1 µs more,
nearly all of it set-up. A scalar that multiplies or divides a narrow
vector inside a run's loop is a reused 0-d float64 array, not a Python
float, whose path through numpy costs more per call; the rule and its
numbers are stated above ``_blend`` in :mod:`fpiter.algorithms`.

These point-sized vectors come from :func:`_aligned_empty` and start on a
64-byte boundary, one cache line: weights, cached samples, ``zeros``, the
run workspace and the sfp operator's result. glibc places large arrays
16-48 bytes off it, where each wide load of a streaming ufunc splits a
line. Other results, such as those of ``combine`` and the projections,
are numpy's own allocations. Results do not depend on where a vector
starts, and arrays a caller passes in are never copied to align them.

Four validation rules are each stated once, as a private helper that
every site calls: :func:`_index` (an integer with a floor), :func:`_choice`
(a name from a fixed table) and :func:`_check_positive` (finite and strictly
positive) here, and ``_check_width`` (a row set's width against its space)
in :mod:`fpiter.operators`. The CLI restates some of them for outside input.

Spaces are immutable after construction, hold no scratch storage, and every
method is a pure function of its arguments, so instances can be shared
freely across threads.
"""

from __future__ import annotations

import math
from operator import index
from typing import Callable

import numpy as np

__all__ = ["InnerProductSpace", "EuclideanSpace", "PeriodicGridSpace", "TWO_PI"]

TWO_PI = 2.0 * math.pi

_ALIGN_BYTES = 64

_FLOAT64 = np.dtype(np.float64)
# kinds a float64 conversion would not refuse: it drops an imaginary part (with
# only a warning), parses a string, counts a time in units and reads None as NaN
_NOT_REAL = {
    "c": "complex", "U": "string", "S": "bytes", "m": "timedelta", "M": "datetime",
    None: "None",
}


def _index(value, name: str, minimum: int) -> int:
    """``value`` as an int by ``operator.index``, at least ``minimum``; else ``ValueError``."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _choice(value, choices, name: str):
    """``value`` if it is one of the names ``choices``, else ``ValueError`` listing them."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}, expected one of {choices}")
    return value


def _real_array(x) -> np.ndarray:
    """``x`` as an array; ``ValueError`` if an entry is complex, text, a time or None."""
    arr = np.asarray(x)
    kinds = {arr.dtype.kind}
    if arr.dtype.kind == "O":  # Python objects: numpy would convert each by float()
        kinds = {None if v is None else np.asarray(v).dtype.kind for v in arr.flat}
    named = sorted(_NOT_REAL[k] for k in kinds & _NOT_REAL.keys())
    if named:
        raise ValueError(f"coordinates must be real numbers, got {' and '.join(named)} entries")
    return arr


def _check_positive(values, name) -> None:
    # the one rule for weights, radii and the grid's end: finite and strictly positive
    if not (np.isfinite(values) & (values > 0)).all():
        raise ValueError(f"{name} must be finite and strictly positive")


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector of ``size`` that starts on a 64-byte boundary."""
    buf = np.empty(size + _ALIGN_BYTES // 8)
    start = (-buf.ctypes.data % _ALIGN_BYTES) // 8
    return buf[start : start + size]


class InnerProductSpace:
    """Weighted inner product ``<x, y> = sum_i w_i x_i y_i`` on ``size`` coordinates.

    ``size`` must be an integer of at least 1 (``operator.index``; a float
    or a string raises ``ValueError``, it is not truncated). The weights
    must be finite and positive; they are copied into aligned, read-only
    storage and the caller's array is left as it was. This :meth:`_inner`
    forms ``w * x`` as a temporary; the two subclasses make one pass and
    form none.
    """

    def __init__(self, size: int, weights: np.ndarray):
        size = _index(size, "size", 1)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (size,):
            raise ValueError(f"weights need shape {(size,)}, got {weights.shape}")
        _check_positive(weights, "weights")
        stored = _aligned_empty(size)
        stored[:] = weights
        stored.setflags(write=False)
        self.size = size
        self.weights = stored

    def check(self, x) -> np.ndarray:
        """Validate that ``x`` belongs to this space and return it as float64.

        Raises ValueError on complex, text, time or ``None`` entries, a length
        mismatch or non-finite entries, which the certificate of the module
        docstring decides.
        """
        if getattr(x, "dtype", None) is not _FLOAT64:
            x = _real_array(x)
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} coordinates, got array of shape {arr.shape}"
            )
        if not math.isfinite(arr.dot(arr)) and not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite (no NaN or Inf)")
        return arr

    def inner(self, x, y) -> float:
        """``<x, y>`` of two points that :meth:`check` accepts, or its ``ValueError``."""
        return self._inner(self.check(x), self.check(y))

    def norm(self, x) -> float:
        """``||x||`` of a point that :meth:`check` accepts, or its ``ValueError``."""
        return self._norm(self.check(x))

    def combine(self, t: float, x, y) -> np.ndarray:
        """Affine combination ``t*x + (1 - t)*y``; ``t`` must be finite."""
        if not math.isfinite(t):
            raise ValueError(f"combination weight t must be finite, got {t}")
        x = self.check(x)
        y = self.check(y)
        return t * x + (1.0 - t) * y

    # Unchecked forms for validated arrays (see fpiter.algorithms.run)
    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.weights * x).dot(y))

    def _norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self._inner(x, x), 0.0))

    def _row_inners(self, rows: np.ndarray) -> np.ndarray:
        # <r, r> for each row of an (m, size) array, by _inner itself, so a
        # subclass that overrides _inner gets its row norms from it
        return np.array([self._inner(r, r) for r in rows])

    def zeros(self) -> np.ndarray:
        """A fresh 64-byte-aligned zero point; it checks and raises nothing."""
        z = _aligned_empty(self.size)
        z.fill(0.0)
        return z


class EuclideanSpace(InnerProductSpace):
    """R^dim with the standard dot product."""

    def __init__(self, dim: int):
        dim = _index(dim, "dim", 1)
        super().__init__(dim, np.ones(dim))

    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        # the weights are all 1.0 and 1.0 * v is exact, so the plain dot
        # product gives the base class's bits without the multiply
        return float(x.dot(y))

    def _norm(self, x: np.ndarray) -> float:
        # the base class's sqrt(max(_inner(x, x), 0.0)) from one dot: x.dot(x)
        # is never negative (nor -0.0) and a NaN passes through both forms
        return math.sqrt(x.dot(x))

    def _row_inners(self, rows: np.ndarray) -> np.ndarray:
        # _inner of each row in one call: vecdot sums a row in dot's order
        return np.vecdot(rows, rows)

    def __repr__(self):
        return f"EuclideanSpace(dim={self.size})"


class PeriodicGridSpace(InnerProductSpace):
    """Functions on [0, interval_end] sampled on a uniform grid of nodes.

    The inner product is the composite trapezoid rule applied to the
    pointwise product, i.e. ``<f, g> ~ integral of f(t) g(t) dt``. The rule
    is exact for polynomials of degree <= 1 and spectrally accurate for
    smooth integrands that are periodic on the interval, so trigonometric
    identities such as ``integral of sin^2 = pi`` hold to machine precision
    at the default resolution.

    ``sin_nodes`` holds ``sin`` sampled at the nodes, computed once: it is
    the center of the ball constraint of the feasibility benchmark, which
    the projections and the residual metric read on every call.

    The inner product makes one pass and forms no weighted product: the
    weights equal ``h = w_1`` at every node but the two ends, so
    ``<x, y> = h dot(x, y) + (w_0 - h) x_0 y_0 + (w_last - h) x_last y_last``.
    It reads the three weights at call time, so it holds for any weights
    with equal interior entries, and it differs from ``dot(w * x, y)`` by a
    few ulps.
    """

    def __init__(self, num_points: int = 1024, interval_end: float = TWO_PI):
        num_points = _index(num_points, "num_points", 2)
        _check_positive(interval_end, "interval end")
        h = interval_end / (num_points - 1)
        weights = np.full(num_points, h)
        weights[0] = weights[-1] = h / 2.0
        super().__init__(num_points, weights)
        self.interval_end = float(interval_end)
        self.nodes = np.linspace(0.0, interval_end, num_points)
        self.nodes.setflags(write=False)
        self.sin_nodes = np.sin(self.nodes, out=_aligned_empty(num_points))
        self.sin_nodes.setflags(write=False)

    def integrate(self, x) -> float:
        """Quadrature of ``x`` over [0, interval_end]."""
        return self._integrate(self.check(x))

    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        w = self.weights
        h = w.item(1)
        return (
            h * float(x.dot(y))
            + (w.item(0) - h) * x.item(0) * y.item(0)
            + (w.item(-1) - h) * x.item(-1) * y.item(-1)
        )

    def _integrate(self, x: np.ndarray) -> float:
        # unchecked form, like ``_inner``; one dot pass, called as the
        # module docstring's reduction rule says
        return float(self.weights.dot(x))

    def from_function(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sample ``f`` at the grid nodes, into a fresh aligned vector."""
        samples = _aligned_empty(self.size)
        samples[:] = self.check(f(self.nodes))
        return samples

    def __repr__(self):
        return (
            f"PeriodicGridSpace(num_points={self.size}, "
            f"interval_end={self.interval_end!r})"
        )
