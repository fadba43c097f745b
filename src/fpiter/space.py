"""Real inner-product spaces over dense float64 coordinate arrays.

Two geometries cover everything the iteration engines need: Euclidean R^n
with the dot product, and real functions on an interval [0, L] sampled on a
uniform grid, where the inner product is the composite-trapezoid quadrature
of f*g (default L = 2*pi). Points are plain one-dimensional numpy arrays;
a space validates membership (length and finiteness) and supplies the
inner product, norm and affine combinations.

Every point-sized vector the package creates (weights, cached samples,
scratch vectors, ``zeros``, the run workspace, the sfp operator's result)
comes from :func:`_aligned_empty` and starts on a 64-byte boundary, one
cache line: glibc places large arrays 16-48 bytes off it, where each wide
load of a streaming ufunc splits a line. Results do not depend on where a
vector starts, and arrays a caller passes in are never copied to align them.

Spaces are immutable after construction and every public method is a pure
function of its arguments, so instances can be shared freely across threads.
Every space also lends each thread two scratch vectors (see
:meth:`InnerProductSpace._scratch`); they hold no state between calls.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

__all__ = ["InnerProductSpace", "EuclideanSpace", "PeriodicGridSpace", "TWO_PI"]

TWO_PI = 2.0 * math.pi

_ALIGN_BYTES = 64


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector of ``size`` that starts on a 64-byte boundary."""
    buf = np.empty(size + _ALIGN_BYTES // 8)
    start = (-buf.ctypes.data % _ALIGN_BYTES) // 8
    return buf[start : start + size]


class InnerProductSpace:
    """Weighted inner product ``<x, y> = sum_i w_i x_i y_i`` on ``size`` coordinates.

    The weights must be finite and positive; they are copied into aligned,
    read-only storage and the caller's array is left as it was.

    Each thread gets two scratch vectors, made on its first use and held in
    a ``threading.local``: :meth:`_inner` forms the weighted product ``w * x``
    in the second, and callers such as the sfp residual metric may use the
    first (:meth:`_scratch`). They hold nothing between calls, so the space
    stays shareable across threads, and a wide space does not allocate (and
    page-fault in) a fresh product on every inner product.
    """

    def __init__(self, size: int, weights: np.ndarray):
        size = int(size)
        if size < 1:
            raise ValueError(f"space needs at least one coordinate, got {size}")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (size,) or not (np.isfinite(weights) & (weights > 0)).all():
            raise ValueError("weights must be finite, positive and match the coordinate count")
        stored = _aligned_empty(size)
        stored[:] = weights
        stored.setflags(write=False)
        self.size = size
        self.weights = stored
        self._local = threading.local()

    def check(self, x) -> np.ndarray:
        """Validate that ``x`` belongs to this space and return it as float64.

        Raises ValueError on a length mismatch or non-finite entries.
        """
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} coordinates, got array of shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite (no NaN or Inf)")
        return arr

    def inner(self, x, y) -> float:
        return self._inner(self.check(x), self.check(y))

    def norm(self, x) -> float:
        return self._norm(self.check(x))

    def combine(self, t: float, x, y) -> np.ndarray:
        """Affine combination ``t*x + (1 - t)*y``."""
        x = self.check(x)
        y = self.check(y)
        return t * x + (1.0 - t) * y

    # Unchecked forms for arrays the caller has already validated; the
    # iteration engines use them inside a run, where every array is checked
    # once where it enters (start point, operator and contraction outputs).
    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(np.multiply(self.weights, x, self._scratch()[1]), y))

    def _norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self._inner(x, x), 0.0))

    def _scratch(self):
        """This thread's two scratch vectors; their contents are undefined.

        :meth:`_inner` writes its product into the second, so a caller may
        hold only the first across a call to it.
        """
        try:
            return self._local.buffers
        except AttributeError:
            buffers = (_aligned_empty(self.size), _aligned_empty(self.size))
            self._local.buffers = buffers
            return buffers

    def zeros(self) -> np.ndarray:
        z = _aligned_empty(self.size)
        z.fill(0.0)
        return z


class EuclideanSpace(InnerProductSpace):
    """R^dim with the standard dot product."""

    def __init__(self, dim: int):
        super().__init__(dim, np.ones(int(dim)))

    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        # the weights are all 1.0 and 1.0 * v is exact, so the plain dot
        # product gives the base class's bits without the multiply or scratch
        return float(np.dot(x, y))

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
    the projections and the residual metric read on every call. The
    residual metric forms ``x - sin`` in the first scratch vector.
    """

    def __init__(self, num_points: int = 1024, interval_end: float = TWO_PI):
        num_points = int(num_points)
        if num_points < 2:
            raise ValueError(f"grid needs at least two nodes, got {num_points}")
        if not 0 < interval_end < math.inf:
            raise ValueError(f"interval end must be finite and positive, got {interval_end}")
        h = interval_end / (num_points - 1)
        weights = np.full(num_points, h)
        weights[0] = weights[-1] = h / 2.0
        super().__init__(num_points, weights)
        self.num_points = num_points
        self.interval_end = float(interval_end)
        self.nodes = np.linspace(0.0, interval_end, num_points)
        self.nodes.setflags(write=False)
        self.sin_nodes = np.sin(self.nodes, out=_aligned_empty(num_points))
        self.sin_nodes.setflags(write=False)

    def integrate(self, x) -> float:
        """Quadrature of ``x`` over [0, interval_end]."""
        return self._integrate(self.check(x))

    def _integrate(self, x: np.ndarray) -> float:
        # unchecked form, like ``_inner``
        return float(np.dot(self.weights, x))

    def from_function(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sample ``f`` at the grid nodes, into a fresh aligned vector."""
        samples = _aligned_empty(self.size)
        samples[:] = self.check(f(self.nodes))
        return samples

    def __repr__(self):
        return (
            f"PeriodicGridSpace(num_points={self.num_points}, "
            f"interval_end={self.interval_end!r})"
        )
