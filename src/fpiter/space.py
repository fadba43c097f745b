"""Real inner-product spaces over dense float64 coordinate arrays.

Two geometries cover everything the iteration engines need: Euclidean R^n
with the dot product, and real functions on an interval [0, L] sampled on a
uniform grid, where the inner product is the composite-trapezoid quadrature
of f*g (default L = 2*pi). Points are plain one-dimensional numpy arrays;
a space validates membership (length and finiteness) and supplies the
inner product, norm and affine combinations.

Spaces are immutable after construction and every public method is a pure
function of its arguments, so instances can be shared freely across threads.
A :class:`PeriodicGridSpace` also lends each thread two scratch vectors
(see :meth:`PeriodicGridSpace._scratch`); they hold no state between
calls.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

__all__ = ["InnerProductSpace", "EuclideanSpace", "PeriodicGridSpace", "TWO_PI"]

TWO_PI = 2.0 * math.pi


class InnerProductSpace:
    """Weighted inner product ``<x, y> = sum_i w_i x_i y_i`` on ``size`` coordinates."""

    def __init__(self, size: int, weights: np.ndarray):
        size = int(size)
        if size < 1:
            raise ValueError(f"space needs at least one coordinate, got {size}")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (size,) or not (weights > 0).all():
            raise ValueError("weights must be positive and match the coordinate count")
        weights.setflags(write=False)
        self.size = size
        self.weights = weights

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
        return float(np.dot(self.weights * x, y))

    def _norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self._inner(x, x), 0.0))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size)


class EuclideanSpace(InnerProductSpace):
    """R^dim with the standard dot product."""

    def __init__(self, dim: int):
        super().__init__(dim, np.ones(int(dim)))

    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        # the weights are all 1.0 and 1.0 * v is exact, so the plain dot
        # product gives the base class's bits without the array multiply
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
    the projections and the residual metric read on every call.

    Each thread gets two scratch vectors, made on its first use and held in
    a ``threading.local``: :meth:`_inner` forms the weighted product ``w * x``
    in the second, and the residual metric forms ``x - sin`` in the first
    (:meth:`_scratch`). They hold nothing between calls, so the space stays
    shareable across threads, and a wide grid does not allocate (and
    page-fault in) fresh temporaries on every iteration.
    """

    def __init__(self, num_points: int = 1024, interval_end: float = TWO_PI):
        num_points = int(num_points)
        if num_points < 2:
            raise ValueError(f"grid needs at least two nodes, got {num_points}")
        if not interval_end > 0:
            raise ValueError(f"interval end must be positive, got {interval_end}")
        h = interval_end / (num_points - 1)
        weights = np.full(num_points, h)
        weights[0] = weights[-1] = h / 2.0
        super().__init__(num_points, weights)
        self.num_points = num_points
        self.interval_end = float(interval_end)
        self.nodes = np.linspace(0.0, interval_end, num_points)
        self.nodes.setflags(write=False)
        self.sin_nodes = np.sin(self.nodes)
        self.sin_nodes.setflags(write=False)
        self._local = threading.local()

    def integrate(self, x) -> float:
        """Quadrature of ``x`` over [0, interval_end]."""
        return self._integrate(self.check(x))

    def _integrate(self, x: np.ndarray) -> float:
        # unchecked form, like ``_inner``
        return float(np.dot(self.weights, x))

    def _scratch(self):
        """This thread's two scratch vectors; their contents are undefined.

        :meth:`_inner` writes its product into the second, so a caller may
        hold only the first across a call to it.
        """
        try:
            return self._local.buffers
        except AttributeError:
            buffers = self._local.buffers = (np.empty(self.size), np.empty(self.size))
            return buffers

    def _inner(self, x: np.ndarray, y: np.ndarray) -> float:
        # the base class's product and dot, with the product in scratch
        return float(np.dot(np.multiply(self.weights, x, self._scratch()[1]), y))

    def from_function(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sample ``f`` at the grid nodes."""
        return self.check(np.asarray(f(self.nodes), dtype=np.float64))

    def __repr__(self):
        return (
            f"PeriodicGridSpace(num_points={self.num_points}, "
            f"interval_end={self.interval_end!r})"
        )
