"""Reference spaces and oracles that several test modules compare the package
against, and the floating-point error modes they run it under."""

import contextlib
import warnings

import numpy as np

from fpiter.operators import InfeasibleSetError
from fpiter.space import InnerProductSpace, PeriodicGridSpace


class DoubledDotSpace(InnerProductSpace):
    """A space that overrides only ``_inner``: its row norms must follow it."""

    def _inner(self, x, y):
        return 2.0 * float(x.dot(y))


class RectangleGrid(PeriodicGridSpace):
    """A grid with rectangle-rule weights ``h``, whose sum ``N h`` is not ``L``."""

    def __init__(self, num_points):
        super().__init__(num_points)
        weights = np.full(num_points, self.interval_end / (num_points - 1))
        weights.setflags(write=False)
        self.weights = weights


def brute_force_pair_projection(a1, b1, a2, b2, x, tol=1e-9):
    """Independent oracle: enumerate active sets, solve by pseudo-inverse,
    return the nearest feasible candidate."""

    def feasible(u):
        scale = 1.0 + np.linalg.norm(u)
        return a1 @ u <= b1 + tol * scale and a2 @ u <= b2 + tol * scale

    candidates = []
    if feasible(x):
        candidates.append(x)
    for rows in ([0], [1], [0, 1]):
        A = np.vstack([a1, a2])[rows]
        b = np.array([b1, b2])[rows]
        u = x - A.T @ np.linalg.pinv(A @ A.T) @ (A @ x - b)
        if feasible(u):
            candidates.append(u)
    if not candidates:
        raise InfeasibleSetError("oracle found no feasible candidate")
    return min(candidates, key=lambda u: np.linalg.norm(u - x))


@contextlib.contextmanager
def _warnings_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


# the two ways a caller makes numpy's floating-point warnings exceptions:
# ``-W error::RuntimeWarning`` (tier-1's setting) raises the RuntimeWarning,
# ``np.seterr(all="raise")`` a FloatingPointError
ERROR_MODES = {
    "warnings-as-errors": _warnings_raise,
    "seterr-raise": lambda: np.errstate(all="raise"),
}
