"""Reference spaces that several test modules compare the package against."""

import numpy as np

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
