"""Fixed-point iteration toolkit for nonexpansive operators.

Mann-type averaged iterations, their inertial variants, anchored
(Halpern-style) and viscosity variants with strong-convergence schedules,
and a CQ projection baseline, over Euclidean or quadrature-grid
inner-product spaces. ``fpiter.experiments`` ships three ready benchmark
problems and ``fpiter.cli`` drives them from the command line.
"""

from . import algorithms, experiments, operators, schedules, space
from .algorithms import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .schedules import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403

__version__ = "0.1.0"

# each library module's __all__ is the one list of its public names
__all__ = [n for m in (algorithms, experiments, operators, schedules, space) for n in m.__all__]
