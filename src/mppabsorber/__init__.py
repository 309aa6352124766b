"""Transfer-matrix simulation and bandwidth optimization of multi-chamber
micro-perforated-panel sound absorbers.

The package exports the `__all__` of each of its modules."""

from . import acoustics, annealing, configio, spectrum, structure
from .acoustics import *  # noqa: F403
from .annealing import *  # noqa: F403
from .configio import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .structure import *  # noqa: F403

__all__ = [
    *acoustics.__all__,
    *annealing.__all__,
    *configio.__all__,
    *spectrum.__all__,
    *structure.__all__,
]

__version__ = "0.1.0"
