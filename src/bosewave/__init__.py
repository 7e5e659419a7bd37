"""Plane sound waves in a discrete-velocity quantum gas.

Dispersion and attenuation of forced plane waves in a gas of 2n discrete
velocity directions with Uehling-Uhlenbeck (Bose/Fermi/Boltzmann) collision
statistics, computed two independent ways: by solving the complex dispersion
relation, and by direct kinetic simulation with wavenumber fitting.
"""

from . import analysis, dispersion, model, simulate
from .analysis import *  # noqa: F401,F403
from .dispersion import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *dispersion.__all__, *model.__all__,
           *simulate.__all__, "__version__"]
