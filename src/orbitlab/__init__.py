"""orbitlab: certified periodic-orbit census and perturbation toolkit for
polynomial maps.

The package measures how strongly periodic orbits of a polynomial map resist
perturbation (distance of the orbit cocycle spectrum to the unit circle),
counts periodic points with interval certification, performs the two basic
orbit surgeries (closing a trajectory, strengthening a multiplier), samples
random perturbations from graded bricks, discretizes orbits to
stretched-exponentially fine grids, and packages the whole pipeline into a
reproducible sampling experiment with a command-line front end.
"""

from .errors import *
from .perturbation import *
from .dynamics import *
from .hyperbolicity import *
from .lagrange import *
from .census import *
from .gridlab import *
from .experiment import *
from . import errors, perturbation, dynamics, hyperbolicity, lagrange, census, gridlab, experiment

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    name
    for module in (errors, perturbation, dynamics, hyperbolicity, lagrange, census, gridlab,
                   experiment)
    for name in module.__all__
]
