"""Spectral solver for a dissipative long-wave model on a strip.

The model is u_t + u_xxx + u_xyy + u u_x - delta (u_xx + u_yy) = 0 on
[-X, X) x (0, L), periodic in x with Dirichlet walls in y.  The package
provides the exact linear propagator, an exponential two-stage stepper
and a Picard fixed-point solver for the nonlinear flow, discrete energy
audits, regularized flux variants, decay-rate fits, and a CLI harness.

The package exports every name its modules list in __all__, plus phi.
"""

from . import domain, dynamics, functionals, initial_data, io, semigroup, trajectory
from .domain import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .functionals import *  # noqa: F403
from .initial_data import *  # noqa: F403
from .io import *  # noqa: F403
from .semigroup import *  # noqa: F403
from .semigroup import phi
from .trajectory import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (domain, dynamics, functionals, initial_data, io, semigroup, trajectory)
__all__ = sorted({"phi", *(name for mod in _MODULES for name in mod.__all__)})
