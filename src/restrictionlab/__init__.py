"""Numerical laboratory for Fourier restriction and oscillatory-integral estimates.

The package builds discrete measures with prescribed ball-regularity and
Fourier-decay behavior, computes Lorentz quasi-norms of sampled fields,
carries out the exact rational exponent bookkeeping behind endpoint
restriction estimates, and runs scaling experiments (Knapp superpositions,
oscillatory operators with curved and folding phases) whose fitted slopes
witness both the boundedness and the sharpness sides of those estimates.

Everything is deterministic: fixed seeds, exact closed forms where they
exist, and CSV output that is bytewise reproducible.

The package exports its modules and each module's `__all__`.
"""

from .bumps import *
from .grids import *
from .measures import *
from .lorentz import *
from .exponents import *
from .operators import *
from .knapp import *
from .oscillatory import *
from .fitting import *
from .reporting import *
from .acceptance import *

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
