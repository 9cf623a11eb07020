"""saddleflow: saddle flow dynamics for convex-concave problems.

Saddle problems and their transformations (augmented, proximal,
preconditioned, reduced, and the Lasso pipeline), one flow constructor for
all of them (``standard_flow``, projected onto the problem's domain) plus
one flow with a field of its own, observable convergence certificates and
exponential-rate bounds, a fixed-step integrator with empirical rate
fitting, and desk-scale problem builders with independent oracles.
"""

from .core import *
from .projection import *
from .transforms import *
from .flows import *
from .integrate import *
from .certificates import *
from .problems import *

__version__ = "0.1.0"
