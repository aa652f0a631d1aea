"""Numerical laboratory for the bilinear Hilbert transform along curved
translations: curve-class diagnostics, stationary-phase profiles, chirped
filter-bank decompositions with dual-route trilinear forms, square-function
and decomposition toolkit, and empirical operator-norm scans."""

__version__ = "0.1.0"

from .bumps import *
from .curves import *
from .decomposition import *
from .normscan import *
from .phase import *
from .signal import *
from .squarefuncs import *
