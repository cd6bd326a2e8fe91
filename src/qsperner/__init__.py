"""Certified upper bounds and exact desk-scale verification for set
families with modular restrictions on differences, intersections, and
Hamming distances.

Each module's `__all__` declares its public names, and the package
re-exports every one of them."""

from . import bounds, closure, families, padic, polylab, seppoly
from .bounds import *
from .closure import *
from .families import *
from .padic import *
from .polylab import *
from .seppoly import *

__all__ = (bounds.__all__ + closure.__all__ + families.__all__
           + padic.__all__ + polylab.__all__ + seppoly.__all__)

__version__ = "0.1.0"
