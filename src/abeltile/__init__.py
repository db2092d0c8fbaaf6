"""Exact decision procedures for translational tiling equations f*a = g on
finitely generated abelian groups, with certificates a third party can
re-check: periodic annihilator witnesses, torus tilings, finite refutation
boxes, and desk-scale verifiers for the surrounding algebra.

The public names are those in the ``__all__`` of each module below.
"""

from . import annihilator, cyclotomic, errors, groups, multitile, qzlinear, structure
from .annihilator import *
from .cyclotomic import *
from .errors import *
from .groups import *
from .multitile import *
from .qzlinear import *
from .structure import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (annihilator, cyclotomic, errors, groups, multitile, qzlinear, structure)
    for name in module.__all__
] + ["__version__"]
