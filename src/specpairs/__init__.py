"""Cospectral graph pairs with different connectivity.

Exact constructions of regular graph pairs that share their adjacency
and Laplacian spectra yet differ in vertex or edge connectivity,
together with the exact machinery needed to verify such claims:
integer characteristic polynomials, certified eigenvalue enclosures,
max-flow connectivity with checkable witnesses, and the admissibility
checks for the switching operation that produces the pairs.

Each public name is declared once, in its own module's ``__all__``; the
package re-exports those lists.  ``cli`` and ``_exactpoly`` stay out of
the package namespace, so importing the package does not import argparse.
"""

from . import connectivity, families, graph, spectra, switching
from .connectivity import *
from .families import *
from .graph import *
from .spectra import *
from .switching import *

__version__ = "0.1.0"

# extended one module at a time, a form static tools can read
__all__ = []
__all__ += connectivity.__all__
__all__ += families.__all__
__all__ += graph.__all__
__all__ += spectra.__all__
__all__ += switching.__all__
