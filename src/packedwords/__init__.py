"""Exact computer algebra on packed words.

The graded Hopf algebra spanned by packed words, with shifted concatenation
as product and the selection/quotient rule as coproduct: construction and
packing of words, multiplication and unique factorization into
irreducibles, coproduct/counit/antipode with verifiers for the Hopf
axioms, exact counting and generation by length and supremum, and
primitive spaces as kernels of the reduced coproduct.  All arithmetic is
exact: coefficients are arbitrary-precision integers, with rationals only
where a non-integer appears; everything is pure and safe to share between
threads.
"""

from . import algebra, coalgebra, enumeration, primitives, words
from .words import *
from .algebra import *
from .coalgebra import *
from .enumeration import *
from .primitives import *

__version__ = "0.1.0"

__all__ = words.__all__ + algebra.__all__ + coalgebra.__all__ + enumeration.__all__ + primitives.__all__
