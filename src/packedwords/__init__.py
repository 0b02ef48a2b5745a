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

from .words import (
    NotPackedError,
    SubstitutionError,
    Word,
    WordSyntaxError,
    is_packed,
    pack,
    parse_word,
    quotient,
    require_packed,
    shift,
    substitute,
    subword,
)
from .algebra import (
    FormalSum,
    LinComb,
    admissible_cuts,
    factor_irreducible,
    is_irreducible,
    product,
    shifted_concat,
)
from .coalgebra import (
    Tensor2,
    antipode,
    coproduct,
    counit,
    reduced_coproduct,
    verify_antipode,
    verify_bialgebra,
    verify_coassociativity,
)
from .enumeration import (
    RationalSeries,
    count_irreducible,
    count_irreducible_compositions,
    count_packed,
    count_packed_pure,
    count_packed_total,
    count_packed_zero,
    egf_check,
    enumerate_irreducible,
    enumerate_packed,
    stirling2,
)
from .primitives import (
    DEFAULT_GRADE_CAP,
    PrimitiveBasis,
    RationalMatrix,
    ResourceLimitError,
    delta_plus_matrix,
    primitive_space,
)

__version__ = "0.1.0"

__all__ = [
    "Word",
    "WordSyntaxError",
    "SubstitutionError",
    "NotPackedError",
    "parse_word",
    "pack",
    "is_packed",
    "require_packed",
    "substitute",
    "shift",
    "subword",
    "quotient",
    "FormalSum",
    "LinComb",
    "shifted_concat",
    "product",
    "admissible_cuts",
    "is_irreducible",
    "factor_irreducible",
    "Tensor2",
    "coproduct",
    "counit",
    "reduced_coproduct",
    "antipode",
    "verify_coassociativity",
    "verify_bialgebra",
    "verify_antipode",
    "stirling2",
    "count_packed",
    "count_packed_pure",
    "count_packed_zero",
    "count_packed_total",
    "count_irreducible",
    "count_irreducible_compositions",
    "enumerate_packed",
    "enumerate_irreducible",
    "RationalSeries",
    "egf_check",
    "ResourceLimitError",
    "RationalMatrix",
    "PrimitiveBasis",
    "delta_plus_matrix",
    "primitive_space",
    "DEFAULT_GRADE_CAP",
]
