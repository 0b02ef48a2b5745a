"""
Primitive elements grade by grade
=================================

An element z is primitive when its coproduct is exactly z (x) e + e (x) z,
i.e. when the reduced coproduct kills it.  Per grade this is the kernel of
an exact rational matrix whose columns are the packed words of that length
and whose rows are the occupied nonempty tensor pairs; elimination over
the rationals gives certain integer dimensions, no tolerances involved.
"""

from collections import Counter

from packedwords import (
    count_packed_total,
    delta_plus_matrix,
    primitive_space,
    product,
    reduced_coproduct,
)

for n in (1, 2, 3):
    matrix = delta_plus_matrix(n)
    basis = primitive_space(n)
    print(
        f"grade {n}: {matrix.n_cols} basis words, {matrix.n_rows} occupied equations, "
        f"rank {matrix.rank()}, primitive dimension {basis.dimension}"
    )
    if n <= 2:
        for z in basis.vectors:
            print("    ", z)

# rank-nullity over exact arithmetic: rank + dim = number of words
for n in (1, 2, 3, 4):
    m = delta_plus_matrix(n)
    assert m.rank() + primitive_space(n).dimension == count_packed_total(n)
print("rank + nullity equals the word count for grades 1..4")

# the primitives form a Lie algebra: brackets of primitives stay primitive
z1 = primitive_space(1).vectors[0]
z2 = primitive_space(2).vectors[1]
bracket = product(z1, z2) - product(z2, z1)
print("a bracket of primitives:", bracket)
print("still primitive:", not reduced_coproduct(bracket))

# the coproduct keeps length and supremum, so each primitive space splits
# by the supremum k of its words; primitive_space computes it block by
# block, and every basis vector lies in one block
print("dim Prim_(n,k) for k = 0..n:")
for n in range(1, 6):
    by_sup = Counter(next(iter(z.terms)).sup for z in primitive_space(n).vectors)
    print(f"    n={n}:", [by_sup[k] for k in range(n + 1)])
