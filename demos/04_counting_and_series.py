"""
Counting packed words exactly
=============================

Packed words of length n and supremum k are ordered set partitions in
disguise, so the counts come out of Stirling numbers of the second kind:
d(n,k) = S(n+1,k+1) k!.  The length totals d_n obey the exponential
generating function e^x/(2-e^x), and the irreducible counts i_n follow
from the free factorization, either by inclusion-exclusion over
compositions or by an integer recurrence.
"""

from packedwords import (
    count_irreducible,
    count_irreducible_compositions,
    count_packed,
    count_packed_total,
    egf_check,
    enumerate_packed,
    is_irreducible,
    stirling2,
)

print("d(n,k) triangle:")
for n in range(7):
    print("  ", [count_packed(n, k) for k in range(n + 1)])

print("totals   d_n:", [count_packed_total(n) for n in range(11)])
print("split d(4,2) =", count_packed(4, 2), "= S(5,3)*2! =", stirling2(5, 3) * 2)

print("irreducible i_n (integer recurrence): ", [count_irreducible(n) for n in range(1, 11)])
print("irreducible i_n (composition sums):   ", [count_irreducible_compositions(n) for n in range(1, 11)])

# the counts of both kinds agree with explicit generation
n = 5
words = enumerate_packed(n)
print(f"generated {len(words)} words of length {n}; expected {count_packed_total(n)}")
print(f"of which irreducible: {sum(1 for w in words if is_irreducible(w))}; expected {count_irreducible(n)}")

# expand e^x/(2-e^x) exactly and read off n! * coefficient
print("series check:")
for n, value, ok in egf_check(10):
    print(f"   n={n:2d}  {value:>11d}  {'match' if ok else 'MISMATCH'}")

# the ordered Bell numbers b_0 = 1, b_n = sum_{k=1..n} C(n,k)*b_{n-k}:
# d_n is twice b_n for n >= 1
from math import comb

fubini = [1]
for n in range(1, 11):
    fubini.append(sum(comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
print("ordered Bell:", fubini)
print("doubling holds:", all(count_packed_total(n) == 2 * fubini[n] for n in range(1, 11)))
