"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the code paths it is meant to check:
packed words are found by filtering raw words, decompositions by trying
every candidate right factor, irreducible counts by explicit composition
sums over the packed-word totals, coproducts by listing position subsets
with the public word operations, and antipodes by the right-hand
recursion, the mirror image of the library's.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from itertools import product as iproduct

from packedwords import (
    LinComb,
    Tensor2,
    Word,
    enumerate_packed,
    is_packed,
    pack,
    product,
    quotient,
    shifted_concat,
    subword,
)


def brute_packed_words(n: int) -> set[Word]:
    """All packed words of length n, by filtering every word over 0..n."""
    return {w for w in (Word(ls) for ls in iproduct(range(n + 1), repeat=n)) if is_packed(w)}


def brute_decompositions(w: Word) -> list[tuple[Word, Word]]:
    """Every way to write w as a product of two nonempty packed words.

    Candidate right factors are enumerated and multiplied back; no cut or
    infimum logic is involved.
    """
    n = len(w)
    out = []
    for j in range(1, n):
        left = Word(w.letters[:j])
        if not is_packed(left):
            continue
        for right in enumerate_packed(n - j):
            if shifted_concat(left, right) == w:
                out.append((left, right))
    return out


def brute_is_irreducible(w: Word) -> bool:
    return not brute_decompositions(w)


def brute_factorizations(w: Word) -> list[list[Word]]:
    """Every factorization of w into irreducibles, by exhaustive search."""
    results = []
    if brute_is_irreducible(w):
        results.append([w])
    for left, right in brute_decompositions(w):
        if not brute_is_irreducible(left):
            continue
        for rest in brute_factorizations(right):
            results.append([left] + rest)
    return results


def brute_coproduct(w: Word) -> Tensor2:
    """Selection/quotient coproduct, one term per set of selected positions.

    For each set I of positions (1-based, from ``combinations``) the term is
    pack(subword on I) (x) pack(subword on the rest, quotiented by the
    subword on I).
    """
    positions = range(1, len(w) + 1)
    pairs = Counter()
    for k in range(len(w) + 1):
        for chosen in combinations(positions, k):
            left = subword(w, chosen)
            right = subword(w, [p for p in positions if p not in chosen])
            pairs[pack(left), pack(quotient(right, left))] += 1
    return Tensor2(pairs)


def brute_antipode(w: Word, memo: "dict[Word, LinComb] | None" = None) -> LinComb:
    """Antipode by the right-hand recursion S(w) = -w - sum u * S(v).

    The sum runs over the terms u (x) v of ``brute_coproduct`` with both
    slots nonempty, multiplied with the public ``product``.  ``memo`` may be
    shared between calls.
    """
    if not len(w):
        return LinComb.unit()
    if memo is None:
        memo = {}
    if w not in memo:
        result = LinComb.word(w, -1)
        for (u, v), c in brute_coproduct(w).terms.items():
            if len(u) and len(v):
                result = result - c * product(LinComb.word(u), brute_antipode(v, memo))
        memo[w] = result
    return memo[w]
