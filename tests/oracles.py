"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the code paths it is meant to check:
packed words are found by filtering raw words or by ordering the blocks of
set partitions, decompositions by trying every candidate right factor or
by multiplying out every pair of factors, factorizations by peeling
irreducible factors off the right (``_factor_rightmost``, the one oracle
that reuses the library's cut predicate), irreducible counts by explicit
composition sums over the packed-word totals, coproducts by listing
position subsets with the public word operations, antipodes by the
right-hand recursion, the mirror image of the library's, and by
Takeuchi's closed form over ordered set partitions, the series
e^x/(2-e^x) by truncated ``Fraction`` series arithmetic, and reduced row
echelon forms by textbook Gauss-Jordan elimination.  ``packed_words`` and
``sweep`` set up the hypothesis sweeps, ``words_up_to`` the exhaustive
ones, and ``corrupted_delta`` injects the faults that every Hopf verifier
must notice.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from itertools import product as iproduct
from math import factorial

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

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
from packedwords.algebra import _cuts
from packedwords.words import _decode, _encode


def sweep(max_examples: int) -> settings:
    """Hypothesis settings for a sweep of max_examples examples.

    Derandomized, so every run draws the same examples, with no example
    database and no per-example deadline.
    """
    return settings(
        derandomize=True,
        max_examples=max_examples,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def words_up_to(max_len: int) -> list:
    """Every packed word of length at most max_len, shortest first."""
    return [w for n in range(max_len + 1) for w in enumerate_packed(n)]


# the words and the kinds of fault that corrupted_delta is applied with
CORRUPTED_WORDS = [(1, 1), (1, 2, 1), (0, 1, 1)]
EMPTY_SLOT_FAULTS = ["double w(x)e", "lose e(x)w", "stray 1(x)e"]
DELTA_FAULTS = ["lose", "multiplicity"] + EMPTY_SLOT_FAULTS


def corrupted_delta(real, word: tuple, fault: str):
    """The coded coproduct kernel `real`, except that on the code of the
    letter tuple `word` its largest nontrivial term, in the order of the
    decoded letter tuples, is lost ("lose") or has its multiplicity raised
    by one ("multiplicity"); or one term with an empty slot is wrong: the
    term w (x) e doubled ("double w(x)e"), e (x) w lost ("lose e(x)w"), or
    1 (x) e added ("stray 1(x)e")."""
    target = _encode(word)
    one = _encode((1,))

    def delta(code, *memos):
        terms = real(code, *memos)
        if code == target:
            terms = dict(terms)
            if fault == "double w(x)e":
                terms[code, 0] += 1
            elif fault == "lose e(x)w":
                del terms[0, code]
            elif fault == "stray 1(x)e":
                terms[one, 0] = terms.get((one, 0), 0) + 1
            else:
                split = max((k for k in terms if k[0] and k[1]), key=lambda k: (_decode(k[0]), _decode(k[1])))
                if fault == "lose":
                    del terms[split]
                else:
                    terms[split] += 1
        return terms

    return delta


def packed_words(min_len: int, max_len: int) -> st.SearchStrategy:
    """Hypothesis strategy: pack of min_len..max_len random letters.

    The letters are drawn over an alphabet of random size, so both words
    with many cuts (small alphabets, many x0) and words with few occur.
    """
    return st.integers(1, max_len).flatmap(
        lambda k: st.lists(st.integers(0, k), min_size=min_len, max_size=max_len).map(lambda ls: pack(Word(ls)))
    )


def brute_packed_words(n: int) -> set[Word]:
    """All packed words of length n, by filtering every word over 0..n."""
    return {w for w in (Word(ls) for ls in iproduct(range(n + 1), repeat=n)) if is_packed(w)}


def _set_partitions(items: tuple[int, ...], k: int):
    # partitions of items into exactly k nonempty blocks, blocks as tuples
    if k == 0:
        if not items:
            yield ()
        return
    if k > len(items):
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, k - 1):
        yield ((first,),) + part
    for part in _set_partitions(rest, k):
        for b in range(len(part)):
            yield part[:b] + ((first,) + part[b],) + part[b + 1 :]


def partition_packed_words(n: int) -> list[Word]:
    """All packed words of length n, canonically ordered, from set partitions.

    Pick the x0 positions, partition the rest into k nonempty blocks, order
    the blocks as the letters 1..k, then sort.
    """
    rows = [(0,) * n]
    positions = tuple(range(n))
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            for support in combinations(positions, m):
                for blocks in _set_partitions(support, k):
                    for order in permutations(range(1, k + 1)):
                        letters = [0] * n
                        for letter, block in zip(order, blocks):
                            for p in block:
                                letters[p] = letter
                        rows.append(tuple(letters))
    rows.sort()
    return [Word(letters) for letters in rows]


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


def brute_cut_table(n: int) -> dict[Word, set[int]]:
    """Cut positions of every packed word of length n, by multiplying out.

    Every pair of nonempty packed words (from ``brute_packed_words``) whose
    lengths add up to n is multiplied, and the left factor's length is
    recorded as a cut of the product; no cut or infimum logic is involved.
    """
    table = {w: set() for w in brute_packed_words(n)}
    words = [brute_packed_words(j) for j in range(n)]
    for j in range(1, n):
        for left in words[j]:
            for right in words[n - j]:
                table[shifted_concat(left, right)].add(j)
    return table


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


def _factor_rightmost(letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The irreducible factors of a nonempty packed word's letters, peeled
    off the right one rightmost cut of the shrinking word at a time.

    The one oracle here that calls a library helper, ``_cuts``: it
    cross-checks the library's splitting at all cuts at once and its shift
    down, not the cut predicate, which ``brute_cut_table`` checks.
    """
    factors = []
    while True:
        cuts = _cuts(letters)
        if not cuts:
            factors.append(letters)
            factors.reverse()
            return factors
        i = cuts[-1]
        top = max(letters[:i])
        factors.append(tuple(x - top if x else 0 for x in letters[i:]))
        letters = letters[:i]


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


def takeuchi_antipode(w: Word) -> LinComb:
    """Antipode by Takeuchi's closed form S(w) = sum (-1)^k t_1 * ... * t_k.

    The sum runs over the ordered set partitions (I_1, ..., I_k) of w's
    positions into nonempty blocks, each met as the map from positions to
    block numbers 0..k-1 that it is; t_j is the pack of w on I_j quotiented
    by the letters of w on I_1, ..., I_(j-1), and the product is
    ``shifted_concat``.  No recursion and no memo: every term is multiplied
    out on its own.
    """
    n = len(w)
    terms = Counter()
    for blocks in iproduct(range(n), repeat=n):
        k = len(set(blocks))
        if k and max(blocks) != k - 1:
            continue  # not onto 0..k-1
        term, before = Word(()), []
        for j in range(k):
            block = [p for p in range(1, n + 1) if blocks[p - 1] == j]
            term = shifted_concat(term, pack(quotient(subword(w, block), subword(w, before))))
            before += block
        terms[term] += (-1) ** k
    return LinComb(terms)


def egf_expansion(order: int) -> list[Fraction]:
    """n! * [x^n] of e^x/(2-e^x) for n <= order, by Fraction series arithmetic.

    The reciprocal g of c = 2 - e^x solves sum_{j<=m} c_j*g_{m-j} = [m == 0]
    term by term; the product g*e^x is truncated at order.
    """
    e = [Fraction(1, factorial(m)) for m in range(order + 1)]
    c = [2 - e[0]] + [-x for x in e[1:]]
    g = [1 / c[0]]
    for m in range(1, order + 1):
        g.append(-sum(c[j] * g[m - j] for j in range(1, m + 1)) / c[0])
    return [factorial(n) * sum(g[j] * e[n - j] for j in range(n + 1)) for n in range(order + 1)]


def _rref(rows: list[dict[int, Fraction]], ncols: int) -> tuple[list[int], list[dict[int, Fraction]]]:
    # slow reference for the library's one-pass sparse elimination
    # (packedwords.primitives._eliminate): in-place reduced row echelon form
    # over sparse rational rows, where the pivot for each column is the first
    # row with a nonzero entry there; returns the pivot columns and the
    # nonzero rows
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r].get(col):
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        lead = prow[col]
        if lead != 1:
            prow = {c: Fraction(v) / lead for c, v in prow.items()}
            rows[rank] = prow
        for r in range(len(rows)):
            if r == rank:
                continue
            f = rows[r].get(col)
            if not f:
                continue
            row = rows[r]
            for c, v in prow.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return pivots, rows[:rank]
