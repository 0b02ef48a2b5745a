"""Counting and generating packed words.

The count of packed words of length n and supremum k splits into the words
that avoid x0 and those that use it; both parts are ordered set partitions,
giving d(n,k) = S(n,k)k! + S(n,k+1)(k+1)! = S(n+1,k+1)k! in terms of
Stirling numbers of the second kind.  Totals per length follow the
exponential generating function e^x/(2-e^x), expanded here by the
recurrence its coefficients obey, and the irreducible counts come out of
the free-monoid structure, either as an inclusion-exclusion over
compositions or by an integer recurrence.  The words themselves are
generated depth first in canonical order, pruned so that every prefix
extends to a packed word, as letter tuples from one generator; the CLI
verbs ``enumerate`` and ``verify factorization`` and
``enumerate_irreducible`` read it directly, and ``enumerate_packed`` makes
the list of ``Word``s that the other callers use.  Everything is exact:
every count is an arbitrary-precision integer.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Iterator, Tuple

from .algebra import _cuts
from .words import Word

__all__ = [
    "stirling2",
    "count_packed",
    "count_packed_pure",
    "count_packed_zero",
    "count_packed_total",
    "count_irreducible",
    "count_irreducible_compositions",
    "enumerate_packed",
    "enumerate_irreducible",
    "egf_check",
]

# triangle rows built on demand; row n holds S(n, 0..n)
_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: n-set partitions into k blocks."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    global _STIRLING_ROWS
    rows = _STIRLING_ROWS
    if n >= len(rows):
        # build the longer list first and publish it in one assignment, so a
        # concurrent caller only ever sees a complete table
        rows = list(rows)
        for m in range(len(rows), n + 1):
            prev = rows[-1]
            rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, m)] + [1])
        _STIRLING_ROWS = rows
    return rows[n][k]


def count_packed_pure(n: int, k: int) -> int:
    """Packed words of length n and supremum k that avoid x0."""
    return stirling2(n, k) * factorial(k)


def count_packed_zero(n: int, k: int) -> int:
    """Packed words of length n and supremum k that contain x0."""
    return stirling2(n, k + 1) * factorial(k + 1)


def count_packed(n: int, k: int) -> int:
    """All packed words of length n and supremum k."""
    return stirling2(n + 1, k + 1) * factorial(k)


def count_packed_total(n: int) -> int:
    """All packed words of length n."""
    return sum(count_packed(n, k) for k in range(n + 1))


def _packed_letters(n: int) -> Iterator[Tuple[int, ...]]:
    # letter tuples of all packed words of length n in lexicographic order,
    # depth first: at each position the letters are tried in increasing
    # order, and a letter is allowed only if the letters still missing below
    # the running maximum fit into the positions left after it
    if n == 0:
        return iter([()])
    return _search(n)


def _allowed(top: int, seen: int, missing: int, left: int) -> Iterable[int]:
    # the letters allowed next after a prefix with maximum top; seen: bit x
    # set iff letter x occurs in the prefix; missing: letters 1..top absent
    # from it; left: positions still to fill, >= 1
    if missing == left:
        return [x for x in range(1, top + 1) if not seen >> x & 1]
    return range(top + left - missing + 1)


def _search(n: int) -> Iterator[Tuple[int, ...]]:
    # an explicit stack of (letters still to try, prefix, top, seen, missing,
    # left) frames, one per prefix on the current path; the last position is
    # filled here, so each word passes through one generator, not n nested
    stack = [(iter(_allowed(0, 0, 0, n)), (), 0, 0, 0, n)]
    while stack:
        xs, prefix, top, seen, missing, left = stack[-1]
        x = next(xs, None)
        if x is None:
            stack.pop()
            continue
        word = prefix + (x,)
        if left == 1:  # only when n == 1
            yield word
            continue
        if x > top:
            seen |= 1 << x
            missing += x - top - 1
            top = x
        elif x and not seen >> x & 1:
            seen |= 1 << x
            missing -= 1
        if left > 2:
            stack.append((iter(_allowed(top, seen, missing, left - 1)), word, top, seen, missing, left - 1))
        elif missing:
            # one position and one letter of 1..top left: it goes there
            yield word + ((~seen & ((2 << top) - 2)).bit_length() - 1,)
        else:
            for y in range(top + 2):
                yield word + (y,)


def enumerate_packed(n: int) -> list[Word]:
    """All packed words of length n, canonically ordered.

    Words are generated depth first, letter by letter in increasing order,
    so they come out in canonical order with no sort.  A letter is allowed
    only if the letters still missing below the running maximum fit into
    the positions left; every prefix generated therefore extends to a
    packed word, and each packed word comes out exactly once (the
    restricted-growth-string search of Knuth, TAOCP 4A, 7.2.1.5).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return list(map(Word._raw, _packed_letters(n)))


def enumerate_irreducible(n: int) -> list[Word]:
    """All irreducible packed words of length n, canonically ordered."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [Word._raw(w) for w in _packed_letters(n) if not _cuts(w)]


_irreducible_cache: list[int] = [0]


def count_irreducible(n: int) -> int:
    """Irreducible packed words of length n, by the integer recurrence.

    The free factorization gives 1 + D(x) = 1/(1 - I(x)) for the ordinary
    counting series, so comparing coefficients of D = I + I*D yields
    i_n = d_n - sum_{j<n} i_j*d_{n-j}, computed in plain integers.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    global _irreducible_cache
    cache = _irreducible_cache
    if n >= len(cache):
        # build the longer list first and publish it in one assignment, so a
        # concurrent caller only ever sees a complete list
        d = [count_packed_total(m) for m in range(n + 1)]
        cache = list(cache)
        for m in range(len(cache), n + 1):
            cache.append(d[m] - sum(cache[j] * d[m - j] for j in range(1, m)))
        _irreducible_cache = cache
    return cache[n]


def count_irreducible_compositions(n: int) -> int:
    """Irreducible count by literal inclusion-exclusion over compositions.

    Sums (-1)^(k+1) d_{j_1}...d_{j_k} over every composition (j_1..j_k) of
    n; exponential in n, kept as the independent cross-check of
    count_irreducible.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = [count_packed_total(m) for m in range(n + 1)]
    total = 0

    def descend(remaining: int, sign: int, prod: int) -> None:
        nonlocal total
        for j in range(1, remaining):
            descend(remaining - j, -sign, prod * d[j])
        total += sign * prod * d[remaining]

    descend(n, 1, 1)
    return total


def egf_check(max_n: int) -> list[Tuple[int, int, bool]]:
    """Expand e^x/(2-e^x) exactly and compare n!*[x^n] against the counts.

    Writing f = e^x/(2-e^x) = sum a_n x^n/n!, the identity f*(2-e^x) = e^x
    compared at n!*[x^n] on both sides reads 2a_n - sum_{k<=n} C(n,k)a_k = 1,
    that is a_0 = 1 and a_n = 1 + sum_{k<n} C(n,k)*a_k, computed in plain
    integers.  Returns one (n, a_n, matches) row per n <= max_n; every row
    must match count_packed_total(n).
    """
    if max_n < 0:
        raise ValueError(f"need max_n >= 0, got {max_n}")
    a: list[int] = []
    for n in range(max_n + 1):
        a.append(1 + sum(comb(n, k) * a[k] for k in range(n)))
    return [(n, v, v == count_packed_total(n)) for n, v in enumerate(a)]
