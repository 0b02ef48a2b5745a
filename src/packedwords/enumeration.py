"""Counting and generating packed words.

The count of packed words of length n and supremum k splits into the words
that avoid x0 and those that use it; both parts are ordered set partitions,
giving d(n,k) = S(n,k)k! + S(n,k+1)(k+1)! = S(n+1,k+1)k! in terms of
Stirling numbers of the second kind.  Totals per length follow the
exponential generating function e^x/(2-e^x), and the irreducible counts
come out of the free-monoid structure, either as an inclusion-exclusion
over compositions or by an integer recurrence.  Everything is exact: integer
counts are arbitrary precision and series coefficients are rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Iterator, Sequence, Tuple, Union

from .algebra import is_irreducible
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
    "RationalSeries",
    "egf_check",
]

_ZERO = Fraction(0)

# triangle rows built on demand; row n holds S(n, 0..n)
_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: n-set partitions into k blocks."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        m = len(rows)
        prev = rows[-1]
        row = [0] * (m + 1)
        row[m] = 1
        for j in range(1, m):
            row[j] = prev[j - 1] + j * prev[j]
        rows.append(row)
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


def _set_partitions(items: Tuple[int, ...], k: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
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


def enumerate_packed(n: int) -> list[Word]:
    """All packed words of length n, canonically ordered.

    Words are built directly: pick the x0 positions, partition the rest
    into k nonempty blocks, and order the blocks as the letters 1..k.  This
    produces each word exactly once, so the count is d_n by construction.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
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
    # all rows have length n, so sorting the letter tuples gives the
    # canonical order without a Python-level Word comparison per step; the
    # Words then replace the tuples in place, so no second list is held
    rows.sort()
    for i, letters in enumerate(rows):
        rows[i] = Word._raw(letters)
    return rows


def enumerate_irreducible(n: int) -> list[Word]:
    """All irreducible packed words of length n, canonically ordered."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [w for w in enumerate_packed(n) if is_irreducible(w)]


class RationalSeries:
    """Power series truncated at a fixed order with exact rational coefficients.

    All arithmetic (sum, product, reciprocal, derivative) is exact at the
    truncation order; binary operations truncate to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[object], order: Union[int, None] = None) -> None:
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"need order >= 0, got {order}")
            cs = cs[: order + 1] + [_ZERO] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs = cs

    @classmethod
    def constant(cls, value: object, order: int) -> "RationalSeries":
        return cls([Fraction(value)], order=order)

    @classmethod
    def exponential(cls, order: int) -> "RationalSeries":
        """Truncation of e^x."""
        return cls([Fraction(1, factorial(m)) for m in range(order + 1)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: object) -> "RationalSeries":
        other = self._coerce(other)
        order = min(self.order, other.order)
        return RationalSeries([self.coeffs[m] + other.coeffs[m] for m in range(order + 1)])

    __radd__ = __add__

    def __sub__(self, other: object) -> "RationalSeries":
        other = self._coerce(other)
        order = min(self.order, other.order)
        return RationalSeries([self.coeffs[m] - other.coeffs[m] for m in range(order + 1)])

    def __rsub__(self, other: object) -> "RationalSeries":
        return self._coerce(other) - self

    def __neg__(self) -> "RationalSeries":
        return RationalSeries([-c for c in self.coeffs])

    def __mul__(self, other: object) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            c = Fraction(other)
            return RationalSeries([c * v for v in self.coeffs])
        order = min(self.order, other.order)
        out = [_ZERO] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; the constant coefficient must be nonzero."""
        a0 = self.coeffs[0]
        if not a0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        out = [1 / a0]
        for m in range(1, self.order + 1):
            s = sum((self.coeffs[j] * out[m - j] for j in range(1, m + 1)), _ZERO)
            out.append(-s / a0)
        return RationalSeries(out)

    def derivative(self) -> "RationalSeries":
        """Termwise derivative; exact one order below the truncation."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series truncated at order 0")
        return RationalSeries([m * self.coeffs[m] for m in range(1, self.order + 1)])

    def _coerce(self, other: object) -> "RationalSeries":
        if isinstance(other, RationalSeries):
            return other
        return RationalSeries.constant(other, self.order)

    def __repr__(self) -> str:
        return f"RationalSeries({self.coeffs!r})"


_irreducible_cache: list[int] = [0]


def count_irreducible(n: int) -> int:
    """Irreducible packed words of length n, by the integer recurrence.

    The free factorization gives 1 + D(x) = 1/(1 - I(x)) for the ordinary
    counting series, so comparing coefficients of D = I + I*D yields
    i_n = d_n - sum_{j<n} i_j*d_{n-j}, computed in plain integers.
    """
    if n < 1:
        raise ValueError("the unit word is neither irreducible nor reducible")
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
        raise ValueError("the unit word is neither irreducible nor reducible")
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

    Returns one (n, n!*coefficient, matches) row per n <= max_n; with exact
    rational arithmetic every row must match count_packed_total(n).
    """
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {max_n}")
    e = RationalSeries.exponential(max_n)
    f = (2 - e).reciprocal() * e
    rows = []
    for n in range(max_n + 1):
        val = f.coefficient(n) * factorial(n)
        ok = val.denominator == 1 and int(val) == count_packed_total(n)
        rows.append((n, int(val) if val.denominator == 1 else val, ok))
    return rows
