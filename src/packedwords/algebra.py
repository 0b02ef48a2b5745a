"""The graded algebra of packed words under shifted concatenation.

``shifted_concat`` appends the right factor after lifting its nonzero
letters above the left factor's supremum; packed words are closed under it
and form a free monoid, so every nonempty packed word factors uniquely into
irreducible ones.  ``FormalSum`` holds the arithmetic of finite formal sums
with exact coefficients: integers, since the structure constants are
integers, and ``Fraction``s only where a non-integer appears.
``LinComb`` is the formal sum of packed words and extends the product
bilinearly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Hashable, Iterable, Mapping, Tuple, Union

from .words import Word, require_packed

__all__ = [
    "Scalar",
    "FormalSum",
    "LinComb",
    "shifted_concat",
    "product",
    "admissible_cuts",
    "is_irreducible",
    "factor_irreducible",
]

# Exact rational scalars; arbitrary precision, always in lowest terms.
# Coefficients that are plain ints stay ints.
Scalar = Fraction


def _scalar(c: object) -> Union[int, Fraction]:
    # ints stay ints; everything else (Fraction, float, str, bool) is made exact
    return c if type(c) is int else Fraction(c)


def _collect(terms: Iterable[Tuple[Hashable, object]]) -> dict:
    """Sum the coefficients per key, then drop the keys whose sum is zero."""
    acc: dict = {}
    get = acc.get
    for k, c in terms:
        acc[k] = get(k, 0) + c
    return {k: c for k, c in acc.items() if c}


def _lift(letters: Tuple[int, ...], t: int) -> Tuple[int, ...]:
    # the letters of a right factor: nonzero ones raised by t, x0 fixed
    return tuple([i + t if i else 0 for i in letters]) if t else letters


def shifted_concat(u: Word, v: Word) -> Word:
    """u followed by v with v's nonzero letters raised by sup(u).

    Defined for arbitrary words; packed inputs give a packed result, with
    length and supremum both adding up.
    """
    return Word._raw(u.letters + _lift(v.letters, u.sup))


class FormalSum:
    """Finite formal sum of keys with exact coefficients.

    The empty sum is zero.  Instances are treated as immutable: every
    operation returns a fresh value of the same concrete type and no stored
    coefficient is ever zero.  Sums of different concrete types neither
    compare equal nor add.  A subclass supplies ``_check_key``, which
    validates and normalises one key, and ``_key_text``, which renders one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Hashable, object], Iterable[Tuple[Hashable, object]]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        check = self._check_key
        self.terms = _collect((check(k), _scalar(c)) for k, c in items)

    @classmethod
    def _raw(cls, terms: dict):
        # internal: terms already normalized (checked keys, no zeros)
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    def coefficient(self, key: Hashable) -> Union[int, Fraction]:
        return self.terms.get(key, 0)

    def items(self) -> list:
        """Terms in canonical key order."""
        return sorted(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "FormalSum"):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(_collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other: "FormalSum"):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar: object):
        c = _scalar(scalar)
        if not c:
            return self.zero()
        return self._raw({k: c * v for k, v in self.terms.items()})

    def text(self) -> str:
        """Canonically ordered rendering of "coefficient*key" terms."""
        if not self.terms:
            return "0"
        key_text = self._key_text
        return " + ".join(f"{c}*{key_text(k)}" for k, c in self.items())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"


class LinComb(FormalSum):
    """Finite formal sum of packed words, e.g. "2*1,0 + -1*1,1".

    The empty word with coefficient 1 is the unit of the algebra.
    """

    __slots__ = ()

    _check_key = staticmethod(require_packed)

    @staticmethod
    def _key_text(w: Word) -> str:
        return w.text()

    @classmethod
    def unit(cls) -> "LinComb":
        return cls._raw({Word(): 1})

    @classmethod
    def word(cls, w: Word, coeff: object = 1) -> "LinComb":
        require_packed(w)
        c = _scalar(coeff)
        return cls._raw({w: c} if c else {})

    def __mul__(self, other: object) -> "LinComb":
        if isinstance(other, (LinComb, Word)):
            return product(self, other)
        return self.__rmul__(other)


def _as_lincomb(x: Union[LinComb, Word]) -> LinComb:
    if isinstance(x, LinComb):
        return x
    if isinstance(x, Word):
        return LinComb.word(x)
    raise TypeError(f"expected Word or LinComb, got {type(x).__name__}")


def product(a: Union[LinComb, Word], b: Union[LinComb, Word]) -> LinComb:
    """Bilinear extension of shifted concatenation."""
    a = _as_lincomb(a)
    b = _as_lincomb(b)
    return LinComb._raw(
        _collect((shifted_concat(u, v), cu * cv) for u, cu in a.terms.items() for v, cv in b.terms.items())
    )


def _suffix_min_nonzero(letters: Tuple[int, ...]) -> list:
    # entry i: least nonzero index in letters[i:], or None if there is none
    n = len(letters)
    mins = [None] * (n + 1)
    running = None
    for i in range(n - 1, -1, -1):
        li = letters[i]
        if li and (running is None or li < running):
            running = li
        mins[i] = running
    return mins


def _cut_positions(w: Word) -> Iterable[int]:
    # yields cut positions in increasing order; caller guarantees w packed, nonempty
    letters = w.letters
    n = len(letters)
    mins = _suffix_min_nonzero(letters)
    prefix_sup = 0
    for i in range(1, n):
        prefix_sup = max(prefix_sup, letters[i - 1])
        m = mins[i]
        if m is None or prefix_sup == m - 1:
            yield i


def admissible_cuts(w: Word) -> frozenset[int]:
    """Positions i in 1..|w|-1 where w splits as (first i letters) * rest.

    A cut is admissible when the suffix has no nonzero letters, or the
    suffix's least nonzero index exceeds the prefix supremum by exactly one.
    """
    require_packed(w)
    if not len(w):
        raise ValueError("the empty word has no cut positions")
    return frozenset(_cut_positions(w))


def is_irreducible(w: Word) -> bool:
    """True iff the nonempty packed word admits no split into two factors."""
    require_packed(w)
    if not len(w):
        raise ValueError("the empty word is neither irreducible nor reducible")
    return next(iter(_cut_positions(w)), None) is None


def _split_at(w: Word, i: int) -> Tuple[Word, Word]:
    # split a packed word at an admissible cut; the suffix is shifted back down
    head = Word._raw(w.letters[:i])
    s = head.sup
    tail = Word._raw(tuple(j - s if j else 0 for j in w.letters[i:]))
    return head, tail


def factor_irreducible(w: Word) -> list[Word]:
    """Unique factorization of a nonempty packed word into irreducibles.

    Splits greedily at the leftmost admissible cut; by uniqueness of the
    factorization any cut order gives the same result.
    """
    require_packed(w)
    if not len(w):
        raise ValueError("the empty word has no irreducible factorization")
    factors = []
    cur = w
    while True:
        i = next(iter(_cut_positions(cur)), None)
        if i is None:
            factors.append(cur)
            return factors
        head, cur = _split_at(cur, i)
        factors.append(head)


def _factor_rightmost(w: Word) -> list[Word]:
    # same factorization computed by peeling irreducible factors off the right;
    # used as an internal cross-check of uniqueness
    require_packed(w)
    if not len(w):
        raise ValueError("the empty word has no irreducible factorization")
    factors = []
    cur = w
    while True:
        i = None
        for j in _cut_positions(cur):
            i = j
        if i is None:
            factors.append(cur)
            factors.reverse()
            return factors
        head, tail = _split_at(cur, i)
        factors.append(tail)
        cur = head
