"""The graded algebra of packed words under shifted concatenation.

``shifted_concat`` appends the right factor after lifting its nonzero
letters above the left factor's supremum; packed words are closed under it
and form a free monoid, so every nonempty packed word factors uniquely into
irreducible ones.  The admissible cuts of a word are found in one pass over
its letters, and the factorization splits at all of them at once.
``FormalSum`` holds the arithmetic of finite formal sums with exact
coefficients: integers, since the structure constants are integers, and
``Fraction``s only where a non-integer appears.  ``LinComb`` is the formal
sum of packed words and extends the product bilinearly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Hashable, Iterable, Mapping, Tuple, Union

from .words import Word, _canonical_key, _lift, require_packed

__all__ = [
    "FormalSum",
    "LinComb",
    "shifted_concat",
    "product",
    "admissible_cuts",
    "is_irreducible",
    "factor_irreducible",
]

def _scalar(c: object) -> Union[int, Fraction]:
    # ints stay ints; everything else (Fraction, float, str, bool) is made
    # exact, and an int if it is integral
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _collect(terms: Iterable[Tuple[Hashable, object]]) -> dict:
    """Sum the coefficients per key, then drop the keys whose sum is zero.

    An integral sum is stored as an ``int``.
    """
    acc: dict = {}
    get = acc.get
    for k, c in terms:
        acc[k] = get(k, 0) + c
    return {k: c if type(c) is int else _scalar(c) for k, c in acc.items() if c}


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
    validates and normalises one key, ``_key_text``, which renders one, and
    ``_sort_key``, which maps one to plain tuples in canonical order.
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
        terms = self.terms
        return [(k, terms[k]) for k in sorted(terms, key=self._sort_key)]

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
        return self._raw(_collect((k, c * v) for k, v in self.terms.items()))

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

    @staticmethod
    def _sort_key(w: Word) -> Tuple[int, Tuple[int, ...]]:
        return _canonical_key(w.letters)

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


def _cuts(letters: Tuple[int, ...]) -> list[int]:
    # admissible cuts of a nonempty packed word's letters, in increasing
    # order: i is a cut iff every letter before it is below every nonzero
    # letter after it (for a packed word that makes the prefix packed and the
    # suffix's least nonzero letter one above the prefix supremum)
    n = len(letters)
    low = [0] * n  # low[i]: least nonzero letter in letters[i:], n + 1 if none
    m = n + 1
    for i in range(n - 1, 0, -1):
        x = letters[i]
        if x and x < m:
            m = x
        low[i] = m
    cuts = []
    top = 0
    for i in range(1, n):
        x = letters[i - 1]
        if x > top:
            top = x
        if top < low[i]:
            cuts.append(i)
    return cuts


def _nonempty_packed(w: Word, what: str) -> Tuple[int, ...]:
    require_packed(w)
    if not w.letters:
        raise ValueError(f"the empty word {what}")
    return w.letters


def admissible_cuts(w: Word) -> frozenset[int]:
    """Positions i in 1..|w|-1 where w splits as (first i letters) * rest.

    A cut is admissible when every letter before it is below every nonzero
    letter after it; all cuts are found in one pass over the word.
    """
    return frozenset(_cuts(_nonempty_packed(w, "has no cut positions")))


def is_irreducible(w: Word) -> bool:
    """True iff the nonempty packed word admits no split into two factors."""
    return not _cuts(_nonempty_packed(w, "is neither irreducible nor reducible"))


def _factors(letters: Tuple[int, ...]) -> list[Tuple[int, ...]]:
    # the irreducible factors of a nonempty packed word's letters: a cut of a
    # tail is a cut of the whole word, so the word is split at all of its
    # cuts at once, and each piece is shifted down by the supremum of the
    # letters before it; most words have no cut and are their own factor
    cuts = _cuts(letters)
    if not cuts:
        return [letters]
    factors = []
    start = top = 0
    for i in cuts + [len(letters)]:
        piece = letters[start:i]
        factors.append(_lift(piece, -top))
        top = max(top, *piece)
        start = i
    return factors


def factor_irreducible(w: Word) -> list[Word]:
    """Unique factorization of a nonempty packed word into irreducibles."""
    return list(map(Word._raw, _factors(_nonempty_packed(w, "has no irreducible factorization"))))
