"""Selection/quotient coproduct, counit, antipode, and the Hopf-axiom checks.

The coproduct of a packed word sums, over every ordered two-block split
(I, J) of its positions, the packed subword on I tensored with the packed
quotient of the subword on J by the letters selected on I.  Together with
shifted concatenation this yields a graded connected Hopf algebra, so the
antipode is computed by the usual recursion over strictly smaller first
slots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .algebra import LinComb, _as_lincomb, product, shifted_concat
from .words import Word, _pack_letters, require_packed

__all__ = [
    "Tensor2",
    "coproduct",
    "counit",
    "reduced_coproduct",
    "antipode",
    "verify_coassociativity",
    "verify_bialgebra",
    "verify_antipode",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

Pair = Tuple[Word, Word]
Triple = Tuple[Word, Word, Word]


class Tensor2:
    """Formal sum of ordered word pairs with rational coefficients.

    Multiplication acts slotwise by shifted concatenation, extended
    bilinearly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[Pair, object], Iterable[Tuple[Pair, object]]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Pair, Fraction] = {}
        for pair, c in items:
            u, v = pair
            require_packed(u)
            require_packed(v)
            c = Fraction(c) + acc.get((u, v), _ZERO)
            if c:
                acc[(u, v)] = c
            else:
                acc.pop((u, v), None)
        self.terms = acc

    @classmethod
    def _raw(cls, terms: dict[Pair, Fraction]) -> "Tensor2":
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> "Tensor2":
        return cls._raw({})

    def coefficient(self, pair: Pair) -> Fraction:
        return self.terms.get(pair, _ZERO)

    def items(self) -> list[Tuple[Pair, Fraction]]:
        """Terms sorted canonically by (left word, right word)."""
        return sorted(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if not isinstance(other, Tensor2):
            return NotImplemented
        acc = dict(self.terms)
        for pair, c in other.terms.items():
            s = acc.get(pair, _ZERO) + c
            if s:
                acc[pair] = s
            else:
                acc.pop(pair, None)
        return Tensor2._raw(acc)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Tensor2":
        return Tensor2._raw({p: -c for p, c in self.terms.items()})

    def __rmul__(self, scalar: object) -> "Tensor2":
        c = Fraction(scalar)
        if not c:
            return Tensor2.zero()
        return Tensor2._raw({p: c * v for p, v in self.terms.items()})

    def __mul__(self, other: object) -> "Tensor2":
        if not isinstance(other, Tensor2):
            return self.__rmul__(other)
        acc: dict[Pair, Fraction] = {}
        for (u1, v1), c1 in self.terms.items():
            for (u2, v2), c2 in other.terms.items():
                key = (shifted_concat(u1, u2), shifted_concat(v1, v2))
                s = acc.get(key, _ZERO) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return Tensor2._raw(acc)

    def swap(self) -> "Tensor2":
        """Exchange the two slots of every term."""
        return Tensor2._raw({(v, u): c for (u, v), c in self.terms.items()})

    def text(self) -> str:
        """Canonically ordered rendering, e.g. "1*e (x) 1,1 + 2*1 (x) 0"."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{u.text()} (x) {v.text()}" for (u, v), c in self.items())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Tensor2({self.text()!r})"


def _coproduct_word(w: Word) -> dict[Pair, int]:
    # all 2^n ordered splits (I, J) of the position set, enumerated by a
    # binary counter; the right slot is quotiented by the selected letters,
    # then packed; multiplicities stay plain integers until they meet a
    # rational coefficient
    letters = w.letters
    n = len(letters)
    acc: dict[Pair, int] = {}
    for mask in range(1 << n):
        sel = []
        rest = []
        for p, letter in enumerate(letters):
            if mask >> p & 1:
                sel.append(letter)
            else:
                rest.append(letter)
        erase = set(sel)
        u = Word._raw(_pack_letters(tuple(sel)))
        v = Word._raw(_pack_letters(tuple(0 if i in erase else i for i in rest)))
        key = (u, v)
        acc[key] = acc.get(key, 0) + 1
    return acc


def coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Selection/quotient coproduct, extended linearly to formal sums."""
    lin = _as_lincomb(x)
    acc: dict[Pair, Fraction] = {}
    for w, c in lin.terms.items():
        for pair, mult in _coproduct_word(w).items():
            s = acc.get(pair, _ZERO) + c * mult
            if s:
                acc[pair] = s
            else:
                acc.pop(pair, None)
    return Tensor2._raw(acc)


def counit(x: Union[Word, LinComb]) -> Fraction:
    """Coefficient of the empty word."""
    return _as_lincomb(x).coefficient(Word())


def reduced_coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Coproduct minus the two trivial terms; zero on the unit.

    Every term of the result has both slots nonempty, so the kernel of this
    map in each grade is the space of primitive elements.
    """
    lin = _as_lincomb(x)
    empty = Word()
    acc: dict[Pair, Fraction] = {}
    for w, c in lin.terms.items():
        if not len(w):
            continue
        for pair, mult in _coproduct_word(w).items():
            if empty in pair:
                continue
            s = acc.get(pair, _ZERO) + c * mult
            if s:
                acc[pair] = s
            else:
                acc.pop(pair, None)
    return Tensor2._raw(acc)


def _antipode_word(w: Word, memo: dict[Word, LinComb]) -> LinComb:
    if not len(w):
        return LinComb.unit()
    cached = memo.get(w)
    if cached is not None:
        return cached
    # S(w) = -w - sum over splits with both slots nonempty of
    #        S(first slot) * second slot; the first slot is strictly shorter
    acc = LinComb.word(w)
    empty = Word()
    for (u, v), mult in _coproduct_word(w).items():
        if u == empty or v == empty:
            continue
        acc = acc + mult * product(_antipode_word(u, memo), LinComb.word(v))
    result = -acc
    memo[w] = result
    return result


def antipode(x: Union[Word, LinComb]) -> LinComb:
    """Antipode by the graded-connected recursion, extended linearly.

    Results are memoized per packed word within a single call, which tames
    the exponential recursion; the cache is never shared between calls.
    """
    lin = _as_lincomb(x)
    memo: dict[Word, LinComb] = {}
    out = LinComb.zero()
    for w, c in lin.terms.items():
        out = out + c * _antipode_word(w, memo)
    return out


def verify_coassociativity(w: Word) -> bool:
    """Exact comparison of the two refinements of the coproduct."""
    require_packed(w)
    delta = _coproduct_word(w)
    left: dict[Triple, int] = {}
    right: dict[Triple, int] = {}
    for (u, v), c in delta.items():
        for (a, b), c2 in _coproduct_word(u).items():
            key = (a, b, v)
            left[key] = left.get(key, 0) + c * c2
        for (a, b), c2 in _coproduct_word(v).items():
            key = (u, a, b)
            right[key] = right.get(key, 0) + c * c2
    return left == right


def verify_bialgebra(u: Word, v: Word) -> bool:
    """Check that the coproduct of a product is the slotwise product of coproducts."""
    require_packed(u)
    require_packed(v)
    left = _coproduct_word(shifted_concat(u, v))
    right: dict[Pair, int] = {}
    for (u1, v1), c1 in _coproduct_word(u).items():
        for (u2, v2), c2 in _coproduct_word(v).items():
            key = (shifted_concat(u1, u2), shifted_concat(v1, v2))
            right[key] = right.get(key, 0) + c1 * c2
    return left == right


def verify_antipode(w: Word) -> bool:
    """Both convolution identities for the antipode, checked exactly.

    Multiplying the antipode of one slot of the coproduct against the other
    slot must collapse everything to the counit times the unit.
    """
    require_packed(w)
    target = counit(w) * LinComb.unit()
    memo: dict[Word, LinComb] = {}
    left = LinComb.zero()
    right = LinComb.zero()
    for (u, v), c in _coproduct_word(w).items():
        left = left + c * product(_antipode_word(u, memo), LinComb.word(v))
        right = right + c * product(LinComb.word(u), _antipode_word(v, memo))
    return left == target and right == target
