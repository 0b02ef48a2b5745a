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
from typing import Iterator, Tuple, Union

from .algebra import FormalSum, LinComb, _as_lincomb, _collect, product, shifted_concat
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

Pair = Tuple[Word, Word]
Triple = Tuple[Word, Word, Word]


class Tensor2(FormalSum):
    """Formal sum of ordered word pairs, e.g. "1*e (x) 1,1 + 2*1 (x) 0".

    Multiplication acts slotwise by shifted concatenation, extended
    bilinearly.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(pair: Pair) -> Pair:
        u, v = pair
        return require_packed(u), require_packed(v)

    @staticmethod
    def _key_text(pair: Pair) -> str:
        u, v = pair
        return f"{u.text()} (x) {v.text()}"

    def __mul__(self, other: object) -> "Tensor2":
        if not isinstance(other, Tensor2):
            return self.__rmul__(other)
        return Tensor2._raw(
            _collect(
                ((shifted_concat(u1, u2), shifted_concat(v1, v2)), c1 * c2)
                for (u1, v1), c1 in self.terms.items()
                for (u2, v2), c2 in other.terms.items()
            )
        )

    def swap(self) -> "Tensor2":
        """Exchange the two slots of every term."""
        return Tensor2._raw({(v, u): c for (u, v), c in self.terms.items()})


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
    return Tensor2._raw(
        _collect((pair, c * mult) for w, c in lin.terms.items() for pair, mult in _coproduct_word(w).items())
    )


def counit(x: Union[Word, LinComb]) -> Union[int, Fraction]:
    """Coefficient of the empty word."""
    return _as_lincomb(x).coefficient(Word())


def reduced_coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Coproduct minus the two trivial terms; zero on the unit.

    Every term of the result has both slots nonempty, so the kernel of this
    map in each grade is the space of primitive elements.
    """
    return Tensor2._raw({(u, v): c for (u, v), c in coproduct(x).terms.items() if len(u) and len(v)})


def _antipode_word(w: Word, memo: dict[Word, LinComb]) -> LinComb:
    if not len(w):
        return LinComb.unit()
    cached = memo.get(w)
    if cached is not None:
        return cached
    result = LinComb._raw(_collect(_antipode_terms(w, memo)))
    memo[w] = result
    return result


def _antipode_terms(w: Word, memo: dict[Word, LinComb]) -> Iterator[Tuple[Word, int]]:
    # S(w) = -w - sum over splits with both slots nonempty of
    #        S(first slot) * second slot; the first slot is strictly shorter
    yield w, -1
    for (u, v), mult in _coproduct_word(w).items():
        if len(u) and len(v):
            yield from (-mult * product(_antipode_word(u, memo), LinComb.word(v))).terms.items()


def antipode(x: Union[Word, LinComb]) -> LinComb:
    """Antipode by the graded-connected recursion, extended linearly.

    Results are memoized per packed word within a single call, which tames
    the exponential recursion; the cache is never shared between calls.
    """
    lin = _as_lincomb(x)
    memo: dict[Word, LinComb] = {}
    return LinComb._raw(
        _collect((k, c * s) for w, c in lin.terms.items() for k, s in _antipode_word(w, memo).terms.items())
    )


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
    delta_v = _coproduct_word(v).items()
    for (u1, v1), c1 in _coproduct_word(u).items():
        for (u2, v2), c2 in delta_v:
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
    left = []
    right = []
    for (u, v), c in _coproduct_word(w).items():
        left += (c * product(_antipode_word(u, memo), LinComb.word(v))).terms.items()
        right += (c * product(LinComb.word(u), _antipode_word(v, memo))).terms.items()
    return LinComb._raw(_collect(left)) == target and LinComb._raw(_collect(right)) == target
