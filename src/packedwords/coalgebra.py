"""Selection/quotient coproduct, counit, antipode, and the Hopf-axiom checks.

The coproduct of a packed word sums, over every ordered two-block split
(I, J) of its positions, the packed subword on I tensored with the packed
quotient of the subword on J by the letters selected on I.  Together with
shifted concatenation this yields a graded connected Hopf algebra, so the
antipode is computed by the usual recursion over strictly smaller first
slots.

Everything runs on one private integer kernel: words are plain letter
tuples and formal sums are dicts from tuples (or pairs and triples of
tuples) to ``int``s.  ``Word``, ``LinComb`` and ``Tensor2`` are built only
where a public function returns.  The kernel's memos (coproducts in the
coassociativity check, antipodes in ``antipode`` and ``verify_antipode``)
last one call and are never shared, so every function here is safe to
call from several threads.  A memo that outlived its call would also hold
its terms for the life of the process.  Measured with ``tracemalloc``
beyond the packing cache: the coproducts of all 1 267 words of length
<= 5 are 26 457 terms in 2.5 MB, and the antipodes met in one
``verify antipode --max-len 5`` sweep 25 449 terms in 2.9 MB, against a
peak RSS of about 17 MB for a whole law-checking run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from itertools import product as cartesian_product
from typing import Tuple, Union

from .algebra import FormalSum, LinComb, _as_lincomb, _collect, _lift, shifted_concat
from .algebra import product  # noqa: F401  kept importable here: perfbench/tracer.py wraps coalgebra.product
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
Letters = Tuple[int, ...]
Split = Tuple[Letters, Letters]


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


def _delta(letters: Letters) -> dict[Split, int]:
    # the 2^n ordered splits (I, J) of the positions, streamed: the two
    # products run in step, so rbits is always the complement of bits; the
    # remaining letters are quotiented by the selected ones, and both slots
    # are packed
    n = len(letters)
    acc: dict[Split, int] = {}
    get = acc.get
    for bits, rbits in zip(cartesian_product((0, 1), repeat=n), cartesian_product((1, 0), repeat=n)):
        sel = tuple(compress(letters, bits))
        erase = set(sel)
        rest = [0 if i in erase else i for i in compress(letters, rbits)]
        key = (_pack_letters(sel), _pack_letters(tuple(rest)))
        acc[key] = get(key, 0) + 1
    return acc


def coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Selection/quotient coproduct, extended linearly to formal sums."""
    lin = _as_lincomb(x)
    raw = Word._raw
    return Tensor2._raw(
        _collect(((raw(u), raw(v)), c * m) for w, c in lin.terms.items() for (u, v), m in _delta(w.letters).items())
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


def _antipode(letters: Letters, memo: dict[Letters, dict[Letters, int]]) -> dict[Letters, int]:
    # S(w) = -w - sum over splits with both slots nonempty of S(u) * v; the
    # first slot is strictly shorter.  Every term of S(u) has the supremum
    # of u (the coproduct splits the supremum and the product adds it up),
    # so v is lifted once per split.
    if not letters:
        return {(): 1}
    result = memo.get(letters)
    if result is not None:
        return result
    acc = {letters: -1}
    get = acc.get
    for (u, v), m in _delta(letters).items():
        if u and v:
            tail = _lift(v, max(u))
            for s, c in _antipode(u, memo).items():
                k = s + tail
                acc[k] = get(k, 0) - m * c
    result = memo[letters] = {k: c for k, c in acc.items() if c}
    return result


def antipode(x: Union[Word, LinComb]) -> LinComb:
    """Antipode by the graded-connected recursion, extended linearly.

    ``S(w) = -w - sum S(u) * v`` over the coproduct's terms ``u (x) v`` with
    both slots nonempty.  Coefficients are integers.  The antipode of each
    packed word met in the recursion is computed once per call and kept
    only until the call returns; nothing is cached between calls.
    """
    lin = _as_lincomb(x)
    memo: dict[Letters, dict[Letters, int]] = {}
    terms = _collect((s, c * t) for w, c in lin.terms.items() for s, t in _antipode(w.letters, memo).items())
    raw = Word._raw
    return LinComb._raw({raw(s): c for s, c in terms.items()})


def verify_coassociativity(w: Word) -> bool:
    """Exact comparison of the two refinements of the coproduct."""
    require_packed(w)
    deltas: dict[Letters, dict[Split, int]] = {}

    def delta(x: Letters) -> dict[Split, int]:
        d = deltas.get(x)
        if d is None:
            d = deltas[x] = _delta(x)
        return d

    left: dict = {}
    right: dict = {}
    for (u, v), c in delta(w.letters).items():
        for (a, b), c2 in delta(u).items():
            key = (a, b, v)
            left[key] = left.get(key, 0) + c * c2
        for (a, b), c2 in delta(v).items():
            key = (u, a, b)
            right[key] = right.get(key, 0) + c * c2
    return left == right


def verify_bialgebra(u: Word, v: Word) -> bool:
    """Check that the coproduct of a product is the slotwise product of coproducts."""
    require_packed(u)
    require_packed(v)
    a, b = u.letters, v.letters
    left = _delta(a + _lift(b, max(a, default=0)))
    right: dict[Split, int] = {}
    delta_b = _delta(b).items()
    for (a1, a2), c1 in _delta(a).items():
        t1 = max(a1, default=0)
        t2 = max(a2, default=0)
        for (b1, b2), c2 in delta_b:
            key = (a1 + _lift(b1, t1), a2 + _lift(b2, t2))
            right[key] = right.get(key, 0) + c1 * c2
    return left == right


def verify_antipode(w: Word) -> bool:
    """Both convolution identities for the antipode, checked exactly.

    Multiplying the antipode of one slot of the coproduct against the other
    slot must collapse everything to the counit times the unit.
    """
    require_packed(w)
    memo: dict[Letters, dict[Letters, int]] = {}
    delta = _delta(w.letters).items()
    left = _collect(
        (s + _lift(v, max(s, default=0)), c * d) for (u, v), c in delta for s, d in _antipode(u, memo).items()
    )
    right = _collect(
        (u + _lift(s, max(u, default=0)), c * d) for (u, v), c in delta for s, d in _antipode(v, memo).items()
    )
    target = {(): 1} if not w.letters else {}
    return left == target and right == target
