"""Selection/quotient coproduct, counit, antipode, and the Hopf-axiom checks.

The coproduct of a packed word sums, over every ordered two-block split
(I, J) of its positions, the packed subword on I tensored with the packed
quotient of the subword on J by the letters selected on I.  Together with
shifted concatenation this yields a graded connected Hopf algebra.  The
algebra is free on its irreducible words and an antipode reverses
products, so a reducible word f1 * ... * fk (``algebra._factors``) has
antipode S(fk) * ... * S(f1).  Every product term is distinct, so nothing
cancels and the last product makes exactly the terms of the result.  Only
irreducible words take the usual recursion over strictly smaller first
slots, which reaches reducible subwords through the same memo.

The product adds up the lengths and the suprema of its factors, and the
two slots of each term of a coproduct add up to the length and the
supremum of the word, so every term of S(w) has the length and the
supremum of w.  A sum whose terms all share one length and one supremum
is homogeneous: S(w), and so every product of antipodes.  A right
factor x is lifted by the left factor's supremum and shifted past its
length (``words._after``), so x goes after every term of a homogeneous
sum by one amount, which any word of that length and supremum fixes
(``_placed``): the recursion places v after S(u) by u, a reducible
word's product places the S of each factor after any one term of the
product so far, and ``verify_antipode`` places S(v) after u.

Everything runs on one private integer kernel.  Words are coded as
single ``int``s (the format is stated in ``words``: one byte per letter,
concatenation by a shift and an or, a lift by one addition), a split is
a pair of codes, a coassociativity key a triple, and formal sums are
dicts from these to ``int``s.  Codes are decoded to letter tuples, and
``Word``, ``LinComb`` and ``Tensor2`` built, only where a public function
returns.  ``primitives`` reads the same kernel (``_delta``) for its
matrix and its re-check, and decodes only the row labels it must sort.
A letter above 254 does not fit a byte, so every public call here
refuses a word of larger supremum, for ``verify_bialgebra`` the product
u * v, with ``ResourceLimitError`` before any work; the CLI's 12-letter
cap is far below the 255 letters such a packed word needs.

The kernel's memos are these.  One ``_Memo`` per call, or per sweep,
maps codes to coproducts, computing each on its first lookup, and holds
the antipodes by code (``.antipodes``) and a ``words._Packed`` packing
memo (``.packed``) with one entry per distinct subword code and per
distinct (subword, erased letters) pair it meets, so at most 2^(n+1)
entries for a word of n letters.  ``verify_coassociativity`` and
``verify_bialgebra`` keep coproducts in it, ``antipode`` and
``verify_antipode`` antipodes.  The antipode recursion reads a word's
coproduct from it only where a caller put it there (``verify_antipode``,
for the word it checks) and keeps none of those it computes.
``coproduct`` uses a packing memo alone, as ``primitives`` does for each
matrix.  All of these last one call, with one exception: while a CLI
``verify`` sweep runs (``_shared_memos``, which is thread-local), its
verifier calls share one ``_Memo``.  A ``verify_coassociativity`` or
``verify_antipode`` call drops the coproduct and the antipode of the
word it checks when it returns, so a sweep that has checked every word
up to length n holds the coproducts or antipodes of the words up to
length n - 1 only, and the packings of the subwords it has met.  A
``verify_bialgebra`` call drops nothing: the sweep meets each factor
many times and never keeps the coproduct of a product of two nonempty
words, so after its pairs of words up to length n it holds the
coproducts of those words, as a coassociativity sweep to length n + 1
does.  Measured with ``tracemalloc`` as the memory freed by clearing
each map at the sweep's end: the
coproducts of the 185 words of length <= 4, which ``verify coassoc
--max-len 5`` ends with, are 1 923 terms in 0.21 MB, and the antipodes
that ``verify antipode --max-len 5`` ends with 1 183 terms in 0.12 MB,
beside a packing memo of 2 439 entries in 0.16-0.22 MB; at ``--max-len
6`` (the 1 267 words of length <= 5) they are 26 457 terms in 2.7 MB and
25 449 terms in 2.0 MB, beside 21 711 packings in 1.6-2.0 MB.  The
supremum and the nonzero-letter mask of a code are each kept in an
``lru_cache`` of 2^16 entries (``words._code_sup``,
``words._nonzero_bits``).  One coproduct is built from tables over the
subsets of its word's positions, 2^n codes and 2^n alphabet masks: 4 096
of each at the CLI cap of 12 letters.  One length-12 ``_delta`` call
with a fresh packing memo peaked at 0.9-2.0 MB over seven words (the
identity permutation and six seeded words).  A sweep's memo belongs to
one thread, and the ``lru_cache``s are safe to share, so every function
here is safe to call from several threads; ``antipode`` and
``coproduct`` never hold terms beyond their call.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress
from operator import and_
from typing import Tuple, Union

from .algebra import FormalSum, LinComb, _as_lincomb, _collect, _factors
from .algebra import product  # noqa: F401  kept importable here: perfbench/tracer.py wraps coalgebra.product
from .words import (
    Word,
    _after,
    _canonical_key,
    _code_shift,
    _code_sup,
    _decode,
    _encode,
    _lift_codes,
    _Packed,
    _require_codable,
    _subword_codes,
    require_packed,
)

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
Split = Tuple[int, int]


class Tensor2(FormalSum):
    """Formal sum of ordered word pairs, e.g. "1*e (x) 1,1 + 2*1 (x) 0"."""

    __slots__ = ()

    @staticmethod
    def _check_key(pair: Pair) -> Pair:
        u, v = pair
        return require_packed(u), require_packed(v)

    @staticmethod
    def _key_text(pair: Pair) -> str:
        u, v = pair
        return f"{u.text()} (x) {v.text()}"

    @staticmethod
    def _sort_key(pair: Pair) -> Tuple[Tuple[int, Letters], Tuple[int, Letters]]:
        return _canonical_key(pair[0].letters), _canonical_key(pair[1].letters)


def _delta(code: int, packed: _Packed) -> dict[Split, int]:
    # the 2^n ordered splits (I, J) of the positions of the word coded by
    # code, from the subset tables of words._subword_codes, in which the
    # complement of a subset is read from the other end.  Both slots are
    # packed through the memo packed; only letters in both alphabets are
    # quotiented out, so a split with nothing in common packs the
    # complement's subword as it is
    sel, alph = _subword_codes(code)
    firsts = list(map(packed.__getitem__, sel))
    seconds = firsts[::-1]
    last = len(sel) - 1
    common = list(map(and_, alph, reversed(alph)))
    for m in compress(range(last + 1), common):
        seconds[m] = packed[sel[last - m], common[m]]
    return dict(Counter(zip(firsts, seconds)))


def _codes(lin: LinComb) -> list[Tuple[int, object]]:
    # (code, coefficient) of each term, refused before any work if a word
    # does not fit the code
    terms = lin.terms
    for w in terms:
        _require_codable(w.sup)
    return [(_encode(w.letters), c) for w, c in terms.items()]


def coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Selection/quotient coproduct, extended linearly to formal sums."""
    packed = _Packed()
    terms = _collect((split, c * m) for w, c in _codes(_as_lincomb(x)) for split, m in _delta(w, packed).items())
    # the Word of each code, decoded once
    words = {c: Word._raw(_decode(c)) for split in terms for c in split}
    return Tensor2._raw({(words[u], words[v]): c for (u, v), c in terms.items()})


def counit(x: Union[Word, LinComb]) -> Union[int, Fraction]:
    """Coefficient of the empty word."""
    return _as_lincomb(x).coefficient(Word())


def reduced_coproduct(x: Union[Word, LinComb]) -> Tensor2:
    """Coproduct minus the two trivial terms; zero on the unit.

    Every term of the result has both slots nonempty, so the kernel of this
    map in each grade is the space of primitive elements.
    """
    return Tensor2._raw({(u, v): c for (u, v), c in coproduct(x).terms.items() if len(u) and len(v)})


class _Memo(dict):
    # coproducts by code, each computed on its first lookup (_delta is read
    # then), beside the antipodes by code (.antipodes) and the packing memo
    # that they and their caller share (.packed)
    def __init__(self) -> None:
        super().__init__()
        self.antipodes: dict[int, dict[int, int]] = {}
        self.packed = _Packed()

    def __missing__(self, x: int) -> dict[Split, int]:
        d = self[x] = _delta(x, self.packed)
        return d


def _placed(terms: dict[int, int], u: int) -> list[Tuple[int, int]]:
    # each term x of a sum beside its coefficient, x as it stands in u * x:
    # exact for every left factor with the length and the supremum of u
    shift = _code_shift(u)
    return [(x << shift, c) for x, c in zip(_lift_codes(terms, _code_sup(u)), terms.values())]


def _recursion(code: int, memo: _Memo) -> dict[int, int]:
    # R(w) = -w - sum of m * S(u) * v over the terms m * u (x) v of Δ(w)
    # with both slots nonempty, u strictly shorter than w.  Δ(w) is read
    # from memo if a caller put it there, and is not kept otherwise
    acc = {code: -1}
    get = acc.get
    for (u, v), m in (memo.get(code) or _delta(code, memo.packed)).items():
        if u and v:
            tail = _after(u, v)
            for s, c in _antipode(u, memo).items():
                k = s | tail
                acc[k] = get(k, 0) - m * c
    return {k: c for k, c in acc.items() if c}


def _antipode(code: int, memo: _Memo) -> dict[int, int]:
    # S(w) of the module docstring, on codes, kept in memo.antipodes: R(w)
    # for an irreducible w
    if not code:
        return {0: 1}
    result = memo.antipodes.get(code)
    if result is not None:
        return result
    factors = _factors(_decode(code))
    if len(factors) > 1:
        # reducible: the product so far is multiplied by the S of each
        # factor (algebra._factors), last factor first; any one term of that
        # homogeneous product places the next S
        result = {0: 1}
        for f in reversed(factors):
            sf = _placed(_antipode(_encode(f), memo), next(iter(result)))
            result = {s | x: c * d for s, c in result.items() for x, d in sf}
    else:
        result = _recursion(code, memo)
    memo.antipodes[code] = result
    return result


def antipode(x: Union[Word, LinComb]) -> LinComb:
    """Antipode, extended linearly.

    A reducible word ``f1 * ... * fk`` (``factor_irreducible``) gets
    ``S(fk) * ... * S(f1)``, whose terms are all distinct, so the last
    product makes exactly the terms of the result.  An irreducible word
    gets the graded-connected recursion ``S(w) = -w - sum S(u) * v`` over
    the coproduct's terms ``u (x) v`` with both slots nonempty.
    Coefficients are integers.  The antipode of each packed word met in the
    recursion is computed once per call and kept only until the call
    returns; nothing is cached between calls.
    """
    memo = _Memo()
    terms = _collect((s, c * t) for w, c in _codes(_as_lincomb(x)) for s, t in _antipode(w, memo).items())
    raw = Word._raw
    return LinComb._raw({raw(_decode(s)): c for s, c in terms.items()})


# the memo of the verify sweep open on this thread, if any
_SWEEP = threading.local()


@contextmanager
def _shared_memos():
    """Share coproducts and antipodes across the verifier calls made inside, on this thread.

    A coassociativity or antipode check drops those of the word it checks
    when it returns; a bialgebra check drops none.
    """
    _SWEEP.memos = _Memo()
    try:
        yield
    finally:
        _SWEEP.memos = None


@contextmanager
def _memos(*own: int):
    # the memo of one verifier call: a fresh one, or inside _shared_memos
    # the sweep's, from which the coproducts and antipodes of the words in
    # own go when the call ends
    shared = getattr(_SWEEP, "memos", None)
    if shared is None:
        yield _Memo()
        return
    try:
        yield shared
    finally:
        for x in own:
            shared.pop(x, None)
            shared.antipodes.pop(x, None)


def _code_of(w: Word) -> int:
    # the code of a packed word, refused before any work if it does not fit
    require_packed(w)
    _require_codable(w.sup)
    return _encode(w.letters)


def verify_coassociativity(w: Word) -> bool:
    """Exact comparison of the two refinements of the coproduct."""
    code = _code_of(w)
    left: dict = {}
    right: dict = {}
    lget = left.get
    rget = right.get
    with _memos(code) as deltas:
        for (u, v), c in deltas[code].items():
            for (a, b), c2 in deltas[u].items():
                key = (a, b, v)
                left[key] = lget(key, 0) + c * c2
            for (a, b), c2 in deltas[v].items():
                key = (u, a, b)
                right[key] = rget(key, 0) + c * c2
    return left == right


def verify_bialgebra(u: Word, v: Word) -> bool:
    """Check that the coproduct of a product is the slotwise product of coproducts."""
    require_packed(u)
    require_packed(v)
    top = u.sup
    _require_codable(top + v.sup)
    a, b = _encode(u.letters), _encode(v.letters)
    uv = a | _after(a, b)
    right: dict[Split, int] = {}
    get = right.get
    with _memos() as deltas:
        # when one factor is empty the other is the product, and its one Δ
        # serves both sides
        left = _delta(uv, deltas.packed) if a and b else deltas[uv]
        # the slots of Δ(b) are lifted once for each supremum t <= sup(a)
        # that a slot of Δ(a) can have: firsts[t] and seconds[t] list them
        # lifted by t, in the order of coeffs, and serve every term of Δ(a),
        # whose slots differ in length; _placed per term would lift again
        terms_b = deltas[b]
        coeffs = list(terms_b.values())
        b1s = [b1 for b1, _ in terms_b]
        b2s = [b2 for _, b2 in terms_b]
        firsts = [_lift_codes(b1s, t) for t in range(top + 1)]
        seconds = [_lift_codes(b2s, t) for t in range(top + 1)]
        shift = _code_shift(a)
        for (a1, a2), c1 in deltas[a].items():
            t = _code_sup(a1)
            s1 = _code_shift(a1)
            s2 = shift - s1
            for x, y, c2 in zip(firsts[t], seconds[top - t], coeffs):
                key = (a1 | x << s1, a2 | y << s2)
                right[key] = get(key, 0) + c1 * c2
    return left == right


def verify_antipode(w: Word) -> bool:
    """Both convolution identities for the antipode, checked exactly.

    Multiplying the antipode of one slot of the coproduct against the other
    slot must collapse everything to the counit times the unit.  The right
    sum, of ``u * S(v)`` over the terms ``u (x) v`` of Δ(w), is added up
    here.  The left sum, of ``S(u) * v``, is not: it is the sum S is built
    from.  Let ``E(w)`` be its part over the terms with an empty slot and
    ``R(w) = -w - sum S(u) * v`` over the others (``_recursion``), so that
    the left sum is ``E(w) - w - R(w)``.  For a nonempty w the terms with
    an empty slot must be exactly ``w (x) e`` and ``e (x) w``, once each;
    then ``E(w) = S(w) + w`` and the left sum is ``S(w) - R(w)``.  That is
    zero by construction for an irreducible w, whose S is R(w); a reducible
    w takes S from its factors, so ``S(w) = R(w)`` is checked.  The empty
    word's coproduct must be ``e (x) e`` alone, which makes both sums e.
    So this check fails wherever summing the left side would.
    """
    code = _code_of(w)
    with _memos(code) as memo:
        delta = memo[code]
        if not code:
            return delta == {(0, 0): 1}
        if {(u, v): c for (u, v), c in delta.items() if not (u and v)} != {(code, 0): 1, (0, code): 1}:
            return False
        if len(_factors(w.letters)) > 1 and _antipode(code, memo) != _recursion(code, memo):
            return False
        # v fixes the length and the supremum of u, so S(v) is placed after
        # u once for each v
        right: dict[int, int] = {}
        get = right.get
        heads: dict[int, list[Tuple[int, int]]] = {}
        for (u, v), c in delta.items():
            head = heads.get(v)
            if head is None:
                head = heads[v] = _placed(_antipode(v, memo), u)
            for x, d in head:
                k = u | x
                right[k] = get(k, 0) + c * d
    return not any(right.values())
