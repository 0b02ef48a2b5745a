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

Everything runs on one private integer kernel: words are plain letter
tuples and formal sums are dicts from tuples (or pairs and triples of
tuples) to ``int``s.  ``Word``, ``LinComb`` and ``Tensor2`` are built only
where a public function returns.  ``primitives`` reads the same kernel
(``_delta`` and ``_memo_delta``) for its matrix and its re-check, so this
holds there too.

The kernel's memos (coproducts in ``verify_coassociativity`` and
``verify_bialgebra``, antipodes in ``antipode`` and ``verify_antipode``)
last one call, with one exception: while a CLI ``verify`` sweep runs
(``_shared_memos``, which is thread-local), its verifier calls share the
entries of the words shorter than the one each checks, and each call
drops its own word's entries when it returns.  So a sweep that has
checked every word up to length n holds the coproducts or antipodes of
the words up to length n - 1 only.  Measured with ``tracemalloc``, beyond
the packing cache: the coproducts of the 185 words of length <= 4, which
``verify coassoc --max-len 5`` ends with, are 1 923 terms in 0.22 MB, and
the antipodes that ``verify antipode --max-len 5`` ends with 1 183 terms
in 0.16 MB; at ``--max-len 6`` (the 1 267 words of length <= 5) they are
26 457 terms in 2.7 MB and 25 449 terms in 3.2 MB, which is also what a
``--max-len 5`` sweep would end with if each call kept its own word's
entries.  One coproduct is built from tables over the subsets of its
word's positions, 2^n letter tuples and 2^n alphabet masks: 4 096 of each
at the CLI cap of 12 letters.  With the packing cache warm, one length-12
``_delta`` call peaked at 0.32-0.71 MB over seven words (the identity
permutation and six seeded words).  A sweep's memos belong to one thread,
so every function here is safe to call from several threads;
``antipode`` and ``coproduct`` never hold terms beyond their call.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Tuple, Union

from .algebra import FormalSum, LinComb, _as_lincomb, _collect, _factors, _lift
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
        # the order of Word.__lt__ on each slot
        u, v = pair
        return (len(u.letters), u.letters), (len(v.letters), v.letters)


def _delta(letters: Letters) -> dict[Split, int]:
    # the 2^n ordered splits (I, J) of the positions, from subset tables:
    # bit j of m stands for position j, sel[m] holds the letters at the
    # positions of m in order and alph[m] the bitmask of its nonzero letters,
    # each built from the subsets of the earlier positions.  The complement
    # of m is 2^n - 1 - m, so the remaining letters are sel read backwards.
    # Only letters in both alphabets are quotiented out, so a split with
    # nothing in common builds no new tuple; both slots are packed
    sel: list[Letters] = [()]
    alph = [0]
    for x in letters:
        sel += [s + (x,) for s in sel]
        bit = 1 << x if x else 0
        alph += [a | bit for a in alph]
    acc: dict[Split, int] = {}
    get = acc.get
    for s, a, rest, b in zip(sel, alph, reversed(sel), reversed(alph)):
        common = a & b
        if common:
            rest = tuple([0 if common >> i & 1 else i for i in rest])
        key = (_pack_letters(s), _pack_letters(rest))
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


def _antipode(
    letters: Letters, memo: dict[Letters, dict[Letters, int]], delta: dict[Split, int] | None = None
) -> dict[Letters, int]:
    # S(w) of the module docstring.  Every term of S(u) has the supremum of
    # u (the coproduct splits the supremum and the product adds it up), so
    # each product lifts a whole antipode by one amount.  A caller that
    # already holds Δ(w) passes it as delta; a reducible w does not use it.
    if not letters:
        return {(): 1}
    result = memo.get(letters)
    if result is not None:
        return result
    factors = _factors(letters)
    if len(factors) > 1:
        # reducible: the S of each factor (algebra._factors) goes in front
        # of the product so far, lifted by the suprema of the factors after it
        result = {(): 1}
        lift = max(letters)
        for f in factors:
            lift -= max(f)
            head = [(_lift(s, lift), d) for s, d in _antipode(f, memo).items()]
            result = {s + a: d * c for s, d in head for a, c in result.items()}
        memo[letters] = result
        return result
    # irreducible: S(w) = -w - sum of S(u) * v over the splits with both
    # slots nonempty, u strictly shorter than w
    acc = {letters: -1}
    get = acc.get
    for (u, v), m in (_delta(letters) if delta is None else delta).items():
        if u and v:
            tail = _lift(v, max(u))
            for s, c in _antipode(u, memo).items():
                k = s + tail
                acc[k] = get(k, 0) - m * c
    result = memo[letters] = {k: c for k, c in acc.items() if c}
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
    lin = _as_lincomb(x)
    memo: dict[Letters, dict[Letters, int]] = {}
    terms = _collect((s, c * t) for w, c in lin.terms.items() for s, t in _antipode(w.letters, memo).items())
    raw = Word._raw
    return LinComb._raw({raw(s): c for s, c in terms.items()})


# the memos of the verify sweep open on this thread, if any
_SWEEP = threading.local()


@contextmanager
def _shared_memos():
    """Share coproducts and antipodes across the verifier calls made inside, on this thread.

    Each call keeps those of the words shorter than the one it checks and
    drops those of its own length when it returns.
    """
    previous = getattr(_SWEEP, "memos", None)
    _SWEEP.memos = ({}, {})
    try:
        yield
    finally:
        _SWEEP.memos = previous


@contextmanager
def _memos(*own: Letters):
    # the (coproducts, antipodes) memos of one verifier call: fresh ones, or
    # inside _shared_memos the sweep's, from which the entries of the words
    # in own (those as long as the checked word) go when the call ends
    shared = getattr(_SWEEP, "memos", None)
    if shared is None:
        yield {}, {}
        return
    try:
        yield shared
    finally:
        for memo in shared:
            for x in own:
                memo.pop(x, None)


def _memo_delta(deltas: dict[Letters, dict[Split, int]], x: Letters) -> dict[Split, int]:
    d = deltas.get(x)
    if d is None:
        d = deltas[x] = _delta(x)
    return d


def verify_coassociativity(w: Word) -> bool:
    """Exact comparison of the two refinements of the coproduct."""
    require_packed(w)
    left: dict = {}
    right: dict = {}
    lget = left.get
    rget = right.get
    with _memos(w.letters) as (deltas, _):
        for (u, v), c in _memo_delta(deltas, w.letters).items():
            for (a, b), c2 in _memo_delta(deltas, u).items():
                key = (a, b, v)
                left[key] = lget(key, 0) + c * c2
            for (a, b), c2 in _memo_delta(deltas, v).items():
                key = (u, a, b)
                right[key] = rget(key, 0) + c * c2
    return left == right


def verify_bialgebra(u: Word, v: Word) -> bool:
    """Check that the coproduct of a product is the slotwise product of coproducts."""
    require_packed(u)
    require_packed(v)
    a, b = u.letters, v.letters
    top = max(a, default=0)
    uv = a + _lift(b, top)
    right: dict[Split, int] = {}
    get = right.get
    # a factor is as long as the product when the other one is empty; then
    # it is the product, and its one Δ serves both sides
    with _memos(*(x for x in (a, b) if len(x) == len(uv))) as (deltas, _):
        left = _delta(uv) if a and b else _memo_delta(deltas, uv)
        # each slot of a term of Δ(a) has a supremum t <= sup(a), so the
        # slots of Δ(b) are lifted once per t: firsts[t] and seconds[t] list
        # them lifted by t, in the order of coeffs
        terms_b = _memo_delta(deltas, b).items()
        coeffs = [c for _, c in terms_b]
        firsts = [[_lift(b1, t) for (b1, _), _ in terms_b] for t in range(top + 1)]
        seconds = [[_lift(b2, t) for (_, b2), _ in terms_b] for t in range(top + 1)]
        for (a1, a2), c1 in _memo_delta(deltas, a).items():
            for x, y, c2 in zip(firsts[max(a1, default=0)], seconds[max(a2, default=0)], coeffs):
                key = (a1 + x, a2 + y)
                right[key] = get(key, 0) + c1 * c2
    return left == right


def verify_antipode(w: Word) -> bool:
    """Both convolution identities for the antipode, checked exactly.

    Multiplying the antipode of one slot of the coproduct against the other
    slot must collapse everything to the counit times the unit.  For an
    irreducible word the left identity holds by the construction of S; for
    a reducible one S comes from the factors, so both identities are checks.
    """
    require_packed(w)
    letters = w.letters
    left: dict[Letters, int] = {}
    right: dict[Letters, int] = {}
    lget = left.get
    rget = right.get
    with _memos(letters) as (_, memo):
        delta = _delta(letters)
        # S(w), for the term w (x) e: from the factors of a reducible w, else
        # from this Δ(w)
        _antipode(letters, memo, delta)
        for (u, v), c in delta.items():
            # every term of S(u) has the supremum of u, which lifts v on the
            # left and every term of S(v) on the right
            t = max(u, default=0)
            tail = _lift(v, t)
            for s, d in _antipode(u, memo).items():
                k = s + tail
                left[k] = lget(k, 0) + c * d
            for s, d in _antipode(v, memo).items():
                k = u + _lift(s, t)
                right[k] = rget(k, 0) + c * d
    target = {(): 1} if not letters else {}
    return all({k: c for k, c in side.items() if c} == target for side in (left, right))
