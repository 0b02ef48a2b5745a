"""Independent reference for the outputs of the long-words workload.

The long-words inputs change with the seed, so their outputs cannot all be
pinned.  This module recomputes the CLI's `coproduct W` and `antipode W`
text from the definitions, on plain letter tuples and integer
coefficients, without importing the package under test.  A faster but
wrong program therefore still fails the digest check on any seed.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def pack(letters: tuple) -> tuple:
    """Relabel the nonzero letters order-preservingly onto 1..k."""
    relabel = {j: m for m, j in enumerate(sorted({i for i in letters if i}), start=1)}
    relabel[0] = 0
    return tuple(relabel[i] for i in letters)


def shift(t: int, v: tuple) -> tuple:
    return tuple(i + t if i else 0 for i in v)


def coproduct(w: tuple) -> dict:
    """Selection/quotient coproduct: {(left, right): multiplicity}."""
    out: dict = {}
    for mask in range(1 << len(w)):
        sel = tuple(letter for p, letter in enumerate(w) if mask >> p & 1)
        erase = set(sel)
        rest = tuple(0 if letter in erase else letter for p, letter in enumerate(w) if not mask >> p & 1)
        key = (pack(sel), pack(rest))
        out[key] = out.get(key, 0) + 1
    return out


def antipode(w: tuple, memo: dict, work: list) -> dict:
    """S(w) = -w - sum over splits with both slots nonempty of S(left) * right.

    work[0] grows by |S(left)| per split of every distinct word recursed
    into: the number of term products the recursion makes.
    """
    if not w:
        return {(): 1}
    if w in memo:
        return memo[w]
    acc = {w: 1}
    for (u, v), mult in coproduct(w).items():
        if u and v:
            su = antipode(u, memo, work)
            work[0] += len(su)
            # every term of S(u) has the supremum of u (product and coproduct
            # both preserve it), so v is shifted once for all of them
            v = shift(max(u), v)
            for x, c in su.items():
                key = x + v
                acc[key] = acc.get(key, 0) + c * mult
    result = {x: -c for x, c in acc.items() if c}
    memo[w] = result
    return result


def _word_key(w: tuple) -> tuple:
    return (len(w), w)


def word_text(w: tuple) -> str:
    return ",".join(map(str, w)) if w else "e"


def render_tensor(terms: dict) -> bytes:
    """Stdout of `packedwords coproduct W` for the coproduct's terms."""
    items = sorted(terms.items(), key=lambda t: (_word_key(t[0][0]), _word_key(t[0][1])))
    return (" + ".join(f"{c}*{word_text(u)} (x) {word_text(v)}" for (u, v), c in items) or "0").encode() + b"\n"


def render_sum(terms: dict) -> bytes:
    """Stdout of `packedwords antipode W` for the antipode's terms."""
    items = sorted(terms.items(), key=lambda t: _word_key(t[0]))
    return (" + ".join(f"{c}*{word_text(x)}" for x, c in items) or "0").encode() + b"\n"


def expected_stdout(argv: list) -> bytes:
    """Exact stdout of `packedwords coproduct W` or `packedwords antipode W`."""
    verb, text = argv
    w = tuple(int(i) for i in text.split(",")) if text != "e" else ()
    if verb == "coproduct":
        return render_tensor(coproduct(w))
    return render_sum(antipode(w, {}, [0]))
