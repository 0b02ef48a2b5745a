"""Words over the indexed alphabet x0, x1, x2, ... and the pack projector.

Letters are plain nonnegative integers (the index i of x_i); index 0 is the
special letter that substitutions and shifts always fix.  ``pack`` relabels
the nonzero indices of a word order-preservingly onto 1..k and is the
idempotent projector onto packed words, the basis everything else is built
on.  All values here are immutable and all functions are pure.  The hot
paths run on plain letter tuples, whose rules live here only:
``_pack_letters``, ``_is_packed_letters``, ``_lift`` (a right factor's
shift), ``_canonical_key`` (the canonical order) and ``_letters_text``.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from operator import lt
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Word",
    "WordSyntaxError",
    "SubstitutionError",
    "NotPackedError",
    "parse_word",
    "pack",
    "is_packed",
    "require_packed",
    "substitute",
    "shift",
    "subword",
    "quotient",
]


class WordSyntaxError(ValueError):
    """Malformed text form of a word."""


class SubstitutionError(ValueError):
    """A substitution was applied outside its declared index domain."""


class NotPackedError(ValueError):
    """A packed word was required but the argument is not packed."""


_INDEX_RE = re.compile(r"[0-9]+\Z")

# str(i) of the small letter indices, looked up rather than formatted; a
# letter outside the table (larger or negative) falls back to str
_INDEX_TEXT = {i: str(i) for i in range(64)}


def _canonical_key(letters: tuple) -> tuple:
    """Sort key of the canonical order: by length, then lexicographically."""
    return len(letters), letters


def _letters_text(letters: tuple) -> str:
    """Comma-separated index form of a letter tuple; "e" when empty."""
    if not letters:
        return "e"
    try:
        return ",".join(map(_INDEX_TEXT.__getitem__, letters))
    except KeyError:
        return ",".join(map(str, letters))


@total_ordering
class Word:
    """Immutable word of nonnegative letter indices.

    Words compare and hash by their letter sequence and sort in the
    canonical order used throughout the package: by length first, then
    lexicographically on the index sequence.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()) -> None:
        letters = tuple(letters)
        for i in letters:
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise ValueError(f"letter index must be an integer >= 0, got {i!r}")
        self.letters = letters

    @classmethod
    def _raw(cls, letters: tuple) -> "Word":
        # internal fast path: letters already a validated tuple
        self = cls.__new__(cls)
        self.letters = letters
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return _canonical_key(self.letters) < _canonical_key(other.letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"

    def text(self) -> str:
        """Comma-separated index form; the empty word renders as "e"."""
        return _letters_text(self.letters)

    def count(self, index: int) -> int:
        """Partial degree: how many times x_index occurs."""
        return self.letters.count(index)

    def ialph(self) -> frozenset[int]:
        """Set of letter indices occurring in the word (0 included if present)."""
        return frozenset(self.letters)

    @property
    def sup(self) -> int:
        """Largest letter index; 0 for the empty word and all-x0 words."""
        return max(self.letters, default=0)


def parse_word(text: str) -> Word:
    """Parse the comma-separated index form, "e" for the empty word."""
    if text == "e":
        return Word()
    tokens = text.split(",")
    for tok in tokens:
        if not _INDEX_RE.match(tok):
            raise WordSyntaxError(f"bad letter index {tok!r} in word {text!r}")
    return Word(int(tok) for tok in tokens)


def substitute(phi: Mapping[int, int], w: Word) -> Word:
    """Apply a letter-index substitution letterwise.

    ``phi`` must be defined on every nonzero index occurring in ``w`` and
    must fix 0 (an absent 0 entry is treated as 0 -> 0).  A missing index
    is a hard error, never a silent identity.
    """
    if phi.get(0, 0) != 0:
        raise SubstitutionError("a substitution must map index 0 to 0")
    out = []
    for i in w.letters:
        if i == 0:
            out.append(0)
            continue
        try:
            j = phi[i]
        except KeyError:
            raise SubstitutionError(f"substitution undefined on index {i}") from None
        if j < 0:
            raise SubstitutionError(f"substitution image of {i} is negative: {j}")
        out.append(j)
    return Word(out)


@lru_cache(maxsize=1 << 18)
def _pack_letters(letters: tuple) -> tuple:
    nonzero = sorted({i for i in letters if i})
    if not nonzero or nonzero[-1] == len(nonzero):
        return letters
    relabel = {j: m for m, j in enumerate(nonzero, start=1)}
    relabel[0] = 0
    return tuple(relabel[i] for i in letters)


def pack(w: Word) -> Word:
    """Relabel the nonzero indices order-preservingly onto 1..k; idempotent."""
    return Word._raw(_pack_letters(w.letters))


def _is_packed_letters(letters: tuple) -> bool:
    # the nonzero letters are exactly 1..k for some k >= 0; a tuple with a
    # negative letter, which no Word holds, is not packed
    nonzero = set(letters)
    nonzero.discard(0)
    return not nonzero or (max(nonzero) == len(nonzero) and min(nonzero) > 0)


def is_packed(w: Word) -> bool:
    """True iff pack(w) = w, i.e. the nonzero indices are exactly 1..k."""
    return _is_packed_letters(w.letters)


def require_packed(w: Word) -> Word:
    if not isinstance(w, Word):
        raise TypeError(f"expected a Word, got {type(w).__name__}")
    if not is_packed(w):
        raise NotPackedError(f"word {w.text()!r} is not packed")
    return w


def _lift(letters: tuple, t: int) -> tuple:
    # nonzero letters raised by t (lowered if t < 0), x0 fixed
    return tuple([i + t if i else 0 for i in letters]) if t else letters


def shift(t: int, w: Word) -> Word:
    """Raise every nonzero letter index by t; x0 stays fixed."""
    if t < 0:
        raise ValueError(f"shift amount must be >= 0, got {t}")
    return Word._raw(_lift(w.letters, t))


def subword(w: Word, positions: Iterable[int]) -> Word:
    """Letters at the given 1-based positions, in increasing position order."""
    pos = list(positions)
    if not all(map(lt, pos, pos[1:])):
        pos = sorted(set(pos))
    letters = w.letters
    n = len(letters)
    if pos and (pos[0] < 1 or pos[-1] > n):
        p = next(p for p in pos if not 1 <= p <= n)
        raise IndexError(f"position {p} outside 1..{n}")
    return Word._raw(tuple([letters[p - 1] for p in pos]))


def quotient(w: Word, erase: "Word | Iterable[int]") -> Word:
    """Send every letter whose index lies in ``erase`` to x0.

    Quotienting by a word means erasing that word's alphabet.
    """
    kill = set(erase.letters if isinstance(erase, Word) else erase)
    return Word._raw(tuple([0 if i in kill else i for i in w.letters]))
