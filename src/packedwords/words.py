"""Words over the indexed alphabet x0, x1, x2, ... and the pack projector.

Letters are plain nonnegative integers (the index i of x_i); index 0 is the
special letter that substitutions and shifts always fix.  ``pack`` relabels
the nonzero indices of a word order-preservingly onto 1..k and is the
idempotent projector onto packed words, the basis everything else is built
on.  All values here are immutable and all functions are pure.  The hot
paths run on plain letter tuples, whose rules live here only:
``_pack_letters``, ``_is_packed_letters``, ``_lift`` (a right factor's
shift), ``_canonical_key`` (the canonical order) and ``_letters_text``.

The coalgebra kernel runs on words coded as single ``int``s, a format
stated here only.  Byte i of the code (little-endian) holds letter i + 1,
so the empty word is 0, no byte of a code is zero and a code's length is
``(code.bit_length() + 7) // 8`` bytes (``_encode``, ``_decode``).  The
concatenation of a and b is ``a | b << _code_shift(a)``.  Raising every
nonzero letter by t is ``code + t * nz(code)``, where nz has a 1 in the
low bit of each byte that holds a nonzero letter (a byte >= 2) and 0 in
the others: the code's bytes translated through a table that sends every
byte >= 2 to 1 and the rest to 0 (``_nonzero_bits``).  Codes are lifted
by ``_lift_codes`` and placed after a left factor by ``_after``, the
right factor's code in the shifted concatenation u * v, which is
``u | _after(u, v)``.
``_subword_codes`` lists the codes of the subwords on every subset of the
positions, with bitmasks of the letters each may share with its
complement, and ``_Packed``, the one mutable value here, memoises per code
packing and packing after a quotient.  One relabelling rule,
``_relabelled``, packs both letter tuples (``_pack_letters``), whose zero
symbol is letter 0, and the bytes of codes (``_Packed``), whose zero
symbol is byte 1, so a code is packed without being decoded.  Letters up
to 254 fit in a byte, which covers every packed word of supremum <= 254;
the public coalgebra calls refuse a larger supremum (``_require_codable``)
before any work, so no lift carries into the next byte.
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


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


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


def _relabelled(symbols: "tuple | bytes", zero: int, make: type) -> "tuple | bytes":
    # the pack rule: the distinct symbols above zero become zero + 1,
    # zero + 2, ... in order, zero stays, and make builds the result from
    # them; symbols come back as they are if nothing moves
    above = sorted(set(symbols) - {zero})
    if not above or above[-1] - zero == len(above):
        return symbols
    relabel = {s: m for m, s in enumerate(above, start=zero + 1)}
    relabel[zero] = zero
    return make(map(relabel.__getitem__, symbols))


# The cache serves only the public pack() and perfbench/tracer.py, which
# clears it and reads its counters around every call of a traced job, so a
# traced benchmark run fails without it; the kernel packs codes through
# _Packed.
@lru_cache(maxsize=1 << 18)
def _pack_letters(letters: tuple) -> tuple:
    return _relabelled(letters, 0, tuple)


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


# the largest letter a code holds: byte 255 is letter 254
_CODE_MAX_LETTER = 254
# translates each byte b of a code to its letter b - 1
_BYTE_TO_LETTER = bytes([(b - 1) % 256 for b in range(256)])
# translates each byte of a code to 1 if its letter is nonzero (a byte >= 2),
# else to 0
_NONZERO_BYTE = bytes([b > 1 for b in range(256)])


def _require_codable(top: int) -> None:
    # refuse a word whose largest letter would not fit in a code's byte
    if top > _CODE_MAX_LETTER:
        raise ResourceLimitError(
            f"letter {top} exceeds {_CODE_MAX_LETTER}, the largest letter the coalgebra kernel codes"
        )


def _encode(letters: tuple) -> int:
    """The code of a letter tuple whose letters are at most 254."""
    return int.from_bytes(bytes([x + 1 for x in letters]), "little")


def _code_shift(code: int) -> int:
    """The bit shift that puts a code after this one: 8 times its length."""
    return (code.bit_length() + 7) & -8


def _decode(code: int) -> tuple:
    """The letter tuple of a code."""
    return tuple(code.to_bytes(_code_shift(code) >> 3, "little").translate(_BYTE_TO_LETTER))


@lru_cache(maxsize=1 << 16)
def _code_sup(code: int) -> int:
    """The largest letter of a code; 0 for the empty word."""
    return max(code.to_bytes(_code_shift(code) >> 3, "little"), default=1) - 1


@lru_cache(maxsize=1 << 16)
def _nonzero_bits(code: int) -> int:
    """A 1 in the low bit of each byte of the code that holds a nonzero letter."""
    return int.from_bytes(code.to_bytes(_code_shift(code) >> 3, "little").translate(_NONZERO_BYTE), "little")


def _lift_codes(codes: "Iterable[int]", t: int) -> "list[int]":
    """Each of the codes with every nonzero letter raised by t, x0 fixed; as _lift."""
    return [c + t * _nonzero_bits(c) for c in codes] if t else list(codes)


def _after(u: int, v: int) -> int:
    """The code v takes in the product u * v: lifted by sup(u), shifted past u."""
    return (v + _code_sup(u) * _nonzero_bits(v)) << _code_shift(u)


def _subword_codes(code: int) -> "tuple[list[int], list[int]]":
    """Codes of the subwords on every subset of the positions, and alphabets.

    Bit j of a subset m stands for position n - 1 - j of the n positions;
    the first list holds the code of the letters at the positions of m, in
    order, and the second the bitmask (bit i for letter i) of those of its
    nonzero letters that occur more than once in the word, the only ones
    a subword can share with the subword on the other positions.  Each
    table is built from the subsets of the later positions, each of whose
    subwords a new letter goes in front of, so the complement of m is
    2^n - 1 - m, read from the other end of the lists.
    """
    sel = [0]
    alph = [0]
    word = code.to_bytes(_code_shift(code) >> 3, "little")
    for b in reversed(word):
        sel += [b | s << 8 for s in sel]
        if b > 1 and word.count(b) > 1:
            bit = 1 << b - 1
            alph += [a | bit for a in alph]
        else:
            alph += alph
    return sel, alph


class _Packed(dict):
    """Memo of packing by code: ``memo[code]`` is the code of the packed
    word, ``memo[code, mask]`` that of the word quotiented by the letters
    set in mask (bit i for letter i), then packed.  Each is computed on its
    first lookup by the pack rule on the code's bytes, whose zero symbol
    is byte 1 (letter 0); the memo holds one entry per distinct key looked
    up, and lives as long as its owner."""

    def __missing__(self, key: "int | tuple[int, int]") -> int:
        code, mask = (key, 0) if type(key) is int else key
        word = code.to_bytes(_code_shift(code) >> 3, "little")
        if mask:
            # the letters set in mask become letter 0, byte 1
            word = bytes([1 if mask >> b - 1 & 1 else b for b in word])
        packed = self[key] = int.from_bytes(_relabelled(word, 1, bytes), "little")
        return packed
