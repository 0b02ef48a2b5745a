import random
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from packedwords import (
    SubstitutionError,
    Word,
    WordSyntaxError,
    is_packed,
    pack,
    parse_word,
    quotient,
    shift,
    shifted_concat,
    substitute,
    subword,
)
from oracles import sweep
from packedwords.words import (
    _after,
    _code_shift,
    _code_sup,
    _decode,
    _encode,
    _is_packed_letters,
    _letters_text,
    _lift,
    _lift_codes,
    _nonzero_bits,
    _Packed,
    _subword_codes,
)


def W(text):
    return parse_word(text)


def all_words(max_len, max_index):
    for length in range(max_len + 1):
        for letters in iproduct(range(max_index + 1), repeat=length):
            yield Word(letters)


class TestWordBasics:
    def test_construction_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word([1, -1])
        with pytest.raises(ValueError):
            Word([1, "a"])

    @pytest.mark.parametrize("letters", [[True, 2], [False], [1, True]])
    def test_construction_rejects_bool_letters(self, letters):
        # True == 1 with the same hash, so a bool letter would make a word
        # equal to an integer one and share its entries in the pack cache
        with pytest.raises(ValueError, match="letter index"):
            Word(letters)

    def test_equality_is_letterwise(self):
        assert Word([1, 0, 2]) == Word((1, 0, 2))
        assert Word([1]) != Word([1, 0])
        assert len(Word()) == 0

    def test_canonical_order_by_length_then_lex(self):
        words = [W("2,1"), W("1"), W("e"), W("1,2"), W("0"), W("1,0")]
        assert [w.text() for w in sorted(words)] == ["e", "0", "1", "1,0", "1,2", "2,1"]

    def test_partial_degree_and_alphabet(self):
        w = W("1,1,3,0,2")
        assert w.count(1) == 2
        assert w.count(0) == 1
        assert w.count(5) == 0
        assert w.ialph() == {0, 1, 2, 3}

    def test_sup(self):
        assert W("e").sup == 0
        assert W("0,0").sup == 0
        assert W("1,1,5,0,4").sup == 5

    def test_hashable_as_dict_key(self):
        d = {W("1,2"): 1}
        assert d[Word([1, 2])] == 1


class TestTextFormat:
    def test_round_trip(self):
        for text in ["e", "0", "1,1,3,0,2", "10,2,0"]:
            assert parse_word(text).text() == text

    @pytest.mark.parametrize(
        "letters", [(0,), (1, 0, 2), (62, 63), (63, 64), (64,), (5, 1000, 0), (-1, 2), (2**70, 1)]
    )
    def test_letters_text_around_the_table_end(self, letters):
        # small letters are looked up in a table, the others formatted
        assert _letters_text(letters) == ",".join(map(str, letters))
        if min(letters) >= 0:
            assert Word(letters).text() == ",".join(map(str, letters))

    def test_letters_text_of_the_empty_word(self):
        assert _letters_text(()) == "e"

    @pytest.mark.parametrize("bad", ["", "1,-1", "-1", "1.5", "x", "1,,2", "1, 2", "e,1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


class TestPack:
    def test_paper_example(self):
        assert pack(W("1,1,5,0,4")) == W("1,1,3,0,2")

    def test_unit_and_idempotence_on_output(self):
        assert pack(W("e")) == W("e")
        assert pack(W("1,1,3,0,2")) == W("1,1,3,0,2")

    def test_all_zero_words_are_fixed(self):
        assert pack(W("0,0,0")) == W("0,0,0")

    def test_letters_above_a_byte(self):
        # letter tuples hold any letter; only the kernel's codes stop at 254
        assert pack(W("1000,0,5,1000")) == W("2,0,1,2")
        assert pack(W("256,255,0,300")) == W("2,1,0,3")

    def test_is_packed(self):
        assert is_packed(W("1,1,3,0,2"))
        assert not is_packed(W("1,1,5,0,4"))
        assert is_packed(W("e"))
        assert is_packed(W("0,0"))
        assert not is_packed(W("2"))

    def test_idempotence_exhaustive(self):
        for w in all_words(6, 6):
            p = pack(w)
            assert pack(p) == p
            assert is_packed(p)
            assert (p == w) == is_packed(w)

    def test_letter_tuples_are_packed_as_their_words(self):
        for w in all_words(4, 5):
            assert _is_packed_letters(w.letters) == (pack(w) == w)

    @pytest.mark.parametrize("letters", [(-1, 2), (2, -1), (-1,), (0, -1, 1)])
    def test_a_negative_letter_is_not_packed(self, letters):
        # such tuples are no Word's letters, but a faulty factorization can
        # make them; without the check, (-1, 2) and (2, -1) would pass
        assert not _is_packed_letters(letters)


class TestSubstitute:
    def test_identity(self):
        assert substitute({1: 1, 2: 2}, W("2,1")) == W("2,1")

    def test_paper_packing_map(self):
        assert substitute({1: 1, 4: 2, 5: 3, 0: 0}, W("1,1,5,0,4")) == W("1,1,3,0,2")

    def test_erasing_map(self):
        assert substitute({1: 0, 0: 0}, W("1,1")) == W("0,0")

    def test_bool_image_is_an_error(self):
        with pytest.raises(ValueError, match="letter index"):
            substitute({1: True}, W("1,0"))

    def test_undefined_index_is_an_error(self):
        with pytest.raises(SubstitutionError):
            substitute({1: 1}, W("1,2"))

    def test_zero_must_stay_fixed(self):
        with pytest.raises(SubstitutionError):
            substitute({0: 3, 1: 1}, W("1"))
        assert substitute({}, W("0,0")) == W("0,0")


class TestShift:
    def test_zero_letter_is_fixed(self):
        assert shift(1, W("0,1")) == W("0,2")

    def test_zero_shift(self):
        assert shift(0, W("1,0,2")) == W("1,0,2")

    def test_plain_shift(self):
        assert shift(2, W("1,2")) == W("3,4")

    def test_sup_shifts_when_positive(self):
        for w in [W("1"), W("1,0,2"), W("3,1,2")]:
            for t in range(4):
                assert shift(t, w).sup == w.sup + t
        assert shift(5, W("0,0")).sup == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            shift(-1, W("1"))


class TestSubword:
    def test_selection(self):
        w = W("1,2,1")
        assert subword(w, {2, 3}) == W("2,1")
        assert subword(w, set()) == W("e")
        assert subword(w, {1, 2, 3}) == W("1,2,1")

    def test_positions_are_one_based_and_checked(self):
        with pytest.raises(IndexError):
            subword(W("1,2"), {0})
        with pytest.raises(IndexError):
            subword(W("1,2"), {3})

    def test_any_order_and_repeats_give_the_sorted_selection(self):
        w = W("3,1,2,0")
        for k in range(6):
            for seq in iproduct(range(1, 5), repeat=k):
                expected = Word(w.letters[p - 1] for p in sorted(set(seq)))
                assert subword(w, list(seq)) == expected, seq
                assert subword(w, iter(seq)) == expected, seq

    def test_error_names_the_least_bad_position(self):
        for positions, bad in [([5, 1, 4], 4), ([1, 4, 5], 4), ([5, 0], 0), ([2, 0, 9], 0)]:
            with pytest.raises(IndexError, match=f"position {bad} outside 1..3"):
                subword(W("1,2,1"), positions)


class TestQuotient:
    def test_erases_to_zero(self):
        assert quotient(W("2,1"), {1}) == W("2,0")
        assert pack(quotient(W("2,1"), {1})) == W("1,0")

    def test_empty_alphabet(self):
        assert quotient(W("1,2"), set()) == W("1,2")

    def test_kills_everything(self):
        assert quotient(W("1,1"), {1}) == W("0,0")

    def test_by_word_uses_its_alphabet(self):
        assert quotient(W("1,2,3"), W("1,3")) == W("0,2,0")
        for u in all_words(3, 3):
            for v in all_words(2, 3):
                assert quotient(u, v) == Word(0 if i in v.letters else i for i in u.letters), (u, v)


# letter tuples that fit a code: up to 20 letters, each at most 254
codable = st.lists(st.integers(0, 254), max_size=20).map(tuple)


class TestCodes:
    """The int code of a letter tuple, as the coalgebra kernel uses it."""

    def test_the_format(self):
        assert _encode(()) == 0
        assert _encode((0,)) == 1
        assert _encode((1, 0, 254)) == 2 | 1 << 8 | 255 << 16
        assert _code_shift(_encode((1, 0, 254))) == 24
        assert _decode(0) == ()

    @sweep(400)
    @given(codable, codable, st.integers(0, 254))
    def test_round_trip_concatenation_and_lift_agree_with_tuples(self, a, b, t):
        ca, cb = _encode(a), _encode(b)
        assert _decode(ca) == a
        assert _code_sup(ca) == max(a, default=0)
        assert _decode(ca | cb << _code_shift(ca)) == a + b
        # a lift that keeps every letter at most 254, here by placing a
        # after the one-letter word t
        t %= 255 - max(a + b, default=0)
        assert _decode(_after(_encode((t,)), ca) >> 8) == _lift(a, t)
        assert [_decode(x) for x in _lift_codes([ca, cb], t)] == [_lift(a, t), _lift(b, t)]
        # b's letters kept below 255 - sup(a), so that the product fits
        b = tuple(x % (255 - max(a, default=0)) for x in b)
        assert _decode(ca | _after(ca, _encode(b))) == shifted_concat(Word(a), Word(b)).letters

    def test_a_lift_reaches_letter_254_without_carrying(self):
        letters = (0, 1, 0, 2, 1, 0)
        assert [_decode(x) for x in _lift_codes([_encode(letters)], 252)] == [(0, 253, 0, 254, 253, 0)]

    def test_a_code_longer_than_256_letters_lifts_as_its_tuple(self):
        letters = (0, 1, 2) * 100
        assert _decode(_after(_encode((7,)), _encode(letters)) >> 8) == _lift(letters, 7)

    def test_nonzero_bits_follow_the_per_letter_rule(self):
        # bit 8i is set iff letter i + 1 is nonzero, for codes of up to 300
        # letters, longer than a 256-byte mask
        rng = random.Random(23)
        for n in [0, 1, 255, 256, 257, 300] + [rng.randint(1, 300) for _ in range(200)]:
            top = rng.choice([1, 2, 254])
            letters = tuple(rng.choice([0, rng.randint(0, top)]) for _ in range(n))
            expected = sum(1 << 8 * i for i, x in enumerate(letters) if x)
            assert _nonzero_bits(_encode(letters)) == expected, letters

    def test_subword_codes_list_every_subword_with_its_repeated_letters(self):
        # bit j of a subset stands for position n - 1 - j; a mask keeps the
        # nonzero letters that occur more than once in the word
        for w in all_words(4, 3):
            letters = w.letters
            n = len(letters)
            sel, alph = _subword_codes(_encode(letters))
            assert len(sel) == len(alph) == 2**n
            for m in range(2**n):
                sub = tuple(letters[p] for p in range(n) if m >> (n - 1 - p) & 1)
                assert _decode(sel[m]) == sub, (w, m)
                repeated = {x for x in sub if x and letters.count(x) > 1}
                assert alph[m] == sum(1 << x for x in repeated), (w, m)

    def test_packed_memo_packs_and_quotients(self):
        memo = _Packed()
        for w in all_words(4, 4):
            code = _encode(w.letters)
            assert _decode(memo[code]) == pack(w).letters
            for erase in range(1, 32, 3):
                kept = quotient(w, {i for i in range(5) if erase >> i & 1})
                assert _decode(memo[code, erase]) == pack(kept).letters, (w, erase)
        # longer words, which the memo packs on bytes up to letter 254 (byte
        # 255); masks erase some of the word's letters, 254 in about half
        rng = random.Random(31)
        for _ in range(300):
            letters = tuple(rng.choice([0, 254, rng.randint(1, 254)]) for _ in range(rng.randint(8, 12)))
            w = Word(letters)
            code = _encode(letters)
            assert _decode(memo[code]) == pack(w).letters, letters
            for _ in range(3):
                erase = {x for x in letters if x and rng.random() < 0.3}
                if rng.random() < 0.5:
                    erase.add(254)
                mask = sum(1 << x for x in erase)
                assert _decode(memo[code, mask]) == pack(quotient(w, erase)).letters, (letters, erase)
