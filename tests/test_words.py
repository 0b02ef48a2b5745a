from itertools import product as iproduct

import pytest

from packedwords import (
    SubstitutionError,
    Word,
    WordSyntaxError,
    is_packed,
    pack,
    parse_word,
    quotient,
    shift,
    substitute,
    subword,
)
from packedwords.words import _is_packed_letters, _letters_text


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
